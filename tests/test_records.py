"""The record classes: construction, defaults, equality, hashing, freezing and ``to_dict``.

These pin what a caller sees of each result record, whatever the classes are
built from.
"""

import copy
import pickle

import pytest

from fullgraph.bounds import BoundEntry, BoundSummary
from fullgraph.constructions import ConstructionRecipe, star_full
from fullgraph.designs import FieldTable, ResolvableDesign, affine_plane, field
from fullgraph.graphs import Graph, complete, empty, path
from fullgraph.oracle import SearchResult
from fullgraph.verifier import FullnessReport, PatternCoverage, is_full


def _search_result(**changes):
    fields = dict(patterns=("A_", "A?"), f=4, witness="C]", exhausted_orders=(2, 3),
                  examined={2: 2, 3: 4, 4: 3}, exhaustive=True, note="n")
    fields.update(changes)
    return SearchResult(**fields)


def _coverage():
    return PatternCoverage("A_", {0: {0: 0, 1: 1}, 1: {0: 0, 1: 1}}, (2,))


# class, positional fields, the same by keyword
RECORDS = [
    (Graph, (3, (2, 5, 2)), dict(order=3, rows=(2, 5, 2))),
    (SearchResult, (("A_",), 2, "A_", (1,), {1: 1, 2: 1}, True, "x"),
     dict(patterns=("A_",), f=2, witness="A_", exhausted_orders=(1,), examined={1: 1, 2: 1},
          exhaustive=True, note="x")),
    (PatternCoverage, ("A_", {0: {0: 0}}, (1,)),
     dict(pattern_g6="A_", witnesses={0: {0: 0}}, uncovered=(1,))),
    (FullnessReport, (3, ()), dict(host_order=3, coverages=())),
    (ConstructionRecipe, ("star", {"m": 2}, 5),
     dict(theorem_tag="star", parameters={"m": 2}, claimed_order=5)),
    (FieldTable, (2, ((0, 1), (1, 0)), ((0, 0), (0, 1))),
     dict(q=2, add=((0, 1), (1, 0)), mul=((0, 0), (0, 1)))),
    (ResolvableDesign, (4, 2, (((0, 1), (2, 3)),)),
     dict(point_count=4, block_size=2, classes=(((0, 1), (2, 3)),))),
    (BoundEntry, ("e", "lower", 3, True, "why", {"n": 1}),
     dict(name="e", kind="lower", value=3, applicable=True, reason="why", details={"n": 1})),
    (BoundSummary, ({"orders": [2]}, []), dict(instance={"orders": [2]}, entries=[])),
]
FROZEN = [Graph, SearchResult, PatternCoverage, FullnessReport, ConstructionRecipe, FieldTable,
          ResolvableDesign]


class TestConstruction:
    @pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_positional_and_keyword_agree(self, cls, args, kwargs):
        a, b = cls(*args), cls(**kwargs)
        assert a == b
        for name, value in kwargs.items():
            assert getattr(a, name) == value
            assert getattr(b, name) == value

    @pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_rejects_unknown_arguments(self, cls, args, kwargs):
        with pytest.raises(TypeError):
            cls(*args, None)  # one argument too many
        with pytest.raises(TypeError):
            cls(**kwargs, unknown=1)

    def test_search_result_defaults(self):
        r = SearchResult(("A_",), None, None, (), {}, False)
        assert r.note == ""
        assert not hasattr(r, "wall_time")
        with pytest.raises(TypeError):
            SearchResult(("A_",), None, None, (), {})

    def test_bound_entry_defaults(self):
        e = BoundEntry("e", "upper", None, False)
        assert e.reason == ""
        assert e.details == {}
        with pytest.raises(TypeError):
            BoundEntry("e", "upper", None)

    def test_each_bound_entry_gets_its_own_details(self):
        a, b = BoundEntry("a", "lower", 1, True), BoundEntry("b", "lower", 1, True)
        assert a.details is not b.details
        a.details["n"] = 3
        assert b.details == {}
        assert BoundEntry("c", "lower", 1, True).details == {}

    def test_graph_validates_on_construction(self):
        with pytest.raises(ValueError, match="symmetric"):
            Graph(2, (2, 0))
        with pytest.raises(ValueError, match="rows must be a tuple"):
            Graph(order=2, rows=[2, 1])


class TestEquality:
    def test_graph(self):
        assert Graph(3, (2, 5, 2)) == path(3)
        assert Graph(3, (0, 0, 0)) != path(3)
        assert Graph(2, (0, 0)) != Graph(3, (0, 0, 0))
        assert path(3) != (3, (2, 5, 2))
        assert not path(3) == "P3"

    def test_search_result(self):
        assert _search_result() == _search_result()
        for change in [dict(f=5), dict(witness=None), dict(note=""), dict(exhaustive=False),
                       dict(examined={2: 2}), dict(exhausted_orders=(2,)), dict(patterns=("A_",))]:
            assert _search_result(**change) != _search_result(), change

    def test_resolvable_design(self):
        assert affine_plane(3) == affine_plane(3)
        assert affine_plane(3) == ResolvableDesign(9, 3, affine_plane(3).classes)
        assert affine_plane(2) != affine_plane(3)
        assert ResolvableDesign(4, 2, ()) != ResolvableDesign(4, 3, ())

    def test_construction_recipe(self):
        assert star_full(3, 5)[1] == star_full(3, 5)[1]
        assert ConstructionRecipe("star", {"m": 2}, 5) == ConstructionRecipe("star", {"m": 2}, 5)
        assert ConstructionRecipe("star", {"m": 2}, 5) != ConstructionRecipe("star", {"m": 3}, 5)
        assert ConstructionRecipe("star", {"m": 2}, 5) != ConstructionRecipe("cyclic", {"m": 2}, 5)
        assert ConstructionRecipe("star", {"m": 2}, 5) != ConstructionRecipe("star", {"m": 2}, 6)

    def test_fullness_report(self):
        host = path(4)
        pats = [complete(2), empty(2)]
        assert is_full(host, pats) == is_full(host, pats)
        assert is_full(host, pats) != is_full(host, pats[:1])
        assert FullnessReport(3, (_coverage(),)) == FullnessReport(3, (_coverage(),))
        assert FullnessReport(3, (_coverage(),)) != FullnessReport(4, (_coverage(),))

    def test_field_table_and_bounds(self):
        assert field(5) == field(5)
        assert field(4) != field(5)
        assert BoundEntry("e", "lower", 1, True) == BoundEntry("e", "lower", 1, True, "", {})
        assert BoundEntry("e", "lower", 1, True) != BoundEntry("e", "lower", 1, True, "r")
        entry = BoundEntry("e", "lower", 1, True)
        assert BoundSummary({}, [entry]) == BoundSummary({}, [BoundEntry("e", "lower", 1, True)])
        assert BoundSummary({}, [entry]) != BoundSummary({}, [])

    @pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_other_types_are_never_equal(self, cls, args, kwargs):
        rec = cls(*args)
        assert rec != args
        assert rec != kwargs
        assert rec != object()


class TestHashAndFreezing:
    def test_graph_is_hashable(self):
        assert hash(path(3)) == hash(Graph(3, (2, 5, 2)))
        assert len({path(3), Graph(3, (2, 5, 2)), complete(3), complete(3)}) == 2
        assert {path(3): 1}[Graph(3, (2, 5, 2))] == 1

    def test_hashable_frozen_records(self):
        assert hash(field(3)) == hash(field(3))
        assert hash(affine_plane(2)) == hash(affine_plane(2))

    def test_records_holding_dicts_do_not_hash(self):
        for rec in [_search_result(), _coverage(), ConstructionRecipe("star", {"m": 2}, 5)]:
            with pytest.raises(TypeError):
                hash(rec)

    def test_mutable_records_are_unhashable(self):
        with pytest.raises(TypeError):
            hash(BoundEntry("e", "lower", 1, True))
        with pytest.raises(TypeError):
            hash(BoundSummary({}, []))

    @pytest.mark.parametrize("cls", FROZEN, ids=[c.__name__ for c in FROZEN])
    def test_frozen_fields_are_read_only(self, cls):
        args, kwargs = next((a, k) for c, a, k in RECORDS if c is cls)
        rec = cls(*args)
        for name in kwargs:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)
            with pytest.raises(AttributeError):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec == cls(*args)

    def test_bound_records_are_mutable(self):
        e = BoundEntry("e", "lower", 1, True)
        e.value = 2
        e.applicable = False
        assert e == BoundEntry("e", "lower", 2, False)
        s = BoundSummary({}, [])
        s.entries = [e]
        assert s.best_lower() is None


class TestRepr:
    def test_field_by_field(self):
        assert repr(path(3)) == "Graph(order=3, rows=(2, 5, 2))"
        assert repr(BoundEntry("e", "lower", 1, True)) == \
            "BoundEntry(name='e', kind='lower', value=1, applicable=True, reason='', details={})"
        assert repr(ConstructionRecipe("star", {"m": 2}, 5)) == \
            "ConstructionRecipe(theorem_tag='star', parameters={'m': 2}, claimed_order=5)"
        assert repr(_search_result()).startswith("SearchResult(patterns=('A_', 'A?'), f=4, ")


class TestCopies:
    @pytest.mark.parametrize("cls,args,kwargs", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_pickle_and_copy_round_trip(self, cls, args, kwargs):
        rec = cls(*args)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
            assert type(twin) is cls
            assert twin == rec
            for name in kwargs:
                assert getattr(twin, name) == getattr(rec, name)


FIELDS = {cls: list(kwargs) for cls, _, kwargs in RECORDS}


def _mutables(o):
    """Every dict and list reachable from ``o`` through records, dicts, lists and tuples."""
    if type(o) in FIELDS:
        for name in FIELDS[type(o)]:
            yield from _mutables(getattr(o, name))
    elif isinstance(o, dict):
        yield o
        for v in o.values():
            yield from _mutables(v)
    elif isinstance(o, list):
        yield o
        for v in o:
            yield from _mutables(v)
    elif isinstance(o, tuple):
        for v in o:
            yield from _mutables(v)


class TestToDict:
    def test_recipe(self):
        params = {"m": 3, "lists": [[1, 2], [3]], "nested": {"a": [4]}, "pair": (5, [6])}
        rec = ConstructionRecipe("star", params, 7)
        d = rec.to_dict()
        assert list(d) == ["theorem_tag", "parameters", "claimed_order"]
        assert d == {"theorem_tag": "star", "parameters": params, "claimed_order": 7}
        assert isinstance(d["parameters"]["pair"], tuple)

    def test_bound_entry(self):
        e = BoundEntry("e", "exact", 9, True, "r", {"m": 2, "n": [3]})
        d = e.to_dict()
        assert list(d) == ["name", "kind", "value", "applicable", "reason", "details"]
        assert d == {"name": "e", "kind": "exact", "value": 9, "applicable": True, "reason": "r",
                     "details": {"m": 2, "n": [3]}}

    def test_bound_summary(self):
        entries = [BoundEntry("lo", "lower", 3, True, details={"d": [1]}),
                   BoundEntry("up", "upper", 5, True), BoundEntry("no", "upper", None, False, "x")]
        s = BoundSummary({"patterns": ["K2"], "orders": [2]}, entries)
        d = s.to_dict()
        assert list(d) == ["instance", "entries", "best_lower", "best_upper"]
        assert d["instance"] == {"patterns": ["K2"], "orders": [2]}
        assert d["entries"] == [e.to_dict() for e in entries]
        assert all(type(e) is dict for e in d["entries"])
        assert (d["best_lower"], d["best_upper"]) == (3, 5)

    def test_search_result(self):
        d = _search_result().to_dict()
        assert list(d) == ["patterns", "f", "witness", "exhausted_orders", "examined", "exhaustive",
                           "note"]
        assert d == {"patterns": ["A_", "A?"], "f": 4, "witness": "C]", "exhausted_orders": [2, 3],
                     "examined": {"2": 2, "3": 4, "4": 3}, "exhaustive": True, "note": "n"}
        assert SearchResult.from_dict(d) == _search_result()
        # a record written with the retired wall_time member reads as the same result
        assert SearchResult.from_dict({**d, "wall_time": 0.125}) == _search_result()

    def test_design(self):
        d = ResolvableDesign(4, 2, (((0, 1), (2, 3)), ((0, 2), (1, 3)))).to_dict()
        assert d == {"q": 2, "points": 4, "classes": [[[0, 1], [2, 3]], [[0, 2], [1, 3]]]}

    def test_shares_no_mutable_object_with_the_record(self):
        params = {"m": 3, "lists": [[1, 2], [3]], "nested": {"a": [4]}, "pair": (5, [6])}
        entries = [BoundEntry("lo", "lower", 3, True, details={"d": [1]}), BoundEntry("up", "upper", 5, True)]
        records = [
            ConstructionRecipe("star", params, 7),
            star_full(3, 5)[1],
            BoundEntry("e", "exact", 9, True, "r", {"m": 2, "n": [3]}),
            BoundSummary({"patterns": ["A_"], "orders": [2]}, entries),
            _search_result(),
            is_full(path(4), [complete(2), empty(2)]),
            affine_plane(3),
        ]
        for rec in records:
            before = copy.deepcopy(rec)
            d = rec.to_dict()
            theirs = {id(o) for o in _mutables(rec)}
            assert not [o for o in _mutables(d) if id(o) in theirs], type(rec).__name__
            for o in _mutables(d):  # and changing the copy leaves the record alone
                if isinstance(o, dict):
                    o["added"] = 1
                else:
                    o.append(1)
            assert rec == before, type(rec).__name__
