"""Canonical labeling, isomorph-free enumeration, and the exact-minimum search.

Enumeration counts at orders 1..5 are derived here independently by
canonicalizing the entire labeled space; the larger counts are standard
sequence values asserted directly.
"""

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgraph import oracle
from fullgraph.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    path,
    relabeled,
    star,
    to_graph6,
)
from fullgraph.oracle import (
    ENUMERATION_ORDER_CAP,
    SearchResult,
    _cache_lookup,
    _cache_store,
    _canonical_search,
    _children,
    _degree_window,
    _level,
    _orbit,
    _pattern_form,
    _refine,
    canonical_form,
    enumerate_graphs,
    f_exact,
    resolve_cache_dir,
)
from fullgraph.patterns import parse_pattern_list
from fullgraph.verifier import find_induced_copy_containing, is_full


def canonical_labeling(g):
    return _canonical_search(g)[0]


def enumeration_digest(n):
    return hashlib.sha1("\n".join(to_graph6(g) for g in enumerate_graphs(n)).encode()).hexdigest()[:12]


def unpack_rows(data, n):
    """Rows of a packed representative: (n + 7) // 8 little-endian bytes a row."""
    width = (n + 7) // 8
    return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))


def labeled_space(n):
    count = n * (n - 1) // 2
    for bits in range(1 << count):
        edges = []
        idx = 0
        for i in range(n):
            for j in range(i + 1, n):
                if (bits >> idx) & 1:
                    edges.append((i, j))
                idx += 1
        yield Graph.from_edges(n, edges)


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(31337)
        for _ in range(150):
            n = rng.randint(1, 9)
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            base = canonical_form(g)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabeled(g, perm)) == base

    @pytest.mark.parametrize("n,classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
    def test_separates_classes_in_labeled_space(self, n, classes):
        forms = {canonical_form(g) for g in labeled_space(n)}
        assert len(forms) == classes

    def test_labeling_is_an_isomorphism(self):
        rng = random.Random(999)
        for _ in range(60):
            n = rng.randint(1, 8)
            p = rng.random()
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            lab = canonical_labeling(g)
            assert sorted(lab) == list(range(n))
            h = relabeled(g, lab)
            assert to_graph6(h).encode() == canonical_form(g)

    def test_distinguishes_regular_pairs(self):
        # C6 versus 2*K3: both 2-regular on six vertices
        assert canonical_form(cycle(6)) != canonical_form(disjoint_union(complete(3), complete(3)))
        # C5 is self-complementary territory: just check it differs from P5
        assert canonical_form(cycle(5)) != canonical_form(path(5))

    def test_forms_beyond_the_enumeration_are_pinned(self):
        # cache keys canonicalize patterns up to order 16, past the
        # enumeration digests, which stop at order 9
        rng = random.Random(16)
        forms = []
        for n in range(10, 17):
            for _ in range(60):
                p = rng.random()
                edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
                forms.append(canonical_form(Graph.from_edges(n, edges)))
        for n in range(3, 14):
            for jumps in range(1, 1 << (n // 2)):
                edges = {tuple(sorted((i, (i + d + 1) % n))) for i in range(n) for d in range(n // 2) if jumps >> d & 1}
                g = Graph.from_edges(n, edges)
                perm = list(range(n))
                rng.shuffle(perm)
                form = canonical_form(g)
                assert canonical_form(relabeled(g, perm)) == form
                forms.append(form)
        assert len(forms) == 659
        assert hashlib.sha1(b"\n".join(forms)).hexdigest()[:12] == "35425d762526"


def orbits_of(n, perms):
    """Vertex orbits of the group generated by ``perms``, as a set of frozensets."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in perms:
        for v in range(n):
            parent[find(v)] = find(p[v])
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in groups.values()}


class TestRecordedGenerators:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_generate_the_automorphism_group(self, n):
        for g in enumerate_graphs(n):
            rows = g.rows
            group = {
                p for p in itertools.permutations(range(n))
                if all(rows[p[v]] == sum(1 << p[u] for u in range(n) if rows[v] >> u & 1) for v in range(n))
            }
            gens = []
            _canonical_search(g, gens)
            assert all(p in group for p in gens)
            assert orbits_of(n, gens) == orbits_of(n, group)
            identity = tuple(range(n))
            closure, frontier = {identity}, [identity]
            while frontier:
                a = frontier.pop()
                for p in gens:
                    b = tuple(p[a[v]] for v in range(n))
                    if b not in closure:
                        closure.add(b)
                        frontier.append(b)
            assert len(closure) == len(group)

    def test_search_leaves_nothing_for_the_cyclic_collector(self):
        graphs = [cycle(5), path(6), complete(4), disjoint_union(cycle(4), cycle(4)), cycle(8)]
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        before = len(gc.garbage)
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for _ in range(20):
                for g in graphs:
                    _canonical_search(g, [])
            gc.collect()
            assert gc.garbage[before:] == []
        finally:
            del gc.garbage[before:]
            gc.set_debug(flags)
            if enabled:
                gc.enable()

    def test_recording_leaves_the_labeling_unchanged(self):
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(1, 9)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = Graph.from_edges(n, edges)
            assert _canonical_search(g, []) == _canonical_search(g)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34), (6, 156), (7, 1044)])
    def test_counts(self, n, count):
        assert sum(1 for _ in enumerate_graphs(n)) == count

    def test_representatives_are_pairwise_non_isomorphic(self):
        for n in range(1, 7):
            forms = [canonical_form(g) for g in enumerate_graphs(n)]
            assert len(forms) == len(set(forms))

    def test_representatives_cover_the_labeled_space(self):
        for n in range(1, 6):
            enumerated = {canonical_form(g) for g in enumerate_graphs(n)}
            labeled = {canonical_form(g) for g in labeled_space(n)}
            assert enumerated == labeled

    def test_every_representative_has_the_right_order(self):
        for n in range(1, 7):
            assert all(g.order == n for g in enumerate_graphs(n))

    @pytest.mark.parametrize("n,digest", [
        (1, "9a78211436f6"), (2, "003411611a97"), (3, "e7116b284492"), (4, "d5a6e0198834"),
        (5, "95eaecf933fa"), (6, "7dd100699f9c"), (7, "69609c4c30e3"),
    ])
    def test_sequence_is_pinned(self, n, digest):
        # graph6 of every representative, in order: the sequence itself is part of
        # the contract, since witnesses and cache records depend on it
        assert enumeration_digest(n) == digest

    def test_order_cap(self):
        with pytest.raises(ValueError):
            next(enumerate_graphs(ENUMERATION_ORDER_CAP + 1))
        with pytest.raises(ValueError):
            next(enumerate_graphs(0))

    def test_order_eight_count(self):
        assert sum(1 for _ in enumerate_graphs(8)) == 12346

    def test_order_eight_sequence_is_pinned(self):
        assert enumeration_digest(8) == "19a4a06bbc42"


class TestLevelStore:
    """Each parent is extended once, when a reader first reaches it.

    Every test runs in a child interpreter, so the store starts empty; the
    child records the parent order of every ``_children`` call.
    """

    PRELUDE = """
import hashlib, itertools, json, sys
sys.path.insert(0, {src!r})
from fullgraph import oracle
from fullgraph.graphs import to_graph6
extended = []
children = oracle._children
oracle._children = lambda rows, z: extended.append(z) or children(rows, z)
"""

    def run(self, code):
        src = str(Path(oracle.__file__).resolve().parent.parent)
        p = subprocess.run([sys.executable, "-c", self.PRELUDE.format(src=src) + code],
                           capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        return json.loads(p.stdout)

    def test_an_early_stop_leaves_later_parents_unextended(self):
        extended = self.run("list(itertools.islice(oracle.enumerate_graphs(8), 512))\n"
                            "print(json.dumps(extended))")
        assert extended.count(7) < 1044

    def test_a_second_read_extends_no_parent(self):
        again = self.run("for _ in oracle.enumerate_graphs(8): pass\n"
                         "before = len(extended)\n"
                         "for _ in oracle.enumerate_graphs(8): pass\n"
                         "print(json.dumps(extended[before:]))")
        assert again == []

    def test_a_read_after_an_early_stop_is_whole(self):
        digest = self.run("list(itertools.islice(oracle.enumerate_graphs(8), 3000))\n"
                          "text = '\\n'.join(to_graph6(g) for g in oracle.enumerate_graphs(8))\n"
                          "print(json.dumps(hashlib.sha1(text.encode()).hexdigest()[:12]))")
        assert digest == "19a4a06bbc42"


@pytest.mark.slow
class TestEnumerationLarge:
    def test_order_nine_count(self):
        assert sum(1 for _ in enumerate_graphs(9)) == 274668

    def test_order_nine_sequence_is_pinned(self):
        assert enumeration_digest(9) == "5ea5bfed2144"


class TestSearchCuts:
    def test_degree_window_rejects_only_uncoverable_vertices(self):
        patterns = [p for k in range(1, 5) for p in enumerate_graphs(k)]
        hosts = [g for n in range(1, 8) for g in enumerate_graphs(n)]
        rejected = 0
        for p in patterns:
            for host in hosts:
                if host.order < p.order:
                    continue
                window = _degree_window(p, host.order)
                for v, row in enumerate(host.rows):
                    if not window >> row.bit_count() & 1:
                        rejected += 1
                        assert find_induced_copy_containing(host, p, v) is None
        assert rejected == 17582

    @staticmethod
    def root(g):
        return _refine(g.rows, [list(range(g.order))], [list(range(g.order))])

    def test_last_vertex_orbit_lies_in_the_last_root_cell(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                gens = []
                lab, _ = _canonical_search(g, gens)
                assert _orbit(lab[-1], gens) <= set(self.root(g)[-1])

    def test_given_root_changes_nothing(self):
        for n in range(1, 8):
            for g in enumerate_graphs(n):
                gens, rooted_gens = [], []
                assert _canonical_search(g, gens) == _canonical_search(g, rooted_gens, self.root(g))
                assert gens == rooted_gens

    @staticmethod
    def shortcut_graphs():
        """Every representative of orders 1-7, then 300 seeded random graphs of orders 8-12."""
        for n in range(1, 8):
            yield from enumerate_graphs(n)
        rng = random.Random(1508)
        for _ in range(300):
            n, p = rng.randint(8, 12), rng.random()
            yield Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])

    def test_vertex_alone_in_last_root_cell_is_canonically_last(self):
        alone = 0
        for g in self.shortcut_graphs():
            last = self.root(g)[-1]
            if len(last) == 1:
                alone += 1
                assert canonical_labeling(g)[-1] == last[0]
        assert alone > 300

    def test_unique_greatest_degree_is_alone_in_last_root_cell(self):
        unique = 0
        for g in self.shortcut_graphs():
            degrees = [r.bit_count() for r in g.rows]
            top = [v for v, d in enumerate(degrees) if d == max(degrees)]
            if len(top) == 1:
                unique += 1
                assert self.root(g)[-1] == top
        assert unique > 300

    @staticmethod
    def reference_children(rows, z):
        """Rows of the children of a parent, accepted by one canonical search each."""
        gens = []
        _canonical_search(Graph(z, rows), gens)
        images = [[sum(1 << p[v] for v in range(z) if s >> v & 1) for s in range(1 << z)] for p in gens]
        degrees = [r.bit_count() for r in rows]
        covered = set()
        for subset in range(1 << z):
            if subset in covered:
                continue
            covered |= _orbit(subset, images)
            k = subset.bit_count()
            if any(d + (subset >> v & 1) > k for v, d in enumerate(degrees)):
                continue
            child_rows = tuple(r | (subset >> v & 1) << z for v, r in enumerate(rows)) + (subset,)
            child_gens = []
            lab, _ = _canonical_search(Graph(z + 1, child_rows), child_gens)
            if z in _orbit(lab[-1], child_gens):
                yield child_rows

    def test_children_match_a_canonical_search_per_candidate(self):
        def rows_of(data, n):
            width = (n + 7) // 8
            return tuple(int.from_bytes(data[i:i + width], "little") for i in range(0, n * width, width))

        for z in range(1, 8):
            for rows in _level(z):
                got = [rows_of(child, z + 1) for child in _children(rows, z)]
                assert got == list(self.reference_children(rows, z)), rows

    @staticmethod
    def candidate_children(rows, z):
        """Rows of the child of every degree-passing Aut(parent) orbit root, least subset first."""
        gens = []
        _canonical_search(Graph(z, rows), gens)
        images = [[sum(1 << p[v] for v in range(z) if s >> v & 1) for s in range(1 << z)] for p in gens]
        degrees = [r.bit_count() for r in rows]
        covered = set()
        for subset in range(1 << z):
            k = subset.bit_count()
            if subset in covered or any(d + (subset >> v & 1) > k for v, d in enumerate(degrees)):
                continue
            covered |= _orbit(subset, images)
            yield tuple(r | (subset >> v & 1) << z for v, r in enumerate(rows)) + (subset,)

    def test_unrefined_decisions_agree_with_the_refined_root(self, monkeypatch):
        # a child that _children decides without refining its root must have z
        # alone in the root's last cell when kept, and outside it when dropped
        parents = [(z, parent) for z in range(1, 8) for parent in _level(z)]
        refine, refined = _refine, set()

        def recording_refine(rows, partition, splitters):
            if len(partition) == 1:
                refined.add(rows)
            return refine(rows, partition, splitters)

        monkeypatch.setattr(oracle, "_refine", recording_refine)
        dropped = kept_by_key = 0
        for z, parent in parents:
            refined.clear()
            kept = {unpack_rows(child, z + 1) for child in _children(parent, z)}
            for child_rows in self.candidate_children(parent, z):
                if child_rows in refined:
                    continue
                last = refine(child_rows, [list(range(z + 1))], [list(range(z + 1))])[-1]
                if child_rows in kept:
                    assert last == [z], child_rows
                    degrees = [r.bit_count() for r in child_rows]
                    kept_by_key += degrees.count(degrees[z]) > 1
                else:
                    assert z not in last, child_rows
                    dropped += 1
        assert dropped > 5000 and kept_by_key > 3000


@pytest.mark.slow
class TestSearchCutsLarge:
    def test_children_match_a_canonical_search_per_candidate_at_order_nine(self):
        # two bytes a child row and half-width subset tables of 4 + 4 bits
        parents = random.Random(1608).sample(list(_level(8)), 200)
        for rows in parents:
            got = [unpack_rows(child, 9) for child in _children(rows, 8)]
            assert got == list(TestSearchCuts.reference_children(rows, 8)), rows


class TestFExact:
    def test_edge_nonedge_instance(self, tmp_path):
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r.f == 4
        assert r.exhaustive
        assert r.exhausted_orders == (2, 3)
        host = from_graph6(r.witness)
        assert host.order == 4
        assert is_full(host, [complete(2), empty(2)]).verdict

    def test_isolated_pattern_instance(self, tmp_path):
        h = disjoint_union(complete(2), complete(1))
        r = f_exact([h, empty(3)], cache_dir=tmp_path)
        assert r.f == 4
        assert is_full(from_graph6(r.witness), [h, empty(3)]).verdict

    def test_single_pattern(self, tmp_path):
        r = f_exact([complete(3)], cache_dir=tmp_path)
        assert r.f == 3 and r.witness == to_graph6(complete(3))

    def test_lower_hint_skips_orders(self, tmp_path):
        r = f_exact([complete(2), empty(2)], lower_hint=4, cache_dir=tmp_path)
        assert r.f == 4
        assert list(r.examined) == [4]
        assert r.exhausted_orders == ()

    def test_lower_hint_never_changes_the_answer(self, tmp_path):
        base = f_exact([complete(2), empty(3)], cache_dir=tmp_path)
        hinted = f_exact([complete(2), empty(3)], lower_hint=5, cache_dir=tmp_path)
        assert base.f == hinted.f == 6

    def test_upper_hint_caps_search(self, tmp_path):
        r = f_exact([complete(4), empty(4)], upper_hint=6, cache_dir=tmp_path)
        assert r.f is None
        assert r.exhaustive
        assert r.exhausted_orders == (4, 5, 6)
        assert "no qualifying graph" in r.note

    def test_beyond_cap_is_flagged_not_exhaustive(self, tmp_path):
        r = f_exact([complete(4), empty(10)], upper_hint=12, cache_dir=tmp_path)
        assert r.f is None
        assert not r.exhaustive
        assert "capped" in r.note

    def test_unexamined_orders_start_where_the_scan_would(self, tmp_path):
        r = f_exact([complete(11)], upper_hint=12, cache_dir=tmp_path)
        assert r.note == "orders 11..12 not examined: enumeration is capped at order 9"
        r = f_exact([complete(4), empty(4)], lower_hint=10, upper_hint=10, cache_dir=tmp_path)
        assert r.note == "orders 10..10 not examined: enumeration is capped at order 9"

    def test_inconsistent_hints_raise(self, tmp_path):
        with pytest.raises(ValueError):
            f_exact([complete(3)], lower_hint=7, upper_hint=5, cache_dir=tmp_path)

    def test_requires_patterns(self, tmp_path):
        with pytest.raises(ValueError):
            f_exact([], cache_dir=tmp_path)

    def test_witness_is_lex_least_in_first_hit_chunk(self, tmp_path):
        # rerunning gives the identical witness: determinism contract
        a = f_exact([complete(2), empty(2)], cache_dir=tmp_path / "a")
        b = f_exact([complete(2), empty(2)], cache_dir=tmp_path / "b")
        assert a.witness == b.witness == "CQ"

    def test_pattern_order_lower_bounds_result(self, tmp_path):
        r = f_exact([path(4)], cache_dir=tmp_path)
        assert r.f == 4

    @pytest.mark.parametrize("instance,digest", [
        ("K3,E3", "8e29e934bb11"), ("S4,E5", "a9e29dcf8e02"), ("C4,E4", "884feeb08888"),
        ("P4,E4", "271bf3ca6c00"), ("C5,E3", "9fbaecb75d68"), ("K2+E1,E3", "dcefc215b896"),
    ])
    def test_answers_are_pinned(self, tmp_path, instance, digest):
        # f, witness and examined counts per order; S4,E5 streams into order 9
        data = f_exact(parse_pattern_list(instance), cache_dir=tmp_path).to_dict()
        del data["wall_time"]
        assert hashlib.sha1(json.dumps(data, sort_keys=True).encode()).hexdigest()[:12] == digest


class TestCache:
    def test_second_call_hits_cache(self, tmp_path):
        r1 = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        # wipe nothing; a second call must return the stored record
        r2 = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r1.f == r2.f and r1.witness == r2.witness
        cache_file = tmp_path / "f_exact.jsonl"
        assert cache_file.exists()
        lines = cache_file.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_cache_is_keyed_by_canonical_patterns(self, tmp_path):
        f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        # same instance, patterns permuted and relabeled: still one record
        shuffled = relabeled(complete(2), [1, 0])
        f_exact([empty(2), shuffled], cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_distinct_hints_are_distinct_records(self, tmp_path):
        f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        f_exact([complete(2), empty(2)], lower_hint=4, cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2

    def test_corrupt_cache_line_is_ignored(self, tmp_path):
        cache_file = tmp_path / "f_exact.jsonl"
        cache_file.write_text("not json at all\n")
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        assert r.f == 4

    def test_malformed_records_are_skipped(self, tmp_path):
        good = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        cache_file = tmp_path / "f_exact.jsonl"
        key = json.loads(cache_file.read_text())["key"]
        bad = ["[]", '"text"', "7", json.dumps({"key": key, "result": {}}),
               json.dumps({"key": key, "result": []}), json.dumps({"result": good.to_dict()})]
        with cache_file.open("a") as fh:
            fh.write("\n".join(bad) + "\n")
        assert _cache_lookup(tmp_path, key) == good
        cache_file.write_text("\n".join(bad) + "\n")
        assert _cache_lookup(tmp_path, key) is None
        assert f_exact([complete(2), empty(2)], cache_dir=tmp_path) == good

    def test_records_written_in_turn_are_whole_lines(self, tmp_path):
        results = [f_exact([complete(2), empty(k)], cache_dir=tmp_path / "fill") for k in (2, 3)]
        keys = [f"key-{i}" for i in range(6)]
        for i, key in enumerate(keys):
            _cache_store(tmp_path, key, results[i % 2])
        lines = (tmp_path / "f_exact.jsonl").read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert [json.loads(line)["key"] for line in lines[:-1]] == keys
        for i, key in enumerate(keys):
            assert _cache_lookup(tmp_path, key) == results[i % 2]

    def test_records_under_the_old_key_shape_are_not_answered(self, tmp_path):
        # keys without a version were written before the note on unexamined
        # orders was corrected; such a record is never a hit
        canon = sorted(canonical_form(g).decode() for g in (complete(2), empty(2)))
        stale = SearchResult(patterns=tuple(canon), f=None, witness=None, exhausted_orders=(2, 3, 4),
                             examined={2: 2, 3: 4, 4: 11}, exhaustive=False, note="stale")
        _cache_store(tmp_path, json.dumps({"hi": 9, "lo": 2, "patterns": canon}, sort_keys=True), stale)
        assert f_exact([complete(2), empty(2)], cache_dir=tmp_path).f == 4
        keys = [json.loads(line)["key"] for line in (tmp_path / "f_exact.jsonl").read_text().splitlines()]
        assert len(keys) == 2
        assert json.loads(keys[1]) == {"hi": 9, "lo": 2, "patterns": canon, "version": 2}

    def test_resolution_order(self, tmp_path, monkeypatch):
        explicit = tmp_path / "explicit"
        env = tmp_path / "env"
        monkeypatch.setenv("FULLGRAPH_CACHE", str(env))
        assert resolve_cache_dir(explicit) == explicit
        assert resolve_cache_dir(None) == env
        monkeypatch.delenv("FULLGRAPH_CACHE")
        assert "fullgraph" in str(resolve_cache_dir(None))

    def test_relabeled_patterns_get_the_same_key_and_record(self, tmp_path):
        first = f_exact([path(4), star(4)], cache_dir=tmp_path)
        hits = _pattern_form.cache_info().hits
        second = f_exact([relabeled(star(4), [3, 1, 0, 2]), relabeled(path(4), [2, 0, 3, 1])], cache_dir=tmp_path)
        lines = (tmp_path / "f_exact.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert second.to_dict() == first.to_dict()  # the stored record, wall_time included
        assert f_exact([star(4), path(4)], cache_dir=tmp_path) == first
        assert _pattern_form.cache_info().hits >= hits + 2

    def test_search_result_round_trips(self, tmp_path):
        r = f_exact([complete(2), empty(2)], cache_dir=tmp_path)
        clone = SearchResult.from_dict(json.loads(json.dumps(r.to_dict())))
        assert clone == r


# -- the cache lookup against a scan of the whole file --------------------------


def store_head(key):
    """How every record ``_cache_store`` writes for ``key`` begins."""
    return ('{"key": ' + json.dumps(key) + ', "result": ').encode()


def scanned_lookup(cache_dir, key):
    """The lookup as a scan of the whole file on every call: the reference.

    Only a line that begins as ``_cache_store`` spells a record of ``key`` is
    a candidate; the newest one that parses and names the key wins.
    """
    path = cache_dir / "f_exact.jsonl"
    if not path.exists():
        return None
    for line in reversed(path.read_bytes().split(b"\n")):
        if not line.startswith(store_head(key)):
            continue
        try:
            record = json.loads(line.decode())
            if record["key"] == key:
                return SearchResult.from_dict(record["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            continue
    return None


INDEX_KEYS = [json.dumps({"hi": 9, "lo": lo, "patterns": ["A_", "Bw"]}, sort_keys=True)
              for lo in (2, 3, 4)] + ["back\\slash \"quoted\" café", "raw café"]
INDEX_RESULTS = [
    SearchResult(patterns=("A_", "Bw"), f=f, witness="Cr" if f else None,
                 exhausted_orders=tuple(range(2, f or 5)), examined={2: 2, 3: f or 4},
                 exhaustive=f is not None, note="" if f else "no qualifying graph",
                 wall_time=0.125 * (i + 1))
    for i, f in enumerate((4, 5, None))
]


def malformed_lines():
    k0, k1 = INDEX_KEYS[0], INDEX_KEYS[1]
    good = INDEX_RESULTS[2].to_dict()
    nested = dict(good, key=k1)
    return [
        "not json at all",
        "[]",
        '"text"',
        "7",
        json.dumps({"key": k0, "result": {}}),
        json.dumps({"key": k0, "result": []}),
        json.dumps({"result": good}),
        json.dumps({"key": 5, "result": good}),
        # json keeps the last of repeated members and reads escapes in member
        # names, so these two parse as records of k1, in a spelling no store writes
        f'{{"key": {json.dumps(k0)}, "result": {json.dumps(good)}, "key": {json.dumps(k1)}}}',
        f'{{"key": {json.dumps(k0)}, "k\\u0065y": {json.dumps(k1)}, "result": {json.dumps(good)}}}',
        # "key" inside the result names nothing
        json.dumps({"key": k1, "result": nested}),
        # UTF-8 written as is rather than escaped
        json.dumps({"key": INDEX_KEYS[4], "result": good}, ensure_ascii=False),
    ]


def record_line(k, r):
    return json.dumps({"key": INDEX_KEYS[k], "result": INDEX_RESULTS[r].to_dict()}, sort_keys=True)


KEY_INDEX = st.integers(0, len(INDEX_KEYS) - 1)
RESULT_INDEX = st.integers(0, len(INDEX_RESULTS) - 1)
CACHE_OPS = st.one_of(
    st.tuples(st.just("store"), KEY_INDEX, RESULT_INDEX),
    st.tuples(st.just("malformed"), st.integers(0, len(malformed_lines()) - 1)),
    st.tuples(st.just("unfinished"), KEY_INDEX, RESULT_INDEX),
    st.tuples(st.just("newline")),
    st.tuples(st.sampled_from(["truncate", "shuffle", "grow", "replace"]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("delete")),
)


class TestCacheIndex:
    """``_cache_lookup`` answers what a scan of the whole file answers, after any edit."""

    def test_store_spelling_is_pinned(self, tmp_path):
        # the lookup finds a record by the bytes its line starts with
        result = SearchResult(patterns=("A_", "Bw"), f=4, witness="Cr", exhausted_orders=(2, 3),
                              examined={2: 2, 3: 4}, exhaustive=True, wall_time=0.125)
        _cache_store(tmp_path, 'caf\u00e9 "q"', result)
        assert (tmp_path / "f_exact.jsonl").read_bytes() == (
            b'{"key": "caf\\u00e9 \\"q\\"", "result": {"examined": {"2": 2, "3": 4}, '
            b'"exhausted_orders": [2, 3], "exhaustive": true, "f": 4, "note": "", '
            b'"patterns": ["A_", "Bw"], "wall_time": 0.125, "witness": "Cr"}}\n')
        assert (tmp_path / "f_exact.jsonl").read_bytes().startswith(store_head('caf\u00e9 "q"'))

    @staticmethod
    def apply(path, op):
        if op[0] == "store":
            _cache_store(path.parent, INDEX_KEYS[op[1]], INDEX_RESULTS[op[2]])
            return
        if op[0] in ("malformed", "unfinished", "newline"):
            text = {"malformed": lambda: malformed_lines()[op[1]] + "\n",
                    "unfinished": lambda: record_line(op[1], op[2]),
                    "newline": lambda: "\n"}[op[0]]()
            with path.open("ab") as fh:
                fh.write(text.encode())
            return
        if op[0] == "delete":
            path.unlink(missing_ok=True)
            return
        rng = random.Random(op[1])
        data = path.read_bytes() if path.exists() else b""
        lines = data.splitlines(keepends=True)
        if op[0] == "truncate":
            data = data[:rng.randrange(len(data) + 1)]
        elif op[0] == "shuffle":
            rng.shuffle(lines)
            data = b"".join(lines)
        else:
            extra = [(record_line(rng.randrange(len(INDEX_KEYS)), rng.randrange(len(INDEX_RESULTS)))
                      + "\n").encode() for _ in range(rng.randint(1, 3))]
            lines[rng.randrange(len(lines) + 1):0] = extra
            data = b"".join(lines)
        if op[0] == "replace":
            fresh = path.with_name("fresh.jsonl")
            fresh.write_bytes(data)
            os.replace(fresh, path)
        else:
            # in place: same file, new content
            with path.open("r+b" if path.exists() else "wb") as fh:
                fh.write(data)
                fh.truncate()

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.lists(CACHE_OPS, max_size=20))
    def test_matches_a_scan_of_the_whole_file(self, ops):
        with tempfile.TemporaryDirectory() as tmp:
            cache_dir = Path(tmp)
            path = cache_dir / "f_exact.jsonl"
            for op in ops:
                self.apply(path, op)
                for key in INDEX_KEYS:
                    got, want = _cache_lookup(cache_dir, key), scanned_lookup(cache_dir, key)
                    assert (got and got.to_dict()) == (want and want.to_dict()), (op, key)

    def test_lines_in_another_spelling_name_no_key(self, tmp_path):
        # json reads each of these lines as a record of the key listed, but
        # _cache_store never spells a record so: every lookup misses
        lines = malformed_lines()
        others = [lines[8], lines[9], lines[11]]
        assert [json.loads(line)["key"] for line in others] == [INDEX_KEYS[1], INDEX_KEYS[1], INDEX_KEYS[4]]
        (tmp_path / "f_exact.jsonl").write_text("\n".join(others) + "\n", encoding="utf-8")
        for key in INDEX_KEYS:
            assert _cache_lookup(tmp_path, key) is None

    def test_unfinished_last_line_is_read_but_completed_later(self, tmp_path):
        path = tmp_path / "f_exact.jsonl"
        path.write_text(record_line(0, 0) + "\n" + record_line(0, 1))
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]).to_dict() == INDEX_RESULTS[1].to_dict()
        with path.open("a") as fh:
            fh.write("x\n")
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]).to_dict() == INDEX_RESULTS[0].to_dict()

    def test_undecodable_line_is_skipped(self, tmp_path):
        # the whole-file scan raised UnicodeDecodeError here
        (tmp_path / "f_exact.jsonl").write_bytes(b"\xff\xfe\n" + record_line(0, 0).encode() + b"\n")
        assert _cache_lookup(tmp_path, INDEX_KEYS[0]) == INDEX_RESULTS[0]
        assert _cache_lookup(tmp_path, INDEX_KEYS[1]) is None

    def test_concurrent_lookups_and_stores_agree(self, tmp_path):
        # each key's newest line is malformed, so a lookup walks back past it
        # to the record before, while other threads append to the same file
        keys = [f"threaded {i}" for i in range(60)]
        want = {k: INDEX_RESULTS[i % len(INDEX_RESULTS)] for i, k in enumerate(keys)}
        wrong, stop = [], threading.Event()

        def reader():
            while not stop.is_set():
                for k in keys:
                    found = _cache_lookup(tmp_path, k)
                    if found is not None and found.to_dict() != want[k].to_dict():
                        wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, daemon=True) for _ in range(4)]
            for t in threads:
                t.start()
            for k in keys:
                with (tmp_path / "f_exact.jsonl").open("a") as fh:
                    fh.write(json.dumps({"key": k, "result": want[k].to_dict()}, sort_keys=True)
                             + "\n" + json.dumps({"key": k, "result": {}}) + "\n")
                time.sleep(0.001)
            stop.set()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert all(_cache_lookup(tmp_path, k) == want[k] for k in keys)
