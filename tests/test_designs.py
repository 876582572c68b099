"""Finite fields, affine planes, and the resolvable-design validator."""

import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from fullgraph.cli import main

from fullgraph.designs import (
    ResolvableDesign,
    UnsupportedOrderError,
    affine_plane,
    field,
    is_supported_field_order,
    supported_field_orders_note,
    validate_design,
)

PRIME_ORDERS = [2, 3, 5, 7, 11, 13]


def design_from_dict(data):
    """The design that ``ResolvableDesign.to_dict`` wrote."""
    classes = tuple(tuple(tuple(sorted(block)) for block in cls) for cls in data["classes"])
    return ResolvableDesign(int(data["points"]), int(data["q"]), classes)
PRIME_POWER_ORDERS = [4, 8, 9, 16, 25, 27]


class TestField:
    @pytest.mark.parametrize("q", PRIME_ORDERS + PRIME_POWER_ORDERS)
    def test_field_axioms(self, q):
        f = field(q)
        add, mul = f.add, f.mul
        for a in range(q):
            assert add[a][0] == a
            assert mul[a][1] == a
            assert mul[a][0] == 0
            assert any(add[a][b] == 0 for b in range(q))
            if a != 0:
                assert any(mul[a][b] == 1 for b in range(q))
            for b in range(q):
                assert add[a][b] == add[b][a]
                assert mul[a][b] == mul[b][a]
                for c in range(q):
                    assert add[add[a][b]][c] == add[a][add[b][c]]
                    assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                    assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

    def test_gf4_polynomial_arithmetic(self):
        # elements are base-2 digit values; x * (x+1) == 1 in GF(4)
        f = field(4)
        assert f.mul[2][3] == 1

    def test_gf9_characteristic_three(self):
        f = field(9)
        # 1 + 1 + 1 == 0
        two = f.add[1][1]
        assert f.add[two][1] == 0

    @pytest.mark.parametrize("q", [1, 6, 10, 12, 14, 15, 18, 100])
    def test_unsupported_orders_rejected(self, q):
        with pytest.raises(UnsupportedOrderError):
            field(q)

    def test_supported_predicate(self):
        assert is_supported_field_order(7)
        assert is_supported_field_order(27)
        assert not is_supported_field_order(6)


class TestAffinePlane:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
    def test_plane_is_a_valid_design(self, q):
        d = affine_plane(q)
        assert d.point_count == q * q
        assert d.block_size == q
        assert len(d.classes) == q + 1
        assert validate_design(d) == []

    def test_every_pair_covered_once_small(self):
        # direct recount, independent of the validator
        d = affine_plane(3)
        seen = {}
        for cls in d.classes:
            for block in cls:
                for i, a in enumerate(block):
                    for b in block[i + 1:]:
                        key = (min(a, b), max(a, b))
                        seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        assert len(seen) == 9 * 8 // 2

    def test_classes_partition_points(self):
        d = affine_plane(4)
        for cls in d.classes:
            covered = sorted(p for block in cls for p in block)
            assert covered == list(range(16))

    def test_unsupported_plane_order(self):
        with pytest.raises(UnsupportedOrderError):
            affine_plane(6)


class TestValidator:
    def test_round_trip_dict(self):
        d = affine_plane(3)
        assert design_from_dict(d.to_dict()) == d

    def test_missing_class_reported(self):
        d = affine_plane(3)
        broken = ResolvableDesign(9, 3, d.classes[:-1])
        errs = validate_design(broken)
        assert errs
        assert any("covered 0 times" in e for e in errs)

    def test_wrong_block_size_reported(self):
        bad = ResolvableDesign(4, 2, ((((0, 1, 2)), (3,)),))
        errs = validate_design(bad)
        assert any("size" in e for e in errs)

    def test_overlap_within_class_reported(self):
        d = affine_plane(3)
        tampered = (((0, 1, 2), (2, 3, 4), (5, 6, 7)),) + d.classes[1:]
        errs = validate_design(ResolvableDesign(9, 3, tampered))
        assert errs

    def test_unknown_point_reported(self):
        bad = ResolvableDesign(4, 2, (((0, 1), (2, 9)),))
        errs = validate_design(bad)
        assert any("point" in e.lower() for e in errs)

    def test_duplicate_point_in_block_reported(self):
        bad = ResolvableDesign(4, 2, (((0, 0), (1, 2)),))
        errs = validate_design(bad)
        assert errs

    def test_pair_messages_match_a_pair_count(self):
        # the messages of counting every pair of every block, then walking all pairs in order
        d = affine_plane(4)
        designs = [
            ResolvableDesign(16, 4, d.classes[1:] + d.classes[:2]),
            ResolvableDesign(16, 4, (((0, 0, 1, 17), (2, 3, 2, 3)),) + d.classes[2:]),
            ResolvableDesign(5, 2, (((0, 1), (0, 1), (1, 4), (-1, 4)),)),
        ]
        for design in designs:
            counts = Counter(pair for cls in design.classes for block in cls
                             for pair in combinations(sorted(set(block)), 2))
            expected = [f"pair {pair} covered {counts[pair]} times"
                        for pair in combinations(range(design.point_count), 2) if counts[pair] != 1]
            assert [m for m in validate_design(design) if m.startswith("pair ")] == expected

    def test_validation_keeps_no_count_per_pair(self):
        # a bit mask of block-mates per point, not a count for every pair met
        d = affine_plane(31)
        tracemalloc.start()
        try:
            assert validate_design(d) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def sha1_of(value):
    return hashlib.sha1(json.dumps(value).encode()).hexdigest()


class TestPinned:
    """Field tables, ``design`` stdout and validator messages, byte for byte."""

    # sha1 of json.dumps([add, mul]) for every supported order below 60
    TABLES = {
        2: "464eb5a3a3b4dca2e6c32460022f0e40e74b847e",
        3: "d62479c61143992f682736ddac71e03c61394c64",
        4: "3e02de7084d05aedb357d648f421121b8cb8a2ba",
        5: "153ab1f90b0748b3baf7ede0c518f5d97f261225",
        7: "f3005d1e27420e09d6aa06d93788cf019fd78d41",
        8: "ffbd5d234d44ca4b1e3e2c5b6a5f5791351556e4",
        9: "34af9f81e1fa2fa4ed1d594c25fa11f1ad903ce9",
        11: "5de5ad0c2059fa4c321ff499d819a8abed6fb770",
        13: "9e729c479e45dd8e8275c2c91cabc6efe03a5f4d",
        16: "296e53202ee5b74ee8e96aab90cfc7b93829a89e",
        17: "3c747d696d866beb5c6ed43220438cff162cf5a7",
        19: "28db11b3008d0e564bfd466e3ed7ba25959dfc9b",
        23: "3c629ef3fed236f895b330723c4b9dfebec0475e",
        25: "35857ad6a50cef60cc825c2ff1e1311f4869401b",
        27: "624846336dabd772cb0560217e9a68a9353f8818",
        29: "227c64f51ba9911554c3194869a470974a16ff3e",
        31: "c87816b5cd76dfc36ae23c947f3be8270ffe66cd",
        37: "1c17fbcafb6a9f3bada4e26b574dd4723e4298c9",
        41: "2c16c2be6b2a1bcabfb3340e7e3b9b209bf31742",
        43: "638bca61fea10edbeec9b021f3c4affef3d8e23d",
        47: "2fddb98b81cb773e32c8e1bd8de2bc6fa610e717",
        53: "72fcb242c36ab7d60b38607779ecd44ad609dfdb",
        59: "7680fee34ff0ccb327c21c83575c4a282e8c1bf5",
    }

    # sha1 of the stdout of ``fullgraph design --q q``
    DESIGN_STDOUT = {
        2: "8e3185fe7609a67bdcb3fa7664bf1af608c90f63",
        3: "418d4a9204a16e4c0e9cae6707b51dbc58d10953",
        4: "2e032772a4090186cf6395f7fe97cde57e066cbb",
        5: "468a7f9efa6f342cf4cc8908c90b0d19619293df",
        7: "179f5dbbe12df0c0ea187e05693db575d2c096d6",
        8: "8cbc153eead9e15ffa932507a9f2c11fb758e5cf",
        9: "b52da1f05c13f684d9f967a689b7f9200c053e46",
        16: "576399990aa6608f55956d0984904ed5a4f27069",
        25: "569d3a66ccf9f9aae4eb9deb94043d2e1c7c91db",
        27: "40a3d21ad47a26d2a10c9561744583f85e169914",
    }

    def test_supported_orders_below_sixty(self):
        assert [q for q in range(60) if is_supported_field_order(q)] == sorted(self.TABLES)

    @pytest.mark.parametrize("q", sorted(TABLES))
    def test_tables(self, q):
        f = field(q)
        assert sha1_of([f.add, f.mul]) == self.TABLES[q]

    @pytest.mark.parametrize("q", sorted(DESIGN_STDOUT))
    def test_design_stdout(self, q, capsys):
        assert main(["design", "--q", str(q)]) == 0
        assert hashlib.sha1(capsys.readouterr().out.encode()).hexdigest() == self.DESIGN_STDOUT[q]

    def test_validator_messages(self):
        d = affine_plane(3)
        broken = [
            ResolvableDesign(9, 3, d.classes[:-1]),
            ResolvableDesign(4, 2, (((0, 1, 2), (3,)),)),
            ResolvableDesign(9, 3, (((0, 1, 2), (2, 3, 4), (5, 6, 7)),) + d.classes[1:]),
            ResolvableDesign(4, 2, (((0, 1), (2, 9)),)),
            ResolvableDesign(4, 2, (((0, 0), (1, 2)),)),
            ResolvableDesign(9, 3, d.classes + d.classes[:1]),
        ]
        messages = [validate_design(b) for b in broken]
        assert messages[0][0] == "pair (0, 1) covered 0 times"
        assert messages[3][0] == "class 0: block [2, 9] uses unknown points [9]"
        assert sha1_of(messages) == "4d0753a4a40348a1b57b7ba9f270c01b4da9da65"

    def test_supported_orders_note(self):
        assert supported_field_orders_note() == "q must be prime or one of {4, 8, 9, 16, 25, 27}"
