"""Finite fields, affine planes, and the resolvable-design validator."""

import pytest

from fullgraph.designs import (
    ResolvableDesign,
    UnsupportedOrderError,
    affine_plane,
    field,
    is_supported_field_order,
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
