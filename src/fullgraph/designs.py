"""Finite fields and resolvable pairwise balanced designs (affine planes).

Fields are realized as explicit addition/multiplication tables: prime
orders use modular arithmetic, supported prime powers use a fixed
irreducible polynomial over the prime subfield.  Affine planes supply
resolvable designs whose parallel classes partition the point set and
whose blocks cover every point pair exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


class UnsupportedOrderError(ValueError):
    pass


# coefficients low-to-high of a monic irreducible polynomial over GF(p)
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),        # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),     # x^3 + x + 1
    9: (3, (1, 0, 1)),        # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),  # x^4 + x + 1
    25: (5, (2, 0, 1)),       # x^2 + 2
    27: (3, (1, 2, 0, 1)),    # x^3 + 2x + 1
}


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldTable:
    """Field of order q as lookup tables over elements 0..q-1 (0 and 1 literal)."""

    q: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


def supported_field_orders_note() -> str:
    return "q must be prime or one of {4, 8, 9, 16, 25, 27}"


def is_supported_field_order(q: int) -> bool:
    return _is_prime(q) or q in _IRREDUCIBLE


def _digits(e: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(e % p)
        e //= p
    return out


def _value(digits: list[int], p: int) -> int:
    v = 0
    for c in reversed(digits):
        v = v * p + c
    return v


def _poly_mul_mod(a: list[int], b: list[int], modpoly: tuple[int, ...], p: int) -> list[int]:
    deg = len(modpoly) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    # reduce from the top; modpoly is monic
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for j in range(deg):
                prod[k - deg + j] = (prod[k - deg + j] - c * modpoly[j]) % p
    return prod[:deg]


def field(q: int) -> FieldTable:
    """Addition and multiplication tables for GF(q)."""
    if _is_prime(q):
        add = tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
        mul = tuple(tuple((a * b) % q for b in range(q)) for a in range(q))
        return FieldTable(q, add, mul)
    if q not in _IRREDUCIBLE:
        raise UnsupportedOrderError(f"no field of order {q}: {supported_field_orders_note()}")
    p, modpoly = _IRREDUCIBLE[q]
    deg = len(modpoly) - 1
    elems = [_digits(e, p, deg) for e in range(q)]
    add_rows = []
    mul_rows = []
    for a in elems:
        add_rows.append(tuple(_value([(x + y) % p for x, y in zip(a, b)], p) for b in elems))
        mul_rows.append(tuple(_value(_poly_mul_mod(a, b, modpoly, p), p) for b in elems))
    return FieldTable(q, tuple(add_rows), tuple(mul_rows))


@dataclass(frozen=True)
class ResolvableDesign:
    """Point set 0..point_count-1 with parallel classes of equal-size blocks."""

    point_count: int
    block_size: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]

    def to_dict(self) -> dict:
        return {
            "q": self.block_size,
            "points": self.point_count,
            "classes": [[list(block) for block in cls] for cls in self.classes],
        }


def affine_plane(q: int) -> ResolvableDesign:
    """Affine plane of order q: q^2 points, q+1 parallel classes of q lines.

    Point (x, y) over GF(q) is indexed x*q + y.  One class per slope plus
    the class of vertical lines.
    """
    ft = field(q)
    classes = []
    for a in range(q):
        blocks = []
        for b in range(q):
            blocks.append(tuple(sorted(x * q + ft.add[ft.mul[a][x]][b] for x in range(q))))
        classes.append(tuple(blocks))
    vertical = tuple(tuple(c * q + y for y in range(q)) for c in range(q))
    classes.append(vertical)
    return ResolvableDesign(q * q, q, tuple(classes))


def validate_design(d: ResolvableDesign) -> list[str]:
    """Check the resolvability and pair-coverage invariants; empty list = valid."""
    problems = []
    points = set(range(d.point_count))
    for ci, cls in enumerate(d.classes):
        seen: set[int] = set()
        for block in cls:
            if len(block) != d.block_size or len(set(block)) != d.block_size:
                problems.append(f"class {ci}: block {list(block)} is not {d.block_size} distinct points")
            bad = [v for v in block if v not in points]
            if bad:
                problems.append(f"class {ci}: block {list(block)} uses unknown points {bad}")
            overlap = seen.intersection(block)
            if overlap:
                problems.append(f"class {ci}: point(s) {sorted(overlap)} appear in more than one block")
            seen.update(block)
        missing = points - seen
        if missing:
            problems.append(f"class {ci}: point(s) {sorted(missing)} not covered")
    counts: dict[frozenset, int] = {}
    for cls in d.classes:
        for block in cls:
            for u, v in combinations(sorted(set(block)), 2):
                counts[frozenset((u, v))] = counts.get(frozenset((u, v)), 0) + 1
    for u, v in combinations(range(d.point_count), 2):
        c = counts.get(frozenset((u, v)), 0)
        if c != 1:
            problems.append(f"pair ({u}, {v}) covered {c} times")
    if d.block_size > 1:
        expected, rem = divmod(d.point_count - 1, d.block_size - 1)
        if rem or len(d.classes) != expected:
            problems.append(
                f"class count {len(d.classes)} != (points-1)/(block_size-1) = "
                f"{(d.point_count - 1) / (d.block_size - 1):g}"
            )
    return problems
