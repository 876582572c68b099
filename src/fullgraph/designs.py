"""Finite fields and resolvable pairwise balanced designs (affine planes).

Fields are realized as explicit addition/multiplication tables over
polynomials modulo a fixed monic irreducible over the prime subfield; a
prime order is the degree-1 case.  Affine planes supply resolvable designs
whose parallel classes partition the point set and whose blocks cover every
point pair exactly once.
"""

from __future__ import annotations

from .graphs import _FrozenRecord


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


class FieldTable(_FrozenRecord):
    """Field of order q as lookup tables over elements 0..q-1 (0 and 1 literal)."""

    __slots__ = ("q", "add", "mul")

    def __init__(self, q: int, add: tuple[tuple[int, ...], ...], mul: tuple[tuple[int, ...], ...]):
        self._set(q, add, mul)


def supported_field_orders_note() -> str:
    return "q must be prime or one of {" + ", ".join(map(str, sorted(_IRREDUCIBLE))) + "}"


def is_supported_field_order(q: int) -> bool:
    return _is_prime(q) or q in _IRREDUCIBLE


def field(q: int) -> FieldTable:
    """Addition and multiplication tables for GF(q).

    GF(p^d) is GF(p)[x] modulo a monic irreducible of degree d, and a prime q
    is the case d = 1, modulo x.  Element e is the polynomial whose
    coefficients, low to high, are the d base-p digits of e.
    """
    if not is_supported_field_order(q):
        raise UnsupportedOrderError(f"no field of order {q}: {supported_field_orders_note()}")
    p, modulus = _IRREDUCIBLE.get(q, (q, (0, 1)))
    deg = len(modulus) - 1
    elems = [tuple(e // p ** i % p for i in range(deg)) for e in range(q)]
    index = {digits: e for e, digits in enumerate(elems)}

    def times(a, b):
        prod = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        # reduce from the top: x^deg is minus the rest of the monic modulus
        for k in range(2 * deg - 2, deg - 1, -1):
            for j in range(deg):
                prod[k - deg + j] -= prod[k] * modulus[j]
        return tuple(c % p for c in prod[:deg])

    add = tuple(tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for b in elems) for a in elems)
    mul = tuple(tuple(index[times(a, b)] for b in elems) for a in elems)
    return FieldTable(q, add, mul)


class ResolvableDesign(_FrozenRecord):
    """Point set 0..point_count-1 with parallel classes of equal-size blocks."""

    __slots__ = ("point_count", "block_size", "classes")

    def __init__(self, point_count: int, block_size: int, classes: tuple[tuple[tuple[int, ...], ...], ...]):
        self._set(point_count, block_size, classes)

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


def _bit_indices(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def validate_design(d: ResolvableDesign) -> list[str]:
    """Check the resolvability and pair-coverage invariants; empty list = valid."""
    problems = []
    n = d.point_count
    points = set(range(n))
    mates = [0] * n  # bit b > a of mates[a] is set once a block has held both a and b
    met = {}  # pair -> number of blocks holding both, for pairs not met exactly once
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
            inside = points.intersection(block)
            bits = sum(1 << v for v in inside)
            for a in inside:
                above = bits >> (a + 1) << (a + 1)
                for b in _bit_indices(mates[a] & above):
                    met[a, b] = met.get((a, b), 1) + 1
                mates[a] |= above
        missing = points - seen
        if missing:
            problems.append(f"class {ci}: point(s) {sorted(missing)} not covered")
    for a in range(n):
        for b in _bit_indices(~mates[a] & ((1 << n) - (2 << a))):
            met[a, b] = 0
    for pair in sorted(met):
        problems.append(f"pair {pair} covered {met[pair]} times")
    if d.block_size > 1:
        expected, rem = divmod(d.point_count - 1, d.block_size - 1)
        if rem or len(d.classes) != expected:
            problems.append(
                f"class count {len(d.classes)} != (points-1)/(block_size-1) = "
                f"{(d.point_count - 1) / (d.block_size - 1):g}"
            )
    return problems
