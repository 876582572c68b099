"""Order bounds for graphs in which every vertex lies in induced copies of patterns.

Write f(H_1, ..., H_k) for the least order of such a graph.  This module
evaluates the known closed forms and search-free bounds on f, all in exact
integer arithmetic: every ceil(c*sqrt(t)) is the least integer z with
z^2 >= c^2 * t, computed via math.isqrt, never floating point.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field

from . import designs
from .graphs import (
    Graph,
    alpha_with_vertex,
    check_patterns,
    complement,
    empty,
    is_complete_graph,
    is_empty_graph,
    max_degree,
    min_degree,
    star_center,
    to_graph6,
)


class InternalInvariantError(RuntimeError):
    """A self-check failed: the package's own logic is at fault."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def ceil_sqrt(n: int) -> int:
    """Least z >= 0 with z*z >= n."""
    if n <= 0:
        return 0
    z = math.isqrt(n)
    return z if z * z == n else z + 1


def egh_formula(m: int, n: int) -> int:
    """Exact f for a complete pattern of order m versus an edgeless one of order n."""
    if m < 2 or n < 2:
        raise ValueError("both orders must be at least 2")
    return (m - 1) + (n - 1) + ceil_sqrt(4 * (m - 1) * (n - 1))


def cyclic_upper(patterns: list[Graph]) -> int:
    """Order of the ring construction: twice the sum of (order - 1)."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    for i, p in enumerate(patterns):
        if p.order < 2:
            raise ValueError(f"pattern {i} has order {p.order}; single-vertex patterns "
                             "contribute an empty block and are not supported")
    return 2 * sum(p.order - 1 for p in patterns)


def design_upper(k: int) -> int:
    """Order (k-1)^2 achieved by overlaying k patterns of order < k on an affine plane."""
    if k < 3:
        raise ValueError("need at least 3 patterns for the affine-plane overlay")
    q = k - 1
    if not designs.is_supported_field_order(q):
        raise designs.UnsupportedOrderError(
            f"no affine plane of order {q} available: {designs.supported_field_orders_note()}"
        )
    return q * q


def default_ring_count(delta: int, m_prime: int, n: int, r: int | None = None) -> int:
    """Number of neighbourhood blocks for the pattern-vs-independent-set build.

    An explicit ``r`` is checked against the same constraints the default meets.
    """
    if r is None:
        # the least z with z*z*delta >= n is ceil_sqrt(ceil(n/delta)), since z*z is an integer
        r = max(ceil_sqrt(ceil_div(n, delta)) + 1, 3 * m_prime)
    elif r < max(3 * m_prime, 2):
        raise ValueError(f"r={r} below required {max(3 * m_prime, 2)} (= max(3*m', 2))")
    if n < r:
        # the last independent-set part has ceil(n/(r-1)) - 1 vertices, so
        # n >= r keeps every part nonempty and every block coverable
        raise ValueError(f"n={n} too small for the independent-set split over {r} parts")
    return r


def h_vs_empty_order(delta: int, n: int, r: int) -> int:
    """Order of the pattern-vs-independent-set build with r blocks: n - 1 + delta*r + ceil(n/(r-1))."""
    return n - 1 + delta * r + ceil_div(n, r - 1)


HEmptyUpper = namedtuple("HEmptyUpper", ["bound", "construction_order", "valid"])


def h_vs_empty_upper(h: Graph, n: int) -> HEmptyUpper:
    """Upper bound n + ceil(2*sqrt(delta*n)) + 2*delta for pattern h versus n independent vertices.

    ``valid`` reports whether n >= 9*delta*m'^2, the regime in which the
    bound statement applies; ``construction_order`` is the exact order of
    the default build, often smaller than the bound.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    delta = min_degree(h)
    if delta == 0:
        raise ValueError("pattern has an isolated-free requirement: min degree must be >= 1 "
                         "(use the isolated-vertex route instead)")
    m_prime = h.order - delta - 1
    bound = n + ceil_sqrt(4 * delta * n) + 2 * delta
    construction_order = h_vs_empty_order(delta, n, default_ring_count(delta, m_prime, n))
    valid = n >= 9 * delta * m_prime * m_prime
    return HEmptyUpper(bound, construction_order, valid)


def general_lower_bound(delta: int, big_delta: int, n: int) -> int:
    """Lower bound on f(H1, H2) from delta = min degree of H1, big_delta = max degree of H2, n = order of H2.

    Requires 2*big_delta < delta.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 * big_delta >= delta:
        raise ValueError(f"requires 2*max_degree < min_degree, got 2*{big_delta} >= {delta}")
    return n + ceil_sqrt(4 * (n + big_delta) * (delta - 2 * big_delta)) - (delta - big_delta)


def star_trivial_lower(m: int, n: int) -> int:
    """n + m - 1: a star of order m and an independent n-set overlap in one vertex at most."""
    if m < 2 or n < 1:
        raise ValueError("need star order >= 2 and n >= 1")
    return n + m - 1


def star_order(m: int, n: int, k: int) -> int:
    """Order n + max(k + ceil((n-1)/k), 2m - 3 - k) of the star build with k leaves per center."""
    return n + max(k + ceil_div(n - 1, k), 2 * m - 3 - k)


StarUpper = namedtuple("StarUpper", ["value", "k"])


def star_upper(m: int, n: int) -> StarUpper:
    """Least construction order n + max(k + ceil((n-1)/k), 2m - 3 - k) over k, with its k.

    Ties go to the smallest k.
    """
    if not 2 <= m <= n:
        raise ValueError("requires 2 <= m <= n")
    best_value, best_k = None, None
    for k in range(1, n):
        value = star_order(m, n, k)
        if best_value is None or value < best_value:
            best_value, best_k = value, k
    return StarUpper(best_value, best_k)


def star_lower(m: int, n: int) -> int:
    """Counting lower bound n + min over d of max(d - 1 + ceil(n/d), 2m - 2 - d)."""
    if not 2 <= m <= n:
        raise ValueError("requires 2 <= m <= n")
    return n + min(max(d - 1 + ceil_div(n, d), 2 * m - 2 - d) for d in range(1, n + 1))


def star_exact(m: int, n: int) -> int:
    """Exact f for a star of order m versus an edgeless graph of order n."""
    if m < 2 or n < 2:
        raise ValueError("both orders must be at least 2")
    if n < m:
        return n + m - 1
    return star_upper(m, n).value


StarClosedForm = namedtuple("StarClosedForm", ["value", "regime"])


def star_closed_form(m: int, n: int) -> StarClosedForm:
    """Closed form for the star case.

    Regime "A" (9(n-1) > 4(m-2)^2): value n + ceil(2*sqrt(n-1)), exact.
    Regime "B": the asymptotic approximation
    n + ceil((3(2m-3) - sqrt((2m-3)^2 - 8(n-1))) / 4), reported but not
    asserted equal to the exact optimum.
    """
    if not 2 <= m <= n:
        raise ValueError("requires 2 <= m <= n")
    if 9 * (n - 1) > 4 * (m - 2) * (m - 2):
        return StarClosedForm(n + ceil_sqrt(4 * (n - 1)), "A")
    a = 3 * (2 * m - 3)
    b = (2 * m - 3) * (2 * m - 3) - 8 * (n - 1)
    # least z with 4z >= a - sqrt(b)
    z = (a - math.isqrt(b)) // 4 - 1
    while 4 * z < a and b < (a - 4 * z) * (a - 4 * z):
        z += 1
    return StarClosedForm(n + z, "B")


def delta_zero_exact(h: Graph, n: int) -> int:
    """Exact f for a pattern with an isolated vertex versus n independent vertices.

    Equals n - s + order(h) where s is the smallest independent set size
    forced through any single vertex of h; requires n >= s.
    """
    if min_degree(h) != 0:
        raise ValueError("pattern must have an isolated vertex (min degree 0)")
    value, s = _delta_zero(h, n)
    if value is None:
        raise ValueError(f"requires n >= s = {s}, got n = {n}")
    return value


def _delta_zero(h: Graph, n: int) -> tuple[int | None, int]:
    """Exact f and s for ``delta_zero_exact``; f is None when n < s."""
    s = min(alpha_with_vertex(h, v) for v in range(h.order))
    return (n - s + h.order if n >= s else None), s


# -- aggregated summaries ----------------------------------------------------


@dataclass
class BoundEntry:
    name: str
    kind: str  # "lower", "upper", or "exact"
    value: int | None
    applicable: bool
    reason: str = ""
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BoundSummary:
    instance: dict
    entries: list[BoundEntry]

    def to_dict(self) -> dict:
        return {**asdict(self), "best_lower": self.best_lower(), "best_upper": self.best_upper()}

    def applicable(self, kind: str) -> list[BoundEntry]:
        return [e for e in self.entries if e.applicable and e.kind == kind]

    def best_lower(self) -> int | None:
        values = [e.value for e in self.applicable("lower") + self.applicable("exact")]
        return max(values) if values else None

    def best_upper(self) -> int | None:
        values = [e.value for e in self.applicable("upper") + self.applicable("exact")]
        return min(values) if values else None

    def violations(self) -> list[str]:
        """The largest lower-or-exact entry if it exceeds the smallest upper-or-exact one."""
        lows = self.applicable("lower") + self.applicable("exact")
        ups = self.applicable("upper") + self.applicable("exact")
        if not lows or not ups:
            return []
        lo = max(lows, key=lambda e: e.value)
        up = min(ups, key=lambda e: e.value)
        if lo.value <= up.value:
            return []
        return [f"{lo.kind} {lo.name}={lo.value} exceeds {up.kind} {up.name}={up.value}"]


def summarize(patterns: list[Graph], n: int | None = None) -> BoundSummary:
    """Every applicable bound for the instance; inapplicable formulas carry a reason.

    ``n`` appends an edgeless pattern of that order, the common shorthand
    for "pattern versus independent set" instances.
    """
    if n is not None:
        if n < 1:
            raise ValueError("n must be at least 1")
        patterns = list(patterns) + [empty(n)]
    check_patterns(patterns)
    orders = [p.order for p in patterns]
    instance = {"patterns": [to_graph6(p) for p in patterns], "orders": orders}
    entries = [BoundEntry("pattern_order", "lower", max(orders), True,
                          reason="any qualifying graph contains each pattern")]
    # every vertex lies in a copy of an order-1 pattern, so the ring carries the rest
    ring = [p for p in patterns if p.order != 1]
    if not ring:
        entries.append(BoundEntry("cyclic_upper", "upper", None, False,
                                  reason="every pattern has order 1; the ring needs order >= 2"))
    else:
        entries.append(BoundEntry("cyclic_upper", "upper", cyclic_upper(ring), True))

    t = len(patterns)
    plane_orders = range(max(2, max(orders), t - 1), 1001)
    q = next((q for q in plane_orders if designs.is_supported_field_order(q)), None)
    if q is not None:
        entries.append(BoundEntry("design_upper", "upper", design_upper(q + 1), True,
                                  details={"plane_order": q}))

    if t == 2:
        h1, h2 = patterns
        c1, c2 = complement(h1), complement(h2)
        for label, a, b in (("", h1, h2), ("_swapped", h2, h1),
                            ("_complement", c1, c2), ("_complement_swapped", c2, c1)):
            name = f"min_max_degree_lower{label}"
            delta = min_degree(a)
            big = max_degree(b)
            if 2 * big < delta:
                entries.append(BoundEntry(name, "lower", general_lower_bound(delta, big, b.order), True,
                                          details={"delta": delta, "max_degree": big, "n": b.order}))
            else:
                entries.append(BoundEntry(name, "lower", None, False,
                                          reason=f"needs 2*max_degree < min_degree; got 2*{big} >= {delta}"))

        for a, b in ((h1, h2), (h2, h1)):
            if not is_empty_graph(b):
                continue
            h, nn = a, b.order
            if is_complete_graph(h) and h.order >= 2 and nn >= 2:
                entries.append(BoundEntry("complete_vs_empty_exact", "exact",
                                          egh_formula(h.order, nn), True,
                                          details={"m": h.order, "n": nn}))
            delta = min_degree(h)
            if delta >= 1:
                try:
                    up = h_vs_empty_upper(h, nn)
                    entries.append(BoundEntry(
                        "pattern_vs_empty_upper", "upper", up.bound, up.valid,
                        reason="" if up.valid else f"needs n >= 9*delta*m'^2; n={nn} is below",
                        details={"construction_order": up.construction_order}))
                    entries.append(BoundEntry(
                        "pattern_vs_empty_construction", "upper", up.construction_order, True,
                        reason="order of the default build"))
                except ValueError as exc:
                    entries.append(BoundEntry("pattern_vs_empty_upper", "upper", None, False,
                                              reason=str(exc)))
            else:
                value, s = _delta_zero(h, nn)
                if value is not None:
                    entries.append(BoundEntry("isolated_vertex_exact", "exact", value, True,
                                              details={"s": s}))
                else:
                    entries.append(BoundEntry("isolated_vertex_exact", "exact", None, False,
                                              reason=f"needs n >= s = {s}"))
            if h.order >= 2 and star_center(h) is not None:
                m = h.order
                entries.append(BoundEntry("star_trivial_lower", "lower",
                                          star_trivial_lower(m, nn), True))
                if nn >= m:
                    lo = star_lower(m, nn)
                    up_ = star_upper(m, nn)
                    entries.append(BoundEntry("star_lower", "lower", lo, True))
                    entries.append(BoundEntry("star_upper", "upper", up_.value, True,
                                              details={"k": up_.k}))
                    entries.append(BoundEntry("star_exact", "exact", star_exact(m, nn), True))
                    cf = star_closed_form(m, nn)
                    entries.append(BoundEntry(
                        "star_closed_form", "exact", cf.value, cf.regime == "A",
                        reason="" if cf.regime == "A" else "dense-star regime: approximation only",
                        details={"regime": cf.regime}))
                elif nn >= 2:
                    entries.append(BoundEntry("star_exact", "exact", star_exact(m, nn), True,
                                              reason="small independent set: n < m"))

    summary = BoundSummary(instance, entries)
    problems = summary.violations()
    if problems:
        raise InternalInvariantError("bound summary is internally inconsistent: " + "; ".join(problems))
    return summary
