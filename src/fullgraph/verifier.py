"""Decide whether every vertex of a host lies in an induced copy of each pattern.

One engine, ``extend_partial_map``, finds induced copies: pinned pattern
vertices first, the rest in a static connectivity order.  A level's host
candidates are one bitmask, the AND of the host rows of the images of its
placed pattern neighbours and of the complemented rows of the images of its
placed non-neighbours, less the used vertices: copies are induced, so edges
and non-edges both match.  Edgeless patterns use ``independent_set_with``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (Graph, _independent_search, check_patterns, independent_set_with, is_empty_graph,
                     to_graph6)


def extend_partial_map(host: Graph, pattern: Graph, pins: dict[int, int]) -> dict[int, int] | None:
    """Complete ``pins`` (pattern vertex -> host vertex) to an induced copy.

    Returns a full role map or None.  With empty pins this searches for any
    induced copy of the pattern; pinning every vertex just validates a map.
    """
    p, h = pattern.order, host.order
    if p < 1:
        raise ValueError("pattern must have at least one vertex")
    if p > h:
        return None
    for q, w in pins.items():
        if not 0 <= q < p:
            raise ValueError(f"pinned pattern vertex {q} outside 0..{p - 1}")
        if not 0 <= w < h:
            raise ValueError(f"pinned host vertex {w} outside 0..{h - 1}")
    prows, hrows = pattern.rows, host.rows

    # pinned vertices first, then the static connectivity order: most placed
    # neighbours, then higher degree, then lower index (a mixed-radix key)
    deg = [r.bit_count() for r in prows]
    order = list(pins)
    placed = sum(1 << q for q in pins)
    rest = [q for q in range(p) if q not in pins]
    while rest:
        top = best = -1
        for q in rest:
            key = ((prows[q] & placed).bit_count() * p + deg[q]) * p + p - 1 - q
            if key > top:
                top, best = key, q
        rest.remove(best)
        order.append(best)
        placed |= 1 << best

    # per level: the host vertices allowed (one if pinned) and the degree
    # range, since an image needs as many neighbours and non-neighbours
    full = (1 << h) - 1
    allowed = [1 << pins[q] if q in pins else full for q in order]
    lo = [deg[q] for q in order]
    hi = [h - p + d for d in lo]

    images = [0] * p
    cands = [0] * p  # candidates of each level not yet tried
    cands[0] = allowed[0]
    used = i = 0
    while True:
        c = cands[i]
        while c:
            low = c & -c
            c ^= low
            w = low.bit_length() - 1
            if lo[i] <= hrows[w].bit_count() <= hi[i]:
                break
        else:
            if i == 0:
                return None
            i -= 1
            used ^= 1 << images[i]
            continue
        cands[i] = c
        images[i] = w
        used |= low
        i += 1
        if i == p:
            return dict(zip(order, images))
        c = allowed[i] & ~used
        row = prows[order[i]]
        for j in range(i):
            c &= hrows[images[j]] if (row >> order[j]) & 1 else ~hrows[images[j]]
        cands[i] = c


def find_induced_copy_containing(
    host: Graph, pattern: Graph, v: int, prefer: int = 0,
) -> dict[int, int] | None:
    """Induced copy of the pattern through host vertex v, or None.

    Tries each pattern vertex as the role of v, then extends depth-first.
    The returned role map is deterministic for fixed inputs.  An edgeless
    copy takes host vertices in the bitmask ``prefer`` first where its
    choice is free; other patterns ignore it.
    """
    if not 0 <= v < host.order:
        raise ValueError(f"vertex {v} outside 0..{host.order - 1}")
    if pattern.order >= 1 and is_empty_graph(pattern):
        # edgeless patterns reduce to an independent-set search, which the
        # dedicated branch-and-bound settles orders of magnitude faster
        members = independent_set_with(host, v, pattern.order, prefer)
        return None if members is None else dict(enumerate(members))
    for anchor in range(pattern.order):
        found = extend_partial_map(host, pattern, {anchor: v})
        if found is not None:
            return found
    return None


def has_induced_copy(host: Graph, pattern: Graph) -> bool:
    """Anywhere-in-the-host existence test, cheaper than anchored search."""
    if pattern.order < 1:
        raise ValueError("pattern must have at least one vertex")
    if is_empty_graph(pattern):
        return _independent_search(host.rows, (1 << host.order) - 1, pattern.order) is not None
    return extend_partial_map(host, pattern, {}) is not None


@dataclass(frozen=True)
class PatternCoverage:
    pattern_g6: str
    witnesses: dict[int, dict[int, int]]  # host vertex -> role map covering it
    uncovered: tuple[int, ...]


@dataclass(frozen=True)
class FullnessReport:
    host_order: int
    coverages: tuple[PatternCoverage, ...]

    @property
    def verdict(self) -> bool:
        return all(not c.uncovered for c in self.coverages)

    def to_dict(self) -> dict:
        """The report as JSON-ready data; the vertices one role map covers share one list."""
        patterns = []
        for c in self.coverages:
            members: dict[int, list[int]] = {}  # id of a role map -> its sorted images
            witnesses = {}
            for v, role_map in sorted(c.witnesses.items()):
                images = members.get(id(role_map))
                if images is None:
                    images = members[id(role_map)] = sorted(role_map.values())
                witnesses[str(v)] = images
            patterns.append({"pattern_g6": c.pattern_g6, "uncovered": list(c.uncovered),
                             "witnesses": witnesses})
        return {"verdict": self.verdict, "patterns": patterns}


def is_full(host: Graph, patterns: list[Graph]) -> FullnessReport:
    """Coverage report: for each pattern, which host vertices lie in an induced copy.

    A found copy covers every host vertex it uses, so later vertices inside
    it are never searched again for that pattern.  For an edgeless pattern
    the independent-set search prefers vertices not yet covered, where its
    choice is free, and the copy keeps them first.
    """
    check_patterns(patterns)
    coverages = []
    for pattern in patterns:
        witnesses: dict[int, dict[int, int]] = {}
        uncovered = []
        left = (1 << host.order) - 1  # host vertices no copy covers yet
        for v in range(host.order):
            if v in witnesses:
                continue
            role_map = find_induced_copy_containing(host, pattern, v, left)
            if role_map is None:
                uncovered.append(v)
            else:
                for w in role_map.values():
                    witnesses.setdefault(w, role_map)
                    left &= ~(1 << w)
        coverages.append(PatternCoverage(to_graph6(pattern), witnesses, tuple(uncovered)))
    return FullnessReport(host.order, tuple(coverages))


def recheck_witness(host: Graph, pattern: Graph, role_map: dict[int, int]) -> bool:
    """Independent validation of a role map: total, injective, adjacency-exact."""
    if set(role_map.keys()) != set(range(pattern.order)):
        return False
    images = list(role_map.values())
    if len(set(images)) != len(images):
        return False
    if any(not 0 <= w < host.order for w in images):
        return False
    for q1 in range(pattern.order):
        for q2 in range(q1 + 1, pattern.order):
            if pattern.adjacent(q1, q2) != host.adjacent(role_map[q1], role_map[q2]):
                return False
    return True
