"""Decide whether every vertex of a host lies in an induced copy of each pattern.

One engine, ``extend_partial_map``, finds induced copies: pinned pattern
vertices first, the rest in a static connectivity order.  A level's host
candidates are one bitmask, the AND of the host rows of the images of its
placed pattern neighbours and of the complemented rows of the images of its
placed non-neighbours, less the used vertices: copies are induced, so edges
and non-edges both match.  Edgeless patterns use ``independent_set_with``,
whose search scans and takes a host's vertices of equal rows a class at a
time.

The order of the levels and their degree lower bounds depend on the pattern
and its pinned vertices only, so they are planned once and kept in a small
cache keyed by the pattern's rows and pinned vertices: the same few patterns
are searched on thousands of hosts.  A self-map, the host passed as its own
pattern (the enumerator's automorphism tests), is not planned: its levels
are its pins, then index order, and it leaves the cache to the host checks.

Twins are two vertices with equal rows (false twins) or equal closed rows
(true twins); swapping them is an automorphism.  An anchored search tries
one anchor per twin class of the pattern, since a twin of a failed anchor
fails too.  A verdict-only check (``is_full`` with ``stop_at_gap``) searches
once per twin class of the host at most, since a copy through one of two
twins gives a copy through the other.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import (Graph, _FrozenRecord, _independent_search, check_patterns, independent_set_with,
                     is_empty_graph, to_graph6)


@lru_cache(maxsize=32)
def _plan(prows: tuple[int, ...], pinned: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The search's levels for a pattern: its vertex at each level, and that vertex's degree.

    Pinned vertices come first, in pin order, then the static connectivity
    order: most placed neighbours, then higher degree, then lower index (a
    mixed-radix key).
    """
    p = len(prows)
    deg = [r.bit_count() for r in prows]
    order = list(pinned)
    placed = sum(1 << q for q in pinned)
    rest = [q for q in range(p) if q not in pinned]
    while rest:
        top = best = -1
        for q in rest:
            key = ((prows[q] & placed).bit_count() * p + deg[q]) * p + p - 1 - q
            if key > top:
                top, best = key, q
        rest.remove(best)
        order.append(best)
        placed |= 1 << best
    # from a list: tuple() of a generator allocates 10 slots and shrinks, and
    # the shrunk tuple then sits on a smaller size's free list when freed
    return tuple(order), tuple([deg[q] for q in order])


def extend_partial_map(host: Graph, pattern: Graph, pins: dict[int, int]) -> dict[int, int] | None:
    """Complete ``pins`` (pattern vertex -> host vertex) to an induced copy.

    Returns a full role map or None.  With empty pins this searches for any
    induced copy of the pattern; pinning every vertex just validates a map.
    The level order comes from the cached plan of the pattern's rows and the
    pinned pattern vertices in pin order, or for a self-map from the pins
    and then index order.
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
    if host is pattern:
        # an automorphism test: pins, then index order, unplanned
        order = [*pins, *[q for q in range(p) if q not in pins]]
        lo = [prows[q].bit_count() for q in order]
    else:
        order, lo = _plan(prows, tuple(pins))

    # per level: the host vertices allowed (one if pinned) and the degree
    # range, since an image needs as many neighbours and non-neighbours
    allowed = [1 << w for w in pins.values()] + [(1 << h) - 1] * (p - len(pins))
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
    A vertex whose row or closed row equals that of a vertex already tried
    is its twin, so it fails as that one did and is skipped.  The returned
    role map is deterministic for fixed inputs, the one the first successful
    anchor gives.  An edgeless copy takes host vertices in the bitmask
    ``prefer`` first where its choice is free; other patterns ignore it.
    """
    if not 0 <= v < host.order:
        raise ValueError(f"vertex {v} outside 0..{host.order - 1}")
    if pattern.order >= 1 and is_empty_graph(pattern):
        # edgeless patterns reduce to an independent-set search, which the
        # dedicated branch-and-bound settles orders of magnitude faster
        members = independent_set_with(host, v, pattern.order, prefer)
        return None if members is None else dict(enumerate(members))
    tried = set()  # rows and closed rows of the anchors tried
    for anchor, row in enumerate(pattern.rows):
        if row in tried or row | 1 << anchor in tried:
            continue
        found = extend_partial_map(host, pattern, {anchor: v})
        if found is not None:
            return found
        tried.update((row, row | 1 << anchor))
    return None


def has_induced_copy(host: Graph, pattern: Graph) -> bool:
    """Anywhere-in-the-host existence test, cheaper than anchored search."""
    if pattern.order < 1:
        raise ValueError("pattern must have at least one vertex")
    if is_empty_graph(pattern):
        return _independent_search(host.rows, (1 << host.order) - 1, pattern.order) is not None
    return extend_partial_map(host, pattern, {}) is not None


class PatternCoverage(_FrozenRecord):
    __slots__ = ("pattern_g6", "witnesses", "uncovered")

    def __init__(
        self,
        pattern_g6: str,
        witnesses: dict[int, dict[int, int]],  # host vertex -> role map covering it
        uncovered: tuple[int, ...],
    ):
        self._set(pattern_g6, witnesses, uncovered)


class FullnessReport(_FrozenRecord):
    __slots__ = ("host_order", "coverages")

    def __init__(self, host_order: int, coverages: tuple[PatternCoverage, ...]):
        self._set(host_order, coverages)

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


def is_full(host: Graph, patterns: list[Graph], *, stop_at_gap: bool = False) -> FullnessReport:
    """Coverage report: for each pattern, which host vertices lie in an induced copy.

    A found copy covers every host vertex it uses, so later vertices inside
    it are never searched again for that pattern.  For an edgeless pattern
    the independent-set search prefers vertices not yet covered, where its
    choice is free, and the copy keeps them first.

    With ``stop_at_gap`` the report ends at the first vertex no copy covers:
    it holds the coverages up to that pattern's, whose one uncovered vertex
    is it.  A vertex whose row or closed row equals that of a vertex in a
    found copy is a twin of that vertex, covered by the copy with the two
    swapped, and is skipped unsearched and left without a witness.  The
    verdict and the first uncovered vertex are exact, but the report is not
    a prefix of the one made without the flag: its witnesses can differ.
    """
    check_patterns(patterns)
    rows = host.rows
    coverages = []
    for pattern in patterns:
        witnesses: dict[int, dict[int, int]] = {}
        uncovered = []
        left = (1 << host.order) - 1  # host vertices no copy covers yet
        twins = set()  # rows and closed rows of the vertices of found copies
        for v in range(host.order):
            if v in witnesses or stop_at_gap and (rows[v] in twins or rows[v] | 1 << v in twins):
                continue
            role_map = find_induced_copy_containing(host, pattern, v, left)
            if role_map is None:
                uncovered.append(v)
                if stop_at_gap:
                    break
            else:
                for w in role_map.values():
                    if w not in witnesses:
                        witnesses[w] = role_map
                        left &= ~(1 << w)
                        if stop_at_gap:
                            twins.update((rows[w], rows[w] | 1 << w))
        coverages.append(PatternCoverage(to_graph6(pattern), witnesses, tuple(uncovered)))
        if stop_at_gap and uncovered:
            break
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
