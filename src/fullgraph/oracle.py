"""Exhaustive minimum-order search backed by isomorph-free graph enumeration.

Canonical labeling: iterated neighbour-count refinement plus individualization
with branch and bound; the certificate is the lexicographically least
adjacency-column sequence over the refinement-pruned orderings, and branches
whose partial certificate already exceeds the best are cut, as are target-cell
candidates equivalent to an already-tried one under an automorphism fixing the
current prefix pointwise.  A candidate whose row agrees with a kept one's
outside the two of them is its twin; swapping the two is such an
automorphism, so it is pruned with no copy search.  Kept candidates are
pairwise inequivalent, so which automorphism proves a pruning changes neither
the labeling nor the group the proved automorphisms generate.

Enumeration, by canonical augmentation (McKay 1998): each representative of
order n-1 is extended by one vertex over the least neighbourhood subset of
each orbit of its automorphism group, whose generators the pruning of one
canonical search of the parent proves.  A child survives only when its new
vertex lies in the automorphism orbit of the vertex the canonical labeling
puts last, so exactly one parent class and one subset orbit reconstruct each
child class.  That orbit lies in the last cell of the child's refined unit
partition, among the vertices of largest degree, so the new vertex must too:
only neighbourhoods that keep its degree largest are generated, and orbits
are taken through two half-width subset image tables per generator.  The
second refinement round, computed on the largest-degree vertices alone,
settles most children: the new vertex is dropped when another of them has
greater neighbour counts into the lower degree classes, and kept unsearched
when it alone has the greatest.  Only a tie is refined in full, from its
degree classes, and kept unsearched when every vertex of its last cell is the
new vertex, its twin, or its image under an automorphism found by one
anchored copy search: the cell then lies in the new vertex's orbit.  Only
when that proof fails does the child's canonical search decide.

Search: a vertex playing role q of a pattern H has deg_H(q) neighbours and
n(H)-1-deg_H(q) non-neighbours in the copy, so a host with a vertex whose
degree fits no role of some pattern cannot be full and is skipped before any
copy search.  A host that holds a copy of every pattern is then checked
vertex by vertex, and the check stops at the first vertex no copy covers:
the search reads only the verdict, never the rest of the report.

Cache: results are appended to ``f_exact.jsonl``, one JSON record a line,
each spelled by ``json.dumps(..., sort_keys=True)`` with the default
separators, so a record of a key starts with ``{"key": <the key as json.dumps
spells it>, "result": ``.  A lookup reads the file and searches its bytes
backwards for that head at the start of a line; it parses each such line
whole, checks its key, and returns the first well-formed record, the newest.
Nothing is kept between lookups.  A line that spells a key otherwise (a
repeated or escaped member name, unescaped non-ASCII) is no record of it.
The search re-checks every record it is handed (``_record_holds``); one that
fails is a miss.  Records hold no timing: equal searches append equal lines.

Scan memo: within one process, the outcome of each finished order scan (the
hosts examined and the first full host, if any) is kept in ``_SCANS``, keyed
by the sorted canonical patterns and the order.  It depends on nothing else,
so a search with other hints, or with the patterns reordered or relabeled,
reads the order from it and builds the same record; it is never written to
disk.
"""

from __future__ import annotations

import json
import os
import struct
from functools import cache, lru_cache
from pathlib import Path
from typing import Iterator

from .graphs import (Graph, Graph6Error, _FrozenRecord, _trusted_graph, check_patterns, from_graph6,
                     relabeled, to_graph6)
from .verifier import extend_partial_map, has_induced_copy, is_full

CANONICAL_ORDER_CAP = 16
ENUMERATION_ORDER_CAP = 9


# -- canonical labeling -------------------------------------------------------


def _refine(rows: tuple[int, ...], partition: list[list[int]], splitters: list[list[int]]) -> list[list[int]]:
    """Split cells by neighbour counts into the cells until stable.

    Each round splits every cell by its counts into the round's cells, in
    sorted key order.  Keys hold only the counts that may differ within a
    cell: into ``splitters`` in the first round, then into the pieces of the
    cells just split, less the last piece of each, whose count follows.  A
    key packs its counts, each below len(rows), into fields of
    len(rows).bit_length() bits, first count highest, so keys sort as the
    tuples of their counts would.
    """
    width = len(rows).bit_length()
    while splitters:
        masks = []
        for cell in splitters:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        new: list[list[int]] = []
        splitters = []
        for cell in partition:
            if len(cell) == 1:
                new.append(cell)
                continue
            keyed: dict[int, list[int]] = {}
            for v in cell:
                r, key = rows[v], 0
                for m in masks:
                    key = key << width | (r & m).bit_count()
                keyed.setdefault(key, []).append(v)
            if len(keyed) == 1:
                new.append(cell)
            else:
                pieces = [keyed[key] for key in sorted(keyed)]
                new.extend(pieces)
                splitters.extend(pieces[:-1])
        partition = new
    return partition


def _canonical_search(
    g: Graph, gens: list | None = None, root: list[list[int]] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Return (labeling, certificate): labeling[i] is the old vertex at position i.

    Depth first over an explicit stack of (partition, splitters) entries,
    each refined when popped; a node's kept children are pushed in reverse,
    so they are searched in target-cell order.

    A target-cell candidate v is pruned when an automorphism fixing the
    prefix maps it to a kept candidate u.  When v and u are twins (their rows
    agree outside {u, v}) that automorphism is their transposition, and no
    copy search is made; otherwise ``extend_partial_map`` looks for one.
    Every automorphism proved by target-cell pruning is appended to ``gens``
    (if given) as a permutation tuple; together they generate Aut(g).
    ``root``, if given, is the refinement of the unit partition, already made.
    """
    n = g.order
    if n == 0:
        return (), ()
    rows = g.rows
    if root is None:
        root = _refine(rows, [list(range(n))], [list(range(n))])
    # every column is below 1 << n, so the first leaf replaces this bound
    best_cert: list[int] = [1 << n] * n
    best_lab: tuple[int, ...] = ()
    stack = [(root, [])]
    while stack:
        partition, splitters = stack.pop()
        partition = _refine(rows, partition, splitters)
        prefix: list[int] = []
        cert: list[int] = []
        prefix_mask = 0
        for cell in partition:
            if len(cell) > 1:
                break
            v, c = cell[0], 0
            for i, u in enumerate(prefix):
                c |= ((rows[v] >> u) & 1) << i
            cert.append(c)
            prefix.append(v)
            prefix_mask |= 1 << v
        if cert > best_cert[:len(cert)]:
            continue
        k = len(prefix)
        if k == n:
            if cert < best_cert:
                best_cert, best_lab = cert, tuple(prefix)
            continue
        target = partition[k]
        pins = {v: v for v in prefix}
        kept: list[int] = []
        for v in target:
            for u in kept:
                if not (rows[v] ^ rows[u]) & ~(1 << u | 1 << v):
                    # twins: swapping u and v is an automorphism fixing the prefix
                    if gens is not None:
                        swap = list(range(n))
                        swap[u], swap[v] = v, u
                        gens.append(tuple(swap))
                    break
                if (rows[v] & prefix_mask) == (rows[u] & prefix_mask):
                    pins[v] = u
                    if (found := extend_partial_map(g, g, pins)) is not None:
                        if gens is not None:
                            gens.append(tuple(map(found.__getitem__, range(n))))
                        break
            else:
                kept.append(v)
            pins.pop(v, None)
        for v in reversed(kept):
            child = partition[:k] + [[v], [u for u in target if u != v]] + partition[k + 1:]
            stack.append((child, [[v]]))  # partition was equitable
    return best_lab, tuple(best_cert)


def canonical_form(g: Graph) -> bytes:
    """Canonical byte string: equal for two graphs exactly when they are isomorphic."""
    if g.order > CANONICAL_ORDER_CAP:
        raise ValueError(f"canonical labeling capped at order {CANONICAL_ORDER_CAP}")
    lab, _ = _canonical_search(g)
    return to_graph6(relabeled(g, lab)).encode("ascii")


# -- isomorph-free enumeration ------------------------------------------------

# (order, i) -> the children of the i-th representative of order - 1, packed as
# rows of one little-endian byte up to order 8, two from order 9; a stored level
# is their concatenation in parent order
_KIDS: dict[tuple[int, int], bytes] = {}
_ROWS = [struct.Struct(f"<{n}{'BH'[n > 8]}") for n in range(ENUMERATION_ORDER_CAP + 1)]


def _orbit(x: int, maps: list) -> set[int]:
    """Orbit of x under the group generated by ``maps``, each indexed as x -> image."""
    seen, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for m in maps:
            if m[y] not in seen:
                seen.add(m[y])
                stack.append(m[y])
    return seen


def _subset_images(p: tuple[int, ...], base: int, width: int) -> list[int]:
    """Image under p of every subset of the vertices base..base+width-1."""
    img = [0] * (1 << width)
    for s in range(1, 1 << width):
        low = s & -s
        img[s] = img[s ^ low] | 1 << p[base + low.bit_length() - 1]
    return img


@cache
def _set_bits() -> tuple[tuple[int, ...], ...]:
    """The set bits of every mask of up to ENUMERATION_ORDER_CAP bits, ascending; built on first use."""
    bits: list[tuple[int, ...]] = [()]
    for v in range(ENUMERATION_ORDER_CAP):
        bits += [b + (v,) for b in bits]
    return tuple(bits)


def _children(rows: tuple[int, ...], z: int) -> Iterator[bytes]:
    """Packed accepted one-vertex extensions of a parent representative's rows (z = its order).

    Tries the least subset of each Aut(parent) orbit as z's neighbourhood and
    accepts z when it is in the orbit of the canonically last vertex.  Cell
    order survives refinement and individualisation, so that orbit lies in the
    last cell of the child's refined unit partition, whose vertices have the
    largest degree.  When that cell is {z}, every leaf ends with z, so z is
    accepted unsearched.

    Only subsets that leave z a largest degree are tried: one scan of every
    subset in numeric order keeps those of size k at least the parent's
    largest degree whose vertices all have degree below k, so each orbit
    (which passes or fails whole) is met at its least member and walked
    there.  Refinement's first round sorts the child's vertices by degree;
    its second splits the last cell, the vertices T of degree k, by their
    neighbour counts into each lower degree class, in ascending degree order.
    Later rounds split cells in place, so z is rejected unrefined when
    another vertex of T has a greater key, and accepted when z is T or has
    the greatest key alone; keys pack the counts, each at most z, as
    ``_refine``'s do.  Only a tie, or a regular child, is refined in full,
    starting from its degree classes with every class but the last as
    splitters, which is what the first round makes of the unit partition.  A
    tie with z in the last cell L is then accepted unsearched when each u of
    L is z's twin or z's image under an automorphism ``extend_partial_map``
    finds with z pinned to u: L lies in z's orbit and holds the canonically
    last vertex.  At the first u that fails, the child's canonical search
    decides.
    """
    gens: list[tuple[int, ...]] = []
    _canonical_search(_trusted_graph(z, rows), gens)
    h = z // 2
    half = (1 << h) - 1
    tables = [(_subset_images(p, 0, h), _subset_images(p, h, z - h)) for p in gens]
    bits = _set_bits()
    width, zbit = z.bit_length(), 1 << z
    of_degree = [0] * (z + 2)  # of_degree[d + 1]: the parent vertices of degree d
    for v, r in enumerate(rows):
        of_degree[r.bit_count() + 1] |= 1 << v
    top = max(map(int.bit_count, rows))
    tops = of_degree[top + 1]  # the vertices a subset of size top may not hold; larger ones may
    covered: set[int] = set()
    for subset in range(1 << z):
        k = subset.bit_count()
        if k < top or k == top and subset & tops or subset in covered:
            continue
        # the subset's orbit, through each generator's two half tables
        covered.add(subset)
        stack = [subset]
        while stack:
            s = stack.pop()
            for lo, hi in tables:
                if (image := lo[s & half] | hi[s >> h]) not in covered:
                    covered.add(image)
                    stack.append(image)
        # the child's degree classes: of_degree[j + 1] outside the subset, of_degree[j] inside
        if tied := of_degree[k + 1] & ~subset | of_degree[k] & subset:
            masks, mine = [], 0
            for j in range(k):
                if m := of_degree[j + 1] & ~subset | of_degree[j] & subset:
                    masks.append(m)
                    mine = mine << width | (subset & m).bit_count()
            rival = 0
            for v in bits[tied]:
                r, key = rows[v], 0
                for m in masks:
                    key = key << width | (r & m).bit_count()
                if key > rival:
                    rival = key
            if rival > mine:
                continue
        grown = [*rows, subset]
        for v in bits[subset]:
            grown[v] |= zbit
        child_rows = tuple(grown)
        if tied and rival == mine:  # a tie, or no lower degree class
            # the degree classes are the first round's refinement of the unit partition
            classes = [list(bits[m]) for m in masks]
            classes.append(list(bits[tied | zbit]))
            root = _refine(child_rows, classes, classes[:-1])
            if z not in root[-1]:
                continue
            child = _trusted_graph(z + 1, child_rows)
            # kept unlabeled when the last cell, which holds the canonically last vertex, lies in z's orbit
            if not all(not (child_rows[u] ^ subset) & ~(1 << u | zbit)
                       or extend_partial_map(child, child, {z: u}) is not None for u in root[-1] if u != z):
                child_gens: list[tuple[int, ...]] = []
                lab, _ = _canonical_search(child, child_gens, root)
                if z not in _orbit(lab[-1], child_gens):
                    continue
        yield _ROWS[z + 1].pack(*child_rows)


def _level(order: int) -> Iterator[tuple[int, ...]]:
    """Rows of every representative of ``order``, extending each parent once, on first read."""
    if order == 1:
        yield (0,)
        return
    for i, parent in enumerate(_level(order - 1)):
        # two threads racing on one parent store equal bytes, so no lock is needed
        if (kids := _KIDS.get((order, i))) is None:
            kids = _KIDS[order, i] = b"".join(_children(parent, order - 1))
        yield from _ROWS[order].iter_unpack(kids)


def enumerate_graphs(order: int) -> Iterator[Graph]:
    """One representative per isomorphism class, in a fixed deterministic order.

    Every order streams parent by parent: a consumer that stops early (the
    minimum search, typically) builds only the part of the level it read, and
    no part is built twice in a process.
    """
    if not 1 <= order <= ENUMERATION_ORDER_CAP:
        raise ValueError(f"enumeration supports orders 1..{ENUMERATION_ORDER_CAP}")
    for rows in _level(order):
        yield _trusted_graph(order, rows)


# -- exact minimum search -----------------------------------------------------

# (sorted canonical graph6 of the patterns, order) -> (hosts examined, graph6 of
# the first full host or None), stored when that order's scan has finished
_SCANS: dict[tuple[tuple[str, ...], int], tuple[int, str | None]] = {}


class SearchResult(_FrozenRecord):
    __slots__ = ("patterns", "f", "witness", "exhausted_orders", "examined", "exhaustive", "note")

    def __init__(
        self,
        patterns: tuple[str, ...],          # canonical graph6 of each pattern, sorted
        f: int | None,
        witness: str | None,                # graph6 of a minimum-order example
        exhausted_orders: tuple[int, ...],  # orders fully scanned without a hit
        examined: dict[int, int],           # order -> graphs examined
        exhaustive: bool,
        note: str = "",
    ):
        self._set(patterns, f, witness, exhausted_orders, examined, exhaustive, note)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "patterns": list(self.patterns),
                "exhausted_orders": list(self.exhausted_orders),
                "examined": {str(k): v for k, v in sorted(self.examined.items())}}

    @classmethod
    def from_dict(cls, data: dict) -> "SearchResult":
        return cls(patterns=tuple(data["patterns"]), f=data["f"], witness=data["witness"],
                   exhausted_orders=tuple(data["exhausted_orders"]),
                   examined={int(k): v for k, v in data["examined"].items()},
                   exhaustive=data["exhaustive"], note=data.get("note", ""))


def resolve_cache_dir(explicit: str | Path | None = None) -> Path:
    """Cache directory: explicit argument, then FULLGRAPH_CACHE, then a user default; "" counts as unset."""
    if explicit:
        return Path(explicit)
    env = os.environ.get("FULLGRAPH_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "fullgraph"


def _cache_file(cache_dir: Path) -> Path:
    return cache_dir / "f_exact.jsonl"


def _cache_lookup(cache_dir: Path, key: str) -> SearchResult | None:
    try:
        data = _cache_file(cache_dir).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        return None
    # the head holds one '{"', at its start, so two of its hits never overlap
    head = ('{"key": ' + json.dumps(key) + ', "result": ').encode()
    end = len(data)
    while (start := data.rfind(head, 0, end)) >= 0:
        end = start
        if start and data[start - 1] != ord("\n"):
            continue
        stop = data.find(b"\n", start)
        try:
            record = json.loads(data[start:stop if stop >= 0 else None].decode())
            if record["key"] == key:
                return SearchResult.from_dict(record["result"])
        except (ValueError, KeyError, TypeError, AttributeError):
            continue
    return None


def _cache_store(cache_dir: Path, key: str, result: SearchResult) -> None:
    line = json.dumps({"key": key, "result": result.to_dict()}, sort_keys=True) + "\n"
    # one write(2) to an O_APPEND descriptor, so concurrent writers cannot
    # interleave parts of their records
    fd = os.open(_cache_file(cache_dir), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _record_holds(result: SearchResult, patterns: list[Graph], canon: tuple, lo: int, hi: int) -> bool:
    """Whether a cached result is what the search of ``canon`` over lo..hi returns (see ``f_exact``)."""
    f, last = result.f, min(hi, ENUMERATION_ORDER_CAP)
    if f is not None or result.witness is not None:
        try:
            g = from_graph6(result.witness)
        except (Graph6Error, AttributeError):  # malformed, or not a string
            return False
        if not (g.order == f and lo <= f <= hi and is_full(g, patterns, stop_at_gap=True).verdict):
            return False
        last = g.order
    scanned = list(range(lo, last + 1))
    return (result.patterns == canon
            and list(result.exhausted_orders) == (scanned if f is None else scanned[:-1])
            and sorted(result.examined) == scanned
            and result.exhaustive == (f is not None or hi <= ENUMERATION_ORDER_CAP))


def _degree_window(pattern: Graph, n: int) -> int:
    """Bitmask of the degrees an order-n host vertex may have inside a copy of ``pattern``.

    Playing role q takes deg(q) neighbours and order - 1 - deg(q)
    non-neighbours, so the window is the union of [deg(q), n - order + deg(q)].
    """
    span = (1 << max(0, n - pattern.order + 1)) - 1
    mask = 0
    for r in pattern.rows:
        mask |= span << r.bit_count()
    return mask


@lru_cache(maxsize=1024)
def _pattern_form(order: int, rows: tuple[int, ...]) -> str:
    """Canonical graph6 of a pattern; calls repeat the same few small patterns."""
    return canonical_form(_trusted_graph(order, rows)).decode("ascii")


def f_exact(
    patterns: list[Graph],
    lower_hint: int | None = None,
    upper_hint: int | None = None,
    cache_dir: str | Path | None = None,
) -> SearchResult:
    """Least order of a graph whose every vertex lies in an induced copy of each pattern.

    Scans orders from max(lower_hint, largest pattern order) upward through
    isomorphism-class representatives.  A host with a vertex outside some
    pattern's degree window (``_degree_window``) cannot be full and is
    skipped unsearched; so are hosts lacking even one copy of some pattern.
    Skipped hosts still count in ``examined``.  The others are checked by
    ``is_full`` with ``stop_at_gap``, since only the verdict is read.  The
    witness is the first full host in enumeration order, and ``examined`` at
    f is its 1-based position there.  Orders above 9 cannot be enumerated: a
    search asked to go beyond returns a non-exhaustive result rather than a
    certificate.  Each order is scanned once a process: its count and
    witness are kept in ``_SCANS`` when its scan finishes, so a scan that
    raises keeps nothing, and a later search of the same patterns reads
    them there.

    A cached record is returned only when it is what this search returns:
    its patterns are the canonical forms; its witness is a full host of order
    f within lo..hi, or f and the witness are both null; it examined every
    order from lo to f, or to min(hi, 9) when f is null, and exhausted all but
    f; and it is exhaustive unless f is null and hi is above 9.  Any other
    record is a miss, and the search appends a fresh one.
    """
    check_patterns(patterns)
    hi = ENUMERATION_ORDER_CAP if upper_hint is None else upper_hint
    lo, origin = max(p.order for p in patterns), "the largest pattern order"
    if lower_hint is not None and lower_hint > lo:
        lo, origin = lower_hint, "the lower hint"
    if lo > hi:
        raise ValueError(f"search would start at {lo}, {origin}, but stop at {hi}")

    canon = tuple(sorted(_pattern_form(p.order, p.rows) for p in patterns))
    # version 3: version-2 records hold the least hit of the first 512-host block
    # as witness, and older ones an uncorrected note; neither is ever hit
    key = json.dumps({"patterns": list(canon), "lo": lo, "hi": hi, "version": 3}, sort_keys=True)
    cdir = resolve_cache_dir(cache_dir)
    # made before the scan, so a directory that cannot be made costs no search
    cdir.mkdir(parents=True, exist_ok=True)
    cached = _cache_lookup(cdir, key)
    if cached is not None and _record_holds(cached, patterns, canon, lo, hi):
        return cached
    # opened for appending before the scan too, so a file that cannot be written costs no search
    os.close(os.open(_cache_file(cdir), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666))

    examined: dict[int, int] = {}
    exhausted: list[int] = []
    f_value: int | None = None
    witness: str | None = None
    for order in range(lo, min(hi, ENUMERATION_ORDER_CAP) + 1):
        if (scan := _SCANS.get((canon, order))) is None:
            window = -1
            for p in patterns:
                window &= _degree_window(p, order)
            allowed = {d for d in range(order) if window >> d & 1}
            for count, g in enumerate(enumerate_graphs(order), 1):
                if (allowed.issuperset(map(int.bit_count, g.rows))
                        and all(has_induced_copy(g, p) for p in patterns)
                        and is_full(g, patterns, stop_at_gap=True).verdict):
                    witness = to_graph6(g)
                    break
            # two threads racing on one order store equal tuples, so no lock is needed
            scan = _SCANS[canon, order] = (count, witness)
        examined[order], witness = scan
        if witness is not None:
            f_value = order
            break
        exhausted.append(order)

    exhaustive, note = True, ""
    if f_value is None and hi > ENUMERATION_ORDER_CAP:
        exhaustive = False
        note = (f"orders {max(lo, ENUMERATION_ORDER_CAP + 1)}..{hi} not examined: "
                f"enumeration is capped at order {ENUMERATION_ORDER_CAP}")
    elif f_value is None:
        note = f"no qualifying graph up to order {hi}"

    result = SearchResult(
        patterns=canon,
        f=f_value,
        witness=witness,
        exhausted_orders=tuple(exhausted),
        examined=examined,
        exhaustive=exhaustive,
        note=note,
    )
    _cache_store(cdir, key, result)
    return result
