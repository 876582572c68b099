"""Builders for graphs in which every vertex lies in induced copies of patterns.

Each builder returns ``(graph, recipe)`` where the recipe records the
construction family, its parameters, and the order the construction
promises.  Builders write their vertex pairs through one ``_EdgeLedger``
(``star_full`` for n < m calls ``graphs.complete_bipartite``), take
the promised order from the matching ``bounds`` function (the design
overlay promises its design's point count), and return through
``_finish``, which checks the built order against that promise.
Builders are deterministic: identical inputs produce bit-identical
graphs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from . import bounds
from .designs import ResolvableDesign, validate_design
from .graphs import (Graph, InternalInvariantError, _FrozenRecord, check_patterns, complete_bipartite,
                     duplicate_vertex, min_degree, to_graph6)


class ConstructionRecipe(_FrozenRecord):
    __slots__ = ("theorem_tag", "parameters", "claimed_order")

    def __init__(self, theorem_tag: str, parameters: dict, claimed_order: int):
        self._set(theorem_tag, parameters, claimed_order)


class _EdgeLedger:
    """Pairwise edge decisions with conflict detection.

    Every rule states the pairs it needs; a pair claimed twice must be
    claimed identically.  Pairs never claimed are non-edges.
    """

    def __init__(self):
        self.decisions: dict[tuple[int, int], bool] = {}

    def require(self, u: int, v: int, flag: bool) -> None:
        if u == v:
            raise InternalInvariantError(f"rule touches the pair ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        prior = self.decisions.get(key)
        if prior is None:
            self.decisions[key] = flag
        elif prior != flag:
            raise InternalInvariantError(f"conflicting requirements for pair {key}")

    def place(self, pattern: Graph, roles: Sequence[int], at: Sequence[int]) -> None:
        """Claim every pair (at[i], at[j]) as an edge exactly when (roles[i], roles[j]) is one."""
        for i, j in combinations(range(len(at)), 2):
            self.require(at[i], at[j], pattern.adjacent(roles[i], roles[j]))

    def build(self, order: int) -> Graph:
        return Graph.from_edges(order, [pair for pair, flag in self.decisions.items() if flag])


def _finish(g: Graph, tag: str, parameters: dict, claimed: int) -> tuple[Graph, ConstructionRecipe]:
    """Check the built order against the order its bound claims, and record the recipe."""
    if g.order != claimed:
        raise InternalInvariantError(f"{tag}: built order {g.order} != claimed {claimed}")
    return g, ConstructionRecipe(tag, parameters, claimed)


def _min_degree_vertex(g: Graph) -> int:
    d = min_degree(g)
    return next(v for v in range(g.order) if g.degree(v) == d)


def cyclic_full(patterns: list[Graph]) -> tuple[Graph, ConstructionRecipe]:
    """Ring of 2k blocks, one pattern-minus-a-vertex per block.

    Block r carries pattern r mod k with a minimum-degree vertex u removed;
    every vertex of block r is joined to the images of N(u) in the next
    k-1 blocks (to the next block alone when k = 1).  Any vertex then
    completes each missing pattern using a whole later block, and its own
    pattern using its block plus one vertex from the previous block.
    Order: twice the sum of (pattern order - 1).  Every vertex lies in a
    copy of K1, so the ring carries only the patterns of order >= 2, and
    the recipe lists those.
    """
    check_patterns(patterns)
    patterns = [p for p in patterns if p.order > 1]
    if not patterns:
        raise ValueError("every pattern has order 1; the ring needs a pattern of order >= 2")
    claimed = bounds.cyclic_upper(patterns)
    k = len(patterns)
    removed = [_min_degree_vertex(p) for p in patterns]
    blocks = []  # per ring block: (pattern, kept vertices, positions of N(u) among them)
    for p, u in zip(patterns, removed):
        keep = [v for v in range(p.order) if v != u]
        blocks.append((p, keep, [i for i, v in enumerate(keep) if p.adjacent(u, v)]))
    blocks *= 2
    starts = []
    total = 0
    for _, keep, _ in blocks:
        starts.append(total)
        total += len(keep)

    ledger = _EdgeLedger()
    for (p, keep, _), start in zip(blocks, starts):
        ledger.place(p, keep, range(start, start + len(keep)))
    # cross pairs claim edges only: with k = 1 the two blocks reach each
    # other, and the graph is the union of both edge sets
    for r, (_, keep, _) in enumerate(blocks):
        for j in range(1, max(k, 2)):
            t = (r + j) % (2 * k)
            for a in range(len(keep)):
                for b in blocks[t][2]:
                    ledger.require(starts[r] + a, starts[t] + b, True)

    parameters = {
        "patterns": [to_graph6(p) for p in patterns],
        "removed_vertices": removed,
        "block_starts": starts,
        "block_orders": [len(keep) for _, keep, _ in blocks],
    }
    return _finish(ledger.build(total), "cyclic", parameters, claimed)


def design_full(patterns: list[Graph], design: ResolvableDesign) -> tuple[Graph, ConstructionRecipe]:
    """Overlay one pattern per parallel class of a resolvable design.

    Patterns are padded to the block size by repeatedly duplicating vertex 0
    as a false twin, then written onto every block of their class (block
    points ascending against pattern vertices ascending).  The design is
    validated first, so every point pair lies in exactly one block.
    """
    check_patterns(patterns)
    problems = validate_design(design)
    if problems:
        raise ValueError("invalid design: " + "; ".join(problems[:3]))
    t = len(patterns)
    if t > len(design.classes):
        raise ValueError(f"{t} patterns but the design has only {len(design.classes)} classes")
    padded = []
    for i, p in enumerate(patterns):
        if p.order > design.block_size:
            raise ValueError(f"pattern {i} has order {p.order} > block size {design.block_size}")
        q = p
        while q.order < design.block_size:
            q = duplicate_vertex(q, 0)
        padded.append(q)

    ledger = _EdgeLedger()
    for pat, cls in zip(padded, design.classes):
        for block in cls:
            ledger.place(pat, range(design.block_size), sorted(block))
    parameters = {
        "patterns": [to_graph6(p) for p in patterns],
        "padded_patterns": [to_graph6(p) for p in padded],
        "point_count": design.point_count,
        "block_size": design.block_size,
        "classes_used": t,
    }
    return _finish(ledger.build(design.point_count), "design", parameters, design.point_count)


def h_vs_empty(h: Graph, n: int, r: int | None = None) -> tuple[Graph, ConstructionRecipe]:
    """Pattern h together with an independent set of order n.

    If h has an isolated vertex (min degree 0), the host is h plus n - s
    isolated vertices (recipe tag ``delta_zero``), where s is the smallest
    independent set forced through a single vertex of h.  Its order
    n - s + order(h) is optimal, and it takes no r.

    Otherwise, with n = 1 and no r, the host is h itself (recipe tag
    ``single_pattern``): each of its vertices lies in h and in a copy of
    E1, and no smaller host holds h.

    Otherwise r blocks each carry a copy of the neighbourhood of a
    minimum-degree vertex x; block i is completely joined to its own part
    W_i of a large independent set, so each W_i vertex can play x.  The remaining roles of
    h (the vertices outside N[x]) are played by three transversals T_1,
    T_2, T_3 of block representatives, wired so every block sees a whole
    transversal it does not meet.  Order: n - 1 + delta*r + ceil(n/(r-1)).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if h.order == 0:
        raise ValueError("pattern must be nonempty")
    delta = min_degree(h)
    if delta == 0:
        if r is not None:
            raise ValueError("r applies only to a pattern of min degree >= 1")
        claimed = bounds.delta_zero_exact(h, n)
        s = n + h.order - claimed
        ledger = _EdgeLedger()
        ledger.place(h, range(h.order), range(h.order))
        parameters = {"pattern": to_graph6(h), "n": n, "s": s, "isolated_added": n - s}
        return _finish(ledger.build(claimed), "delta_zero", parameters, claimed)
    if n == 1 and r is None:  # a copy: the pattern's own object would be checked as a self-map
        return _finish(Graph(h.order, h.rows), "single_pattern", {"pattern": to_graph6(h), "n": n}, h.order)
    m_prime = h.order - delta - 1
    r = bounds.default_ring_count(delta, m_prime, n, r)
    claimed = bounds.h_vs_empty_order(delta, n, r)

    x = _min_degree_vertex(h)
    nbrs = sorted(v for v in range(h.order) if h.adjacent(x, v))
    outer = sorted(v for v in range(h.order) if v != x and not h.adjacent(x, v))
    s = bounds.ceil_div(n, r - 1)

    u_start = [i * delta for i in range(r)]
    q2, rem = divmod(n, r - 1)
    w_sizes = [q2 + 1] * rem + [q2] * (r - 1 - rem) + [s - 1]
    w_start = []
    pos = r * delta
    for size in w_sizes:
        w_start.append(pos)
        pos += size

    ledger = _EdgeLedger()
    for i in range(r):
        base = u_start[i]
        ledger.place(h, nbrs, range(base, base + delta))
        for w in range(w_start[i], w_start[i] + w_sizes[i]):
            for a in range(delta):
                ledger.require(base + a, w, True)

    t_blocks: list[list[int]] = []
    if m_prime > 0:
        t_blocks = [u_start[j * m_prime:(j + 1) * m_prime] for j in range(3)]
        for members in t_blocks:
            ledger.place(h, outer, members)
        for i in range(r):
            if i < 3 * m_prime:
                target = t_blocks[(i // m_prime + 1) % 3]
            else:
                target = t_blocks[0]
            base = u_start[i]
            for a in range(delta):
                for b in range(m_prime):
                    ledger.require(base + a, target[b], h.adjacent(nbrs[a], outer[b]))

    parameters = {
        "pattern": to_graph6(h),
        "n": n,
        "delta": delta,
        "m_prime": m_prime,
        "x": x,
        "r": r,
        "s": s,
        "u_starts": u_start,
        "w_sizes": w_sizes,
        "t_blocks": t_blocks,
    }
    return _finish(ledger.build(pos), "h_vs_empty", parameters, claimed)


def star_full(m: int, n: int, k: int | None = None) -> tuple[Graph, ConstructionRecipe]:
    """Star of order m and independent set of order n, both through every vertex.

    For n < m the host is K_{n,m-1} (recipe tag ``complete_bipartite``):
    the n-side is the independent n-set, and each of its vertices is a star
    center with the whole m-1 side as leaves.  Its order n + m - 1 is
    optimal, and it takes no k.

    For n >= m, a complete bipartite core X of r vertices (every core
    vertex is a star center with the opposite side as leaves) plus an
    independent set Y of n - 1 + k vertices; each core vertex is joined to
    k Y-vertices drawn round-robin from the pool on its own side, which
    keeps the whole graph bipartite and leaves no Y vertex isolated.  Order: n - 1 + k + r.
    Only edges are claimed: the non-edges inside Y number about n^2 / 2.
    """
    if m < 2:
        raise ValueError("star order must be at least 2")
    if n < m:
        if k is not None:
            raise ValueError("k applies only when n >= m")
        claimed = bounds.star_exact(m, n)
        return _finish(complete_bipartite(n, m - 1), "complete_bipartite", {"m": m, "n": n}, claimed)
    if k is None:
        k = bounds.star_upper(m, n).k
    if not 1 <= k <= n - 1:
        raise ValueError(f"infeasible k={k}: requires 1 <= k <= n-1 = {n - 1}")
    r = 1 + max(bounds.ceil_div(n - 1, k), 2 * m - 3 - 2 * k)
    c_left = (r + 1) // 2
    y_size = n - 1 + k

    # r >= 2 and r * k >= y_size give k <= y_left <= c_left * k, k <= y_right <= (r - c_left) * k
    y_left = max(k, bounds.ceil_div(y_size * c_left, r))
    y_left = min(y_left, c_left * k, y_size - k)
    y_right = y_size - y_left

    left = list(range(c_left))
    right = list(range(c_left, r))
    y_pool_left = list(range(r, r + y_left))
    y_pool_right = list(range(r + y_left, r + y_size))

    ledger = _EdgeLedger()
    for a in left:
        for b in right:
            ledger.require(a, b, True)
    schedule: dict[int, list[int]] = {}
    for side, pool in ((left, y_pool_left), (right, y_pool_right)):
        ptr = 0
        for xv in side:
            mine = []
            for _ in range(k):
                mine.append(pool[ptr % len(pool)])
                ptr += 1
            if len(set(mine)) != k:
                raise InternalInvariantError(f"center {xv} received a repeated leaf")
            schedule[xv] = mine
            for y in mine:
                ledger.require(xv, y, True)

    g = ledger.build(r + y_size)
    touched = set()
    for ys in schedule.values():
        touched.update(ys)
    if len(touched) != y_size:
        raise InternalInvariantError("round-robin left an independent vertex isolated")
    part_a = set(left) | set(y_pool_right)
    for u, v in g.edges():
        if (u in part_a) == (v in part_a):
            raise InternalInvariantError(f"edge ({u}, {v}) breaks the bipartition")

    parameters = {
        "m": m,
        "n": n,
        "k": k,
        "r": r,
        "left_centers": len(left),
        "right_centers": len(right),
        "y_left": y_left,
        "y_right": y_right,
        "schedule": {str(xv): ys for xv, ys in sorted(schedule.items())},
    }
    return _finish(g, "star", parameters, bounds.star_order(m, n, k))
