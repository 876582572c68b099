"""Builders for graphs in which every vertex lies in induced copies of patterns.

Each builder returns ``(graph, recipe)`` where the recipe records the
construction family, its parameters, and the order the construction
promises.  Builders are deterministic: identical inputs produce
bit-identical graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import bounds
from .bounds import InternalInvariantError
from .designs import ResolvableDesign, validate_design
from .graphs import (
    Graph,
    alpha_with_vertex,
    complete_bipartite,
    duplicate_vertex,
    induced_subgraph,
    min_degree,
    to_graph6,
)


@dataclass(frozen=True)
class ConstructionRecipe:
    theorem_tag: str
    parameters: dict
    claimed_order: int

    def to_dict(self) -> dict:
        return {
            "theorem_tag": self.theorem_tag,
            "parameters": self.parameters,
            "claimed_order": self.claimed_order,
        }


class _EdgeLedger:
    """Pairwise edge decisions with conflict detection.

    Every rule states both the edges and the non-edges it needs; a pair
    claimed twice must be claimed identically.
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

    def build(self, order: int) -> Graph:
        return Graph.from_edges(order, [pair for pair, flag in self.decisions.items() if flag])


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
    Order: twice the sum of (pattern order - 1).
    """
    if not patterns:
        raise ValueError("at least one pattern is required")
    for i, p in enumerate(patterns):
        if p.order < 2:
            raise ValueError(f"pattern {i} has order {p.order}; single-vertex patterns "
                             "contribute an empty block and are not supported")
    k = len(patterns)
    reduced = []      # per pattern: (block graph, image of N(u) after deletion)
    removed = []
    for p in patterns:
        u = _min_degree_vertex(p)
        keep = [v for v in range(p.order) if v != u]
        block = induced_subgraph(p, keep)
        nbrs = tuple(i for i, v in enumerate(keep) if p.adjacent(u, v))
        reduced.append((block, nbrs))
        removed.append(u)

    starts = []
    rows_order = 0
    blocks = []
    for r in range(2 * k):
        block, nbrs = reduced[r % k]
        starts.append(rows_order)
        blocks.append((block, nbrs))
        rows_order += block.order

    edges = []
    for r in range(2 * k):
        block, _ = blocks[r]
        start = starts[r]
        edges.extend((start + a, start + b) for a, b in block.edges())
    span = range(1, k) if k >= 2 else range(1, 2)
    for r in range(2 * k):
        block, _ = blocks[r]
        for j in span:
            t = (r + j) % (2 * k)
            _, tn = blocks[t]
            edges.extend(
                (starts[r] + a, starts[t] + b)
                for a in range(block.order)
                for b in tn
            )
    g = Graph.from_edges(rows_order, set((min(e), max(e)) for e in edges))

    claimed = 2 * sum(p.order - 1 for p in patterns)
    if g.order != claimed:
        raise InternalInvariantError(f"built order {g.order} != claimed {claimed}")
    recipe = ConstructionRecipe(
        "cyclic",
        {
            "patterns": [to_graph6(p) for p in patterns],
            "removed_vertices": removed,
            "block_starts": starts,
            "block_orders": [b.order for b, _ in blocks],
        },
        claimed,
    )
    return g, recipe


def design_full(patterns: list[Graph], design: ResolvableDesign) -> tuple[Graph, ConstructionRecipe]:
    """Overlay one pattern per parallel class of a resolvable design.

    Patterns are padded to the block size by repeatedly duplicating vertex 0
    as a false twin, then written onto every block of their class (block
    points ascending against pattern vertices ascending).  Distinct blocks
    share at most one point, so no vertex pair is written twice.
    """
    if not patterns:
        raise ValueError("at least one pattern is required")
    problems = validate_design(design)
    if problems:
        raise ValueError("invalid design: " + "; ".join(problems[:3]))
    t = len(patterns)
    if t > len(design.classes):
        raise ValueError(f"{t} patterns but the design has only {len(design.classes)} classes")
    padded = []
    for i, p in enumerate(patterns):
        if p.order < 1:
            raise ValueError(f"pattern {i} is empty")
        if p.order > design.block_size:
            raise ValueError(f"pattern {i} has order {p.order} > block size {design.block_size}")
        q = p
        while q.order < design.block_size:
            q = duplicate_vertex(q, 0)
        padded.append(q)

    decided: set[tuple[int, int]] = set()
    edges = []
    for i in range(t):
        pat = padded[i]
        for block in design.classes[i]:
            pts = sorted(block)
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    pair = (pts[a], pts[b])
                    if pair in decided:
                        raise InternalInvariantError(f"pair {pair} written by two blocks")
                    decided.add(pair)
                    if pat.adjacent(a, b):
                        edges.append(pair)
    g = Graph.from_edges(design.point_count, edges)
    recipe = ConstructionRecipe(
        "design",
        {
            "patterns": [to_graph6(p) for p in patterns],
            "padded_patterns": [to_graph6(p) for p in padded],
            "point_count": design.point_count,
            "block_size": design.block_size,
            "classes_used": t,
        },
        design.point_count,
    )
    return g, recipe


def h_vs_empty(h: Graph, n: int, r: int | None = None) -> tuple[Graph, ConstructionRecipe]:
    """Pattern h (min degree >= 1) together with an independent set of order n.

    r blocks each carry a copy of the neighbourhood of a minimum-degree
    vertex x; block i is completely joined to its own part W_i of a large
    independent set, so each W_i vertex can play x.  The remaining roles of
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
        raise ValueError("pattern has min degree 0; use delta_zero_construction instead")
    m = h.order
    m_prime = m - delta - 1
    if r is None:
        r = bounds.default_ring_count(delta, m_prime, n)
    else:
        if r < max(3 * m_prime, 2):
            raise ValueError(f"r={r} below required {max(3 * m_prime, 2)} (= max(3*m', 2))")
        if n < r:
            # same constraint the default r enforces: the last independent-set
            # part holds ceil(n/(r-1)) - 1 vertices and must stay nonempty
            raise ValueError(f"n={n} too small for the independent-set split over {r} parts")

    x = _min_degree_vertex(h)
    nbrs = sorted(v for v in range(h.order) if h.adjacent(x, v))
    outer = sorted(v for v in range(h.order) if v != x and not h.adjacent(x, v))
    s = bounds.ceil_div(n, r - 1)

    u_start = [i * delta for i in range(r)]
    w_begin = r * delta
    q2, rem = divmod(n, r - 1)
    w_sizes = [q2 + 1] * rem + [q2] * (r - 1 - rem) + [s - 1]
    w_start = []
    pos = w_begin
    for size in w_sizes:
        w_start.append(pos)
        pos += size
    total = pos
    claimed = n - 1 + delta * r + s
    if total != claimed:
        raise InternalInvariantError(f"layout order {total} != claimed {claimed}")

    ledger = _EdgeLedger()
    for i in range(r):
        base = u_start[i]
        for a in range(delta):
            for b in range(a + 1, delta):
                ledger.require(base + a, base + b, h.adjacent(nbrs[a], nbrs[b]))
        for w in range(w_start[i], w_start[i] + w_sizes[i]):
            for a in range(delta):
                ledger.require(base + a, w, True)

    t_blocks: list[list[int]] = []
    if m_prime > 0:
        for j in range(3):
            t_blocks.append([u_start[i] for i in range(j * m_prime, (j + 1) * m_prime)])
        for j in range(3):
            members = t_blocks[j]
            for a in range(m_prime):
                for b in range(a + 1, m_prime):
                    ledger.require(members[a], members[b], h.adjacent(outer[a], outer[b]))
        for i in range(r):
            if i < 3 * m_prime:
                target = t_blocks[(i // m_prime + 1) % 3]
            else:
                target = t_blocks[0]
            base = u_start[i]
            for a in range(delta):
                for b in range(m_prime):
                    ledger.require(base + a, target[b], h.adjacent(nbrs[a], outer[b]))

    g = ledger.build(total)
    recipe = ConstructionRecipe(
        "h_vs_empty",
        {
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
        },
        claimed,
    )
    return g, recipe


def star_full(m: int, n: int, k: int | None = None) -> tuple[Graph, ConstructionRecipe]:
    """Star of order m and independent set of order n, both through every vertex.

    A complete bipartite core X of r vertices (every core vertex is a star
    center with the opposite side as leaves) plus an independent set Y of
    n - 1 + k vertices; each core vertex is joined to k Y-vertices drawn
    round-robin from the pool on its own side, which keeps the whole graph
    bipartite and leaves no Y vertex isolated.  Order: n - 1 + k + r.
    """
    if m < 2:
        raise ValueError("star order must be at least 2")
    if n < m:
        raise ValueError("requires n >= m; for n < m use complete_bipartite_full")
    if k is None:
        k = bounds.star_upper(m, n).k
    if not 1 <= k <= n - 1:
        raise ValueError(f"infeasible k={k}: requires 1 <= k <= n-1 = {n - 1}")
    r = 1 + max(bounds.ceil_div(n - 1, k), 2 * m - 3 - 2 * k)
    c_left = (r + 1) // 2
    c_right = r // 2
    y_size = n - 1 + k

    y_left = max(k, bounds.ceil_div(y_size * c_left, r))
    y_left = min(y_left, c_left * k, y_size - k)
    y_right = y_size - y_left
    if not (k <= y_left <= c_left * k and k <= y_right <= c_right * k):
        raise ValueError(f"infeasible k={k}: cannot split {y_size} independent vertices "
                         f"over sides of {c_left} and {c_right} centers")

    left = list(range(c_left))
    right = list(range(c_left, r))
    y_pool_left = list(range(r, r + y_left))
    y_pool_right = list(range(r + y_left, r + y_size))

    edges = [(a, b) for a in left for b in right]
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
            edges.extend((xv, y) for y in mine)

    total = r + y_size
    g = Graph.from_edges(total, edges)
    touched = set()
    for ys in schedule.values():
        touched.update(ys)
    if len(touched) != y_size:
        raise InternalInvariantError("round-robin left an independent vertex isolated")
    part_a = set(left) | set(y_pool_right)
    for u, v in g.edges():
        if (u in part_a) == (v in part_a):
            raise InternalInvariantError(f"edge ({u}, {v}) breaks the bipartition")

    claimed = n - 1 + k + r
    if g.order != claimed:
        raise InternalInvariantError(f"built order {g.order} != claimed {claimed}")
    recipe = ConstructionRecipe(
        "star",
        {
            "m": m,
            "n": n,
            "k": k,
            "r": r,
            "left_centers": len(left),
            "right_centers": len(right),
            "y_left": y_left,
            "y_right": y_right,
            "schedule": {str(xv): ys for xv, ys in sorted(schedule.items())},
        },
        claimed,
    )
    return g, recipe


def complete_bipartite_full(m: int, n: int) -> tuple[Graph, ConstructionRecipe]:
    """For n < m: parts of n and m-1 vertices, every pair joined.

    The n-side is the independent n-set; every m-1-side vertex is a leaf of
    a star centered across, and every n-side vertex is such a center.
    """
    if not 2 <= n < m:
        raise ValueError("requires 2 <= n < m")
    g = complete_bipartite(n, m - 1)
    recipe = ConstructionRecipe("complete_bipartite", {"m": m, "n": n}, n + m - 1)
    if g.order != recipe.claimed_order:
        raise InternalInvariantError("order mismatch")
    return g, recipe


def delta_zero_construction(h: Graph, n: int) -> tuple[Graph, ConstructionRecipe]:
    """Pattern with an isolated vertex versus n independent vertices: add n - s isolates.

    s is the smallest independent set forced through a single vertex of h;
    the result has order n - s + order(h), which is optimal.
    """
    if h.order == 0:
        raise ValueError("pattern must be nonempty")
    if min_degree(h) != 0:
        raise ValueError("pattern must have an isolated vertex (min degree 0)")
    s = min(alpha_with_vertex(h, v) for v in range(h.order))
    if n < s:
        raise ValueError(f"requires n >= s = {s}, got n = {n}")
    rows = list(h.rows) + [0] * (n - s)
    g = Graph(h.order + n - s, tuple(rows))
    recipe = ConstructionRecipe(
        "delta_zero",
        {"pattern": to_graph6(h), "n": n, "s": s, "isolated_added": n - s},
        h.order + n - s,
    )
    return g, recipe
