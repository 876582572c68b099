"""Immutable bitset-backed simple graphs with graph6 interchange.

Adjacency is stored as one integer bitmask per vertex, so degree and
common-neighbourhood queries reduce to single bitwise operations.  All
operations return new graphs; nothing mutates in place.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class InternalInvariantError(RuntimeError):
    """A self-check failed: the package's own logic is at fault."""


class Graph6Error(ValueError):
    """Malformed graph6 text.  ``offset`` is the index of the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _plain(value):
    """``value`` with every record turned into a dict and every dict, list and tuple copied."""
    if isinstance(value, _Record):
        return value._as_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


class _Record:
    """A record whose fields are its ``__slots__``, in the order ``__init__`` takes them.

    A record equals one of its own class whose ``_key`` is equal, and it is
    shown field by field.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def _as_dict(self) -> dict:
        """Every field by name, sharing no dict, list or tuple with the record."""
        return {name: _plain(getattr(self, name)) for name in self.__slots__}


class _FrozenRecord(_Record):
    """A record whose fields cannot be assigned; it hashes by its ``_key``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._key())


class Graph(_FrozenRecord):
    """Undirected simple graph on vertices 0..order-1.

    ``rows`` is a tuple; ``rows[v]`` has bit u set exactly when {u, v} is an
    edge.  The matrix must be symmetric and loop-free; this is validated on
    construction.
    """

    __slots__ = ("order", "rows")

    def __init__(self, order: int, rows: tuple[int, ...]):
        self._set(order, rows)
        self.__post_init__()

    # named __post_init__ because perfbench/tracer.py wraps ``Graph.__post_init__``
    # to count validations; renamed, its graphs.graph_new metric reads nothing
    def __post_init__(self):
        n = self.order
        if n < 0:
            raise ValueError("order must be nonnegative")
        if not isinstance(self.rows, tuple):
            raise ValueError("rows must be a tuple")
        if len(self.rows) != n:
            raise ValueError("rows length must equal order")
        cols = [0] * n
        for v, row in enumerate(self.rows):
            if row < 0 or row >> n:
                raise ValueError(f"row {v} references vertices outside 0..{n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"loop at vertex {v}")
            w = row
            while w:
                u = (w & -w).bit_length() - 1
                cols[u] |= 1 << v
                w &= w - 1
        if tuple(cols) != self.rows:
            raise ValueError("adjacency is not symmetric")

    # -- queries ----------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        return bool((self.rows[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.order):
            w = self.rows[v] >> (v + 1) << (v + 1)
            while w:
                u = (w & -w).bit_length() - 1
                yield (v, u)
                w &= w - 1

    @classmethod
    def from_edges(cls, order: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * order
        for u, v in edges:
            if not (0 <= u < order and 0 <= v < order):
                raise ValueError(f"edge ({u}, {v}) outside 0..{order - 1}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(order, tuple(rows))


def check_patterns(patterns: list[Graph]) -> None:
    """Reject an empty pattern list and a pattern without vertices."""
    if not patterns:
        raise ValueError("at least one pattern is required")
    if any(p.order < 1 for p in patterns):
        raise ValueError("patterns must have at least one vertex")


_set_order, _set_rows = Graph.order.__set__, Graph.rows.__set__


def _trusted_graph(order: int, rows: tuple[int, ...]) -> Graph:
    """A Graph built without validation, for rows symmetric and loop-free by construction."""
    g = object.__new__(Graph)
    _set_order(g, order)
    _set_rows(g, rows)
    return g


# -- basic families --------------------------------------------------------


def empty(n: int) -> Graph:
    """Edgeless graph on n vertices."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be nonnegative")
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(m: int) -> Graph:
    """Star of order m: vertex 0 joined to the m-1 others."""
    if m < 2:
        raise ValueError("star needs at least 2 vertices")
    return Graph.from_edges(m, [(0, i) for i in range(1, m)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(*graphs: Graph) -> Graph:
    rows: list[int] = []
    shift = 0
    for g in graphs:
        rows.extend(r << shift for r in g.rows)
        shift += g.order
    return Graph(shift, tuple(rows))


# -- pure operations --------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(g.order, tuple((full ^ r) & ~(1 << v) for v, r in enumerate(g.rows)))


def duplicate_vertex(g: Graph, v: int) -> Graph:
    """Append a false twin of v: same open neighbourhood, not adjacent to v."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} outside 0..{g.order - 1}")
    n = g.order
    twin_row = g.rows[v]
    rows = [r | (((twin_row >> u) & 1) << n) for u, r in enumerate(g.rows)]
    rows.append(twin_row)
    return Graph(n + 1, tuple(rows))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabeled by ascending original index."""
    members = sorted(set(vertices))
    for v in members:
        if not 0 <= v < g.order:
            raise ValueError(f"vertex {v} outside 0..{g.order - 1}")
    pos = {v: i for i, v in enumerate(members)}
    rows = [0] * len(members)
    for v in members:
        w = g.rows[v]
        while w:
            u = (w & -w).bit_length() - 1
            if u in pos:
                rows[pos[v]] |= 1 << pos[u]
            w &= w - 1
    return Graph(len(members), tuple(rows))


def relabeled(g: Graph, labeling: Iterable[int]) -> Graph:
    """Relabel so that new vertex i is old vertex labeling[i]."""
    lab = list(labeling)
    if sorted(lab) != list(range(g.order)):
        raise ValueError("labeling must be a permutation of the vertices")
    pos = {v: i for i, v in enumerate(lab)}
    rows = [0] * g.order
    for i, v in enumerate(lab):
        w = g.rows[v]
        while w:
            u = (w & -w).bit_length() - 1
            rows[i] |= 1 << pos[u]
            w &= w - 1
    return Graph(g.order, tuple(rows))


def min_degree(g: Graph) -> int:
    if g.order == 0:
        raise ValueError("degree of the empty graph is undefined")
    return min(g.degrees())


def max_degree(g: Graph) -> int:
    if g.order == 0:
        raise ValueError("degree of the empty graph is undefined")
    return max(g.degrees())


# -- exact independence -----------------------------------------------------


def _independent_search(rows: tuple[int, ...], pool: int, target: int, prefer: int = 0) -> list[int] | None:
    """Independent set of at least ``target`` vertices inside the bitmask ``pool``, or None.

    Exact branch and bound on an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  Call len(chosen) + |pool| - target
    the slack.  A pool vertex with more pool neighbours than the slack lies
    in no set that reaches ``target`` (the degree rule for vertex cover,
    Buss & Goldsmith 1993), so one scan of the pool finds every such vertex
    and the search drops them all, then scans again; a drop lowers the slack
    by one and a degree by at most one, so a vertex once over stays over.
    Once none is left it branches on the vertex with the most neighbours
    left in the pool, taking it first and leaving it out second, and drops
    every branch that cannot reach ``target``.  A pool in which no vertex
    has two neighbours is settled without branching, so the set returned can
    be larger than ``target``; there any order of taking vertices gives a
    largest set, and the vertices in the bitmask ``prefer`` are taken first.
    """
    chosen: list[int] = []
    pending: list[tuple[int, int]] = []  # (pool, len(chosen)) of branches still to try
    p = pool
    while True:
        slack = len(chosen) + p.bit_count() - target
        if slack >= 0:
            if len(chosen) >= target:
                return chosen
            u, udeg, over = -1, -1, 0
            w = p
            while w:
                low = w & -w
                c = low.bit_length() - 1
                d = (rows[c] & p).bit_count()
                if d > slack:
                    over |= low
                elif d > udeg:
                    u, udeg = c, d
                w ^= low
            if over:
                p ^= over
                continue
            if udeg > 1:
                pending.append((p & ~(1 << u), len(chosen)))
                chosen.append(u)
                p &= ~(rows[u] | (1 << u))
                continue
            # isolated vertices and disjoint edges: one end of every edge
            # and every isolated vertex make a largest set
            for part in (prefer, -1):
                w = p & part
                while w:
                    c = (w & -w).bit_length() - 1
                    chosen.append(c)
                    p &= ~(rows[c] | (1 << c))
                    w &= p
            if len(chosen) >= target:
                return chosen
        if not pending:
            return None
        p, size = pending.pop()
        del chosen[size:]


def _max_independent_size(rows: tuple[int, ...], pool: int) -> int:
    """Size of a largest independent set inside the bitmask ``pool``."""
    best: list[int] = []
    while (found := _independent_search(rows, pool, len(best) + 1)) is not None:
        best = found
    return len(best)


def independence_number(g: Graph) -> int:
    return _max_independent_size(g.rows, (1 << g.order) - 1)


def alpha_with_vertex(g: Graph, v: int) -> int:
    """Largest independent set forced to contain v."""
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} outside 0..{g.order - 1}")
    pool = ((1 << g.order) - 1) & ~g.rows[v] & ~(1 << v)
    return 1 + _max_independent_size(g.rows, pool)


def independent_set_with(g: Graph, v: int, size: int, prefer: int = 0) -> list[int] | None:
    """Some independent set of exactly ``size`` vertices containing v, or None.

    Far faster than generic pattern matching when the target pattern has
    no edges.  Where the choice is free, vertices in the bitmask ``prefer``
    are taken first and kept first.
    """
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} outside 0..{g.order - 1}")
    if size < 1:
        raise ValueError("size must be positive")
    if size > g.order:
        return None
    pool = ((1 << g.order) - 1) & ~g.rows[v] & ~(1 << v)
    found = _independent_search(g.rows, pool, size - 1, prefer)
    if found is None:
        return None
    found.sort(key=lambda w: not (prefer >> w) & 1)
    return sorted([v] + found[: size - 1])


# -- structure detectors -----------------------------------------------------


def is_empty_graph(g: Graph) -> bool:
    return all(r == 0 for r in g.rows)


def is_complete_graph(g: Graph) -> bool:
    return all(r.bit_count() == g.order - 1 for r in g.rows)


def star_center(g: Graph) -> int | None:
    """Index of a star center if g is a star of order >= 2, else None."""
    if g.order < 2 or g.edge_count() != g.order - 1:
        return None
    for v in range(g.order):
        if g.degree(v) == g.order - 1:
            return v
    return None


# -- graph6 ------------------------------------------------------------------

_G6_MAX_ORDER = 258047  # largest order expressible with the three-byte size prefix


# each six-bit group, as a string of 0s and 1s, -> its graph6 character
_G6_CHAR = {format(x, "06b"): chr(63 + x) for x in range(64)}
_G6_BLOCK = 6 << 10  # bits converted at a time, so no whole bit string is built


def to_graph6(g: Graph) -> str:
    """graph6 of g: the upper triangle column by column, six bits a character.

    Column v's bits (u = 0..v-1) are the low v bits of row v, reversed (read
    below a sentinel bit v, so that leading zeros stay); they are converted a
    block at a time through a table of the 64 groups.
    """
    n = g.order
    if n > _G6_MAX_ORDER:
        raise ValueError(f"graph6 supports order at most {_G6_MAX_ORDER}")
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    rows = g.rows
    out = [head]
    bits = ""
    for v in range(1, n):
        bits += bin(rows[v] & ((1 << v) - 1) | 1 << v)[:2:-1]
        if len(bits) >= _G6_BLOCK or v == n - 1:
            if v == n - 1:
                bits += "0" * (-len(bits) % 6)
            cut = len(bits) - len(bits) % 6
            out.append("".join([_G6_CHAR[bits[i:i + 6]] for i in range(0, cut, 6)]))
            bits = bits[cut:]
    return "".join(out)


def from_graph6(text: str) -> Graph:
    s = text.rstrip("\r\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    data = s.encode("utf-8", "surrogatepass")  # any non-ASCII character gives a byte above 126
    pos = 0

    def take(why: str) -> int:
        nonlocal pos
        if pos >= len(data):
            raise Graph6Error(f"truncated graph6 string: missing {why}", pos)
        b = data[pos]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte out of graph6 range 63..126 in {why}", pos)
        pos += 1
        return b - 63

    first = take("size header")
    if first == 63:  # '~': multi-byte order prefix
        if pos < len(data) and data[pos] == 126:
            raise Graph6Error("order beyond the three-byte size prefix is unsupported", pos)
        n = 0
        for _ in range(3):
            n = (n << 6) | take("size header")
    else:
        n = first
    need = (n * (n - 1) // 2 + 5) // 6
    rows = [0] * n
    # bits come column by column: (0,1), (0,2), (1,2), (0,3), ...; u < v
    v, u = 1, 0
    for _ in range(need):
        at = pos
        value = take("edge data")
        if value == 0:
            u += 6
            while u >= v:
                u -= v
                v += 1
            continue
        for k in range(5, -1, -1):
            if v >= n:
                if value & ((2 << k) - 1):
                    raise Graph6Error("nonzero padding bits", at)
                break
            if (value >> k) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            u += 1
            if u == v:
                v += 1
                u = 0
    if pos != len(data):
        raise Graph6Error("trailing garbage after graph6 data", pos)
    return Graph(n, tuple(rows))
