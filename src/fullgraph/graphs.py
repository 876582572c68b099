"""Immutable bitset-backed simple graphs with graph6 interchange.

Adjacency is stored as one integer bitmask per vertex, so degree and
common-neighbourhood queries reduce to single bitwise operations.  All
operations return new graphs; nothing mutates in place.
"""

from __future__ import annotations

from binascii import b2a_base64
from functools import lru_cache
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
        return value.to_dict()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_plain(v) for v in value)
    return value


class _Record:
    """A record whose fields are its ``__slots__``, in the order ``__init__`` takes them.

    A record equals one of its own class whose ``_key`` is equal, and it is
    shown and turned into a dict field by field.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        # from a list, as a generator would leave a shrunk tuple per hash on a free list
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def to_dict(self) -> dict:
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


@lru_cache(maxsize=1)  # the searches of a verdict all run on one host
def _twin_masks(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """Each vertex's class of equal rows as a bitmask, or None when no two rows are equal."""
    classes: dict[int, int] = {}
    for v, r in enumerate(rows):
        classes[r] = classes.get(r, 0) | 1 << v
    return None if len(classes) == len(rows) else tuple([classes[r] for r in rows])


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

    False twins (equal rows) have equal pool degrees and are never adjacent.
    The scan and the settle step are one loop each, whose step is one vertex
    when ``twins`` is None (a twin-free host, or a pool inside vertices
    0..14) and otherwise one class: one degree test drops, or passes over,
    a vertex and its twins left in the pool, and the vertex branched on is
    still the first of highest degree.  Settling by class appends what each
    pass took in increasing index, so the list returned is the one a
    vertex-by-vertex pass returns.
    """
    # a pool inside vertices 0..14, as on every host of the exhaustive search,
    # is scanned too quickly for a class lookup to pay for itself
    twins = _twin_masks(rows) if pool >= 1 << 15 else None
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
                same = w & -w
                c = same.bit_length() - 1
                if twins is not None:
                    same = twins[c] & w  # c and its twins not yet scanned
                d = (rows[c] & p).bit_count()
                if d > slack:
                    over |= same
                elif d > udeg:
                    u, udeg = c, d
                w ^= same
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
                taken = 0
                while w:
                    same = w & -w
                    c = same.bit_length() - 1
                    if twins is None:
                        chosen.append(c)
                    else:
                        same = twins[c] & w
                        taken |= same
                    p &= ~(rows[c] | same)
                    w &= p
                if taken:
                    chosen += [c for c, bit in enumerate(bin(taken)[:1:-1]) if bit == "1"]
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
    if len(found) >= size:  # more than needed: the preferred ones go first, in found order
        found.sort(key=lambda w: not (prefer >> w) & 1)
    return sorted([v] + found[: size - 1])


# -- structure detectors -----------------------------------------------------


def is_empty_graph(g: Graph) -> bool:
    return not any(g.rows)


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


# each graph6 character -> its six-bit group as a string of 0s and 1s (a
# str.translate table), and each base64 character -> the graph6 character of
# the same group (a bytes.translate table)
_G6_BITS = {63 + x: format(x, "06b") for x in range(64)}
_G6_FROM_B64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))
_G6_BLOCK = 6 << 10  # bits converted at a time, so no whole bit string is built


def to_graph6(g: Graph) -> str:
    """graph6 of g: the upper triangle column by column, six bits a character.

    Column v's bits (u = 0..v-1) are the low v bits of row v, reversed (read
    below a sentinel bit v, so that leading zeros stay).  A block at a time,
    they are padded to whole bytes of a whole number of base64 characters,
    base64-encoded, and each base64 character is mapped to the graph6
    character of its six bits.  ``from_graph6`` is the mirror.
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
            pad = -cut % 24  # base64 turns 24 bits into 4 characters
            data = (int(bits[:cut], 2) << pad).to_bytes((cut + pad) >> 3, "big")
            out.append(b2a_base64(data, newline=False)[:cut // 6].translate(_G6_FROM_B64).decode())
            bits = bits[cut:]
    return "".join(out)


def _g6_chars(s: str, lo: int, hi: int, why: str) -> str:
    """``s[lo:hi]``, every character of it in graph6 range and none missing."""
    chunk = s[lo:hi]
    if chunk and (min(chunk) < "?" or max(chunk) > "~"):
        at = next(i for i, c in enumerate(chunk) if not "?" <= c <= "~")
        raise Graph6Error(f"byte out of graph6 range 63..126 in {why}", lo + at)
    if len(chunk) < hi - lo:
        raise Graph6Error(f"truncated graph6 string: missing {why}", len(s))
    return chunk


def from_graph6(text: str) -> Graph:
    """The graph of a graph6 string, trailing newlines allowed: the mirror of ``to_graph6``.

    Characters become six-bit groups through a table, a block at a time,
    and column v's v bits, reversed, are the low v bits of row v.
    Offsets in errors count UTF-8 bytes; they equal character indices,
    since every character before the first error is ASCII.
    """
    s = text.rstrip("\r\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    head, at = _g6_chars(s, 0, 1, "size header"), 1
    if head == "~":  # the three-byte size prefix
        if s[1:2] == "~":
            raise Graph6Error("order beyond the three-byte size prefix is unsupported", 1)
        head, at = _g6_chars(s, 1, 4, "size header"), 4
    n = int(head.translate(_G6_BITS), 2)
    if at == 4 and n < 63:  # the one-byte header names these orders, so one graph has one string
        raise Graph6Error("order below 63 in the three-byte size prefix", 1)
    end = at + (n * (n - 1) // 2 + 5) // 6
    rows = [0] * n
    bits, i = "", 0  # bits[i:] are read but not yet placed
    for v in range(1, n):
        while len(bits) - i < v:
            hi = min(at + _G6_BLOCK // 6, end)
            bits = bits[i:] + _g6_chars(s, at, hi, "edge data").translate(_G6_BITS)
            i, at = 0, hi
        column = int(bits[i:i + v][::-1], 2)
        i += v
        rows[v] = column
        while column:
            low = column & -column
            rows[low.bit_length() - 1] |= 1 << v
            column ^= low
    if "1" in bits[i:]:
        raise Graph6Error("nonzero padding bits", end - 1)
    if len(s) > end:
        raise Graph6Error("trailing garbage after graph6 data", end)
    return Graph(n, tuple(rows))
