"""Output checks for the benchmark, made apart from fullgraph.

Nothing here imports fullgraph.  Graphs are decoded from graph6 by
networkx, induced copies are tested by networkx isomorphism on the induced
vertex set (memoized per labelled induced graph; for an edgeless or
complete pattern the edge count of the induced set decides isomorphism,
which also spares networkx a recursion as deep as the pattern is large), small graphs come from
``networkx.graph_atlas_g()``, and the paper's closed forms are computed
here from their statements.

Run ``python3 checker.py a000088`` to recount graphs per order from the
atlas (orders 0..7) against the A000088 values the checks use.
"""

from __future__ import annotations

import itertools
import math
import sys
from functools import lru_cache

import networkx as nx

# OEIS A000088: graphs on n unlabeled vertices, n = 0..9.
A000088 = (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668)


# -- graphs -------------------------------------------------------------------


def decode(g6: str) -> nx.Graph:
    return nx.from_graph6_bytes(g6.strip().encode("ascii"))


def encode(g: nx.Graph) -> str:
    return nx.to_graph6_bytes(g, header=False).decode("ascii").strip()


def pattern(name: str) -> nx.Graph:
    """A pattern from the CLI's names: K, E, S, P, C plus an order, '+' for
    disjoint union, ``g6:`` for a graph6 literal."""
    parts = []
    for term in name.split("+"):
        term = term.strip()
        if term.startswith("g6:"):
            parts.append(decode(term[3:]))
            continue
        kind, n = term[0], int(term[1:])
        build = {"K": nx.complete_graph, "E": nx.empty_graph, "P": nx.path_graph,
                 "C": nx.cycle_graph, "S": lambda k: nx.star_graph(k - 1)}[kind]
        parts.append(build(n))
    return nx.convert_node_labels_to_integers(nx.disjoint_union_all(parts))


def patterns(names: str) -> list[nx.Graph]:
    return [pattern(p) for p in names.split(",")]


def _is_edgeless(h: nx.Graph) -> bool:
    return h.number_of_edges() == 0


def _is_complete(h: nx.Graph) -> bool:
    n = h.number_of_nodes()
    return h.number_of_edges() == n * (n - 1) // 2


def isomorphic(a: nx.Graph, h: nx.Graph) -> bool:
    """a is isomorphic to h; edgeless and complete h (E1000, K9) are decided
    by counting, which VF2 takes seconds to do."""
    if a.number_of_nodes() != h.number_of_nodes():
        return False
    if _is_edgeless(h) or _is_complete(h):
        return a.number_of_edges() == h.number_of_edges()
    return nx.is_isomorphic(a, h)


def induces(g: nx.Graph, members, h: nx.Graph) -> bool:
    """The vertex set ``members`` of g induces a graph isomorphic to h."""
    members = list(members)
    k = h.number_of_nodes()
    if len(members) != k or len(set(members)) != k or any(v not in g for v in members):
        return False
    if _is_edgeless(h) or _is_complete(h):
        return g.subgraph(members).number_of_edges() == h.number_of_edges()
    bits = 0
    for i, (a, b) in enumerate(itertools.combinations(members, 2)):
        if g.has_edge(a, b):
            bits |= 1 << i
    return _labelled_is_copy(k, bits, encode(h))


def _rows(g: nx.Graph) -> list[int]:
    index = {v: i for i, v in enumerate(g.nodes())}
    rows = [0] * len(index)
    for u, v in g.edges():
        rows[index[u]] |= 1 << index[v]
        rows[index[v]] |= 1 << index[u]
    return rows


@lru_cache(maxsize=None)
def _labelled_is_copy(k: int, edge_bits: int, pattern_g6: str) -> bool:
    """networkx isomorphism for one labelled k-vertex graph against a pattern."""
    g = nx.Graph()
    g.add_nodes_from(range(k))
    pairs = list(itertools.combinations(range(k), 2))
    g.add_edges_from(p for i, p in enumerate(pairs) if edge_bits >> i & 1)
    return nx.is_isomorphic(g, decode(pattern_g6))


def covered_vertices(g: nx.Graph, h: nx.Graph) -> set:
    """Vertices of a small graph g lying in an induced copy of h (all subsets tried)."""
    nodes = list(g.nodes())
    rows = _rows(g)
    k = h.number_of_nodes()
    h_g6 = encode(h)
    pairs = list(itertools.combinations(range(k), 2))
    covered: set = set()
    for subset in itertools.combinations(range(len(nodes)), k):
        bits = 0
        for i, (a, b) in enumerate(pairs):
            if rows[subset[a]] >> subset[b] & 1:
                bits |= 1 << i
        if _labelled_is_copy(k, bits, h_g6):
            covered.update(nodes[i] for i in subset)
    return covered


def is_full_small(g: nx.Graph, patterns: list[nx.Graph]) -> bool:
    """Exhaustive fullness test for graphs of at most a dozen vertices."""
    everyone = set(g.nodes())
    return all(covered_vertices(g, h) == everyone for h in patterns)


def atlas_full_orders(patterns: list[nx.Graph], lo: int, hi: int) -> list[str]:
    """graph6 of every atlas graph of order lo..hi (hi <= 7) full for the patterns."""
    if hi > 7:
        raise ValueError("the atlas holds graphs of order at most 7")
    return [encode(g) for g in nx.graph_atlas_g()
            if lo <= g.number_of_nodes() <= hi and is_full_small(g, patterns)]


def atlas_counts() -> list[int]:
    counts = [0] * 8
    for g in nx.graph_atlas_g():
        counts[g.number_of_nodes()] += 1
    return counts


# -- the paper's closed forms ---------------------------------------------------


def _ceil_sqrt(t: int) -> int:
    z = math.isqrt(t)
    return z if z * z == t else z + 1


def egh_value(m: int, n: int) -> int:
    """f(K_m, E_n) = (m-1) + (n-1) + ceil(2 sqrt((m-1)(n-1)))."""
    return (m - 1) + (n - 1) + _ceil_sqrt(4 * (m - 1) * (n - 1))


def star_value(m: int, n: int) -> int:
    """f(K_{1,m-1}, E_n): n + m - 1 when n < m, else
    n + min over k of max(k + ceil((n-1)/k), 2m - 3 - k)."""
    if n < m:
        return n + m - 1
    return n + min(max(k + -(-(n - 1) // k), 2 * m - 3 - k) for k in range(1, n))


def _alpha_through(h: nx.Graph, v) -> int:
    others = [u for u in h.nodes() if u != v and not h.has_edge(u, v)]
    for size in range(len(others), -1, -1):
        for chosen in itertools.combinations(others, size):
            if all(not h.has_edge(a, b) for a, b in itertools.combinations(chosen, 2)):
                return size + 1
    return 1


def isolated_value(h: nx.Graph, n: int) -> int | None:
    """f(H, E_n) = n - s + |H| for H with an isolated vertex, where s is the least
    largest independent set through one vertex of H; None when n < s."""
    s = min(_alpha_through(h, v) for v in h.nodes())
    return n - s + h.number_of_nodes() if n >= s else None


def closed_forms(patterns: list[nx.Graph]) -> dict[str, int]:
    """Every closed form of the paper that applies to a two-pattern instance."""
    if len(patterns) != 2:
        return {}
    found: dict[str, int] = {}
    for h, e in (patterns, patterns[::-1]):
        n = e.number_of_nodes()
        if not _is_edgeless(e) or n < 2:
            continue
        m = h.number_of_nodes()
        if m >= 2 and _is_complete(h):
            found["complete_vs_edgeless"] = egh_value(m, n)
        degrees = sorted(d for _, d in h.degree())
        if m >= 2 and h.number_of_edges() == m - 1 and degrees[-1] == m - 1:
            found["star_vs_edgeless"] = star_value(m, n)
        if m >= 1 and degrees[0] == 0:
            value = isolated_value(h, n)
            if value is not None:
                found["isolated_vertex"] = value
    return found


def h_vs_empty_order(h: nx.Graph, n: int) -> int:
    """n - 1 + delta*r + ceil(n/(r-1)), r = max(least z with z^2 delta >= n, plus 1; 3m')."""
    delta = min(d for _, d in h.degree())
    m_prime = h.number_of_nodes() - delta - 1
    z = math.isqrt(n // delta)
    while z * z * delta < n:
        z += 1
    r = max(z + 1, 3 * m_prime)
    return n - 1 + delta * r + -(-n // (r - 1))


def design_order(q: int) -> int:
    return q * q


def star_order(m: int, n: int) -> int:
    return star_value(m, n)


def cyclic_order(patterns: list[nx.Graph]) -> int:
    return 2 * sum(h.number_of_nodes() - 1 for h in patterns)


# -- answers ------------------------------------------------------------------


def check_search(answer: dict, patterns: list[nx.Graph], lo: int) -> list[str]:
    """Problems with one ``fullgraph search`` answer (empty when it is right)."""
    problems = []
    f, witness = answer.get("f"), answer.get("witness")
    if f is None or witness is None:
        return [f"no answer: {answer.get('note')!r}"]
    named = [decode(p) for p in answer.get("patterns", [])]
    if len(named) != len(patterns) or not all(
            any(nx.is_isomorphic(a, b) for b in named) for a in patterns):
        problems.append(f"answer names patterns {answer.get('patterns')}")
    for name, value in closed_forms(patterns).items():
        if value != f:
            problems.append(f"f = {f} but the {name} formula gives {value}")
    g = decode(witness)
    if g.number_of_nodes() != f:
        problems.append(f"witness has order {g.number_of_nodes()}, f = {f}")
    elif not is_full_small(g, patterns):
        problems.append(f"witness {witness} is not full")
    if f <= 8:
        smaller = atlas_full_orders(patterns, lo, f - 1)
        if smaller:
            problems.append(f"graphs of order < f are full: {smaller[:3]}")
    examined = answer.get("examined", {})
    for order in answer.get("exhausted_orders", []):
        if examined.get(str(order)) != A000088[order]:
            problems.append(f"examined {examined.get(str(order))} graphs of order {order}, "
                            f"A000088 gives {A000088[order]}")
    if f - 1 not in answer.get("exhausted_orders", []) and f > lo:
        problems.append(f"order {f - 1} is not reported as exhausted")
    return problems


def check_report(g: nx.Graph, patterns: list[nx.Graph], report: dict,
                 expect_uncovered: list[list[int]] | None = None) -> list[str]:
    """Problems with one ``fullgraph verify`` report on host g.

    Every witness set must induce its pattern and contain the vertex it is
    listed for; witnesses and uncovered vertices must split the vertex set.
    ``expect_uncovered`` gives, per pattern, the vertices that must be
    reported uncovered (default: none).
    """
    problems = []
    entries = report.get("patterns", [])
    if len(entries) != len(patterns):
        return [f"report covers {len(entries)} patterns, expected {len(patterns)}"]
    everyone = set(g.nodes())
    verdict = True
    for i, (h, entry) in enumerate(zip(patterns, entries)):
        if not isomorphic(decode(entry["pattern_g6"]), h):
            problems.append(f"pattern {i}: report names {entry['pattern_g6']}")
        witnesses = {int(v): members for v, members in entry["witnesses"].items()}
        uncovered = set(entry["uncovered"])
        want = set(expect_uncovered[i]) if expect_uncovered else set()
        if uncovered != want:
            problems.append(f"pattern {i}: uncovered {sorted(uncovered)[:5]}, "
                            f"expected {sorted(want)[:5]}")
        verdict = verdict and not uncovered
        if set(witnesses) | uncovered != everyone or set(witnesses) & uncovered:
            problems.append(f"pattern {i}: witnesses and uncovered vertices do not split V")
        checked: set[tuple[int, ...]] = set()
        for v, members in witnesses.items():
            if v not in members:
                problems.append(f"pattern {i}: witness for {v} does not contain it")
                break
            key = tuple(sorted(members))
            if key in checked:
                continue
            checked.add(key)
            if not induces(g, key, h):
                problems.append(f"pattern {i}: {list(key)[:10]} does not induce the pattern")
                break
    if report.get("verdict") is not verdict:
        problems.append(f"verdict {report.get('verdict')} disagrees with the coverage")
    return problems


def main(argv: list[str]) -> int:
    if argv == ["a000088"]:
        counts = atlas_counts()
        print("atlas counts by order:", counts)
        print("A000088 n = 0..9:     ", list(A000088))
        return 0 if counts == list(A000088[:8]) else 1
    print("usage: checker.py a000088", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
