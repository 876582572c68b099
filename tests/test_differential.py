"""Induced-copy search checked against networkx on hypothesis-drawn graphs.

networkx's ``GraphMatcher(host, pattern).subgraph_is_isomorphic()`` decides
whether some node-induced subgraph of the host is isomorphic to the pattern,
with code that shares nothing with ``fullgraph.verifier``.
"""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from fullgraph import verifier  # noqa: E402
from fullgraph.graphs import Graph  # noqa: E402
from fullgraph.verifier import (  # noqa: E402
    extend_partial_map,
    find_induced_copy_containing,
    has_induced_copy,
    is_full,
    recheck_witness,
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def graphs(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])


def to_nx(g):
    ng = nx.Graph()
    ng.add_nodes_from(range(g.order))
    ng.add_edges_from(g.edges())
    return ng


def nx_has_copy(host, pat, anchor=None):
    matcher = GraphMatcher(to_nx(host), to_nx(pat))
    if anchor is None:
        return matcher.subgraph_is_isomorphic()
    return any(anchor in m for m in matcher.subgraph_isomorphisms_iter())


@SETTINGS
@given(graphs(1, 10), graphs(1, 5))
def test_has_induced_copy_matches_networkx(host, pat):
    assert has_induced_copy(host, pat) == nx_has_copy(host, pat)


@SETTINGS
@given(graphs(1, 10), graphs(1, 5), st.data())
def test_anchored_copy_matches_networkx(host, pat, data):
    v = data.draw(st.integers(0, host.order - 1))
    got = find_induced_copy_containing(host, pat, v)
    assert (got is not None) == nx_has_copy(host, pat, v)
    if got is not None:
        assert v in got.values()
        assert recheck_witness(host, pat, got)


@SETTINGS
@given(graphs(1, 10), graphs(1, 5))
def test_is_full_verdict_matches_networkx(host, pat):
    want = all(nx_has_copy(host, pat, v) for v in range(host.order))
    assert is_full(host, [pat]).verdict == want


def twins(host, u, w):
    """Whether u and w have the same neighbours apart from each other."""
    return all(host.adjacent(u, x) == host.adjacent(w, x) for x in range(host.order) if x not in (u, w))


def check_cut_report(host, patterns, cut, full):
    """A stop-at-gap report against the full one: same gap, every vertex before it covered.

    Its witnesses are valid copies through their vertices, and a vertex before
    the gap without one has a twin in a witness copy of its coverage.
    """
    gaps = [i for i, c in enumerate(full.coverages) if c.uncovered]
    assert len(cut.coverages) == (gaps[0] + 1 if gaps else len(patterns))
    for i, (c, whole, pattern) in enumerate(zip(cut.coverages, full.coverages, patterns)):
        assert c.pattern_g6 == whole.pattern_g6
        assert c.uncovered == whole.uncovered[:1]
        images = set()
        for v, role_map in c.witnesses.items():
            assert v in role_map.values()
            assert recheck_witness(host, pattern, role_map)
            images.update(role_map.values())
        gap = c.uncovered[0] if c.uncovered else host.order
        for v in range(gap):
            assert v in c.witnesses or any(twins(host, v, w) for w in images), (i, v)


@st.composite
def twin_blowups(draw):
    """A small graph with each vertex made into 2-5 false or true twins, relabeled at random."""
    base = draw(graphs(1, 4))
    classes, n = [], 0
    for _ in range(base.order):
        size = draw(st.integers(2, 5))
        classes.append((range(n, n + size), draw(st.booleans())))
        n += size
    edges = []
    for a, (ca, clique) in enumerate(classes):
        edges += [(u, w) for u in ca for w in ca if u < w and clique]
        for b in range(a):
            if base.adjacent(a, b):
                edges += [(u, w) for u in ca for w in classes[b][0]]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[w]) for u, w in edges])


@SETTINGS
@given(graphs(1, 10), graphs(1, 5), graphs(1, 5))
def test_stop_at_gap_verdict_matches_networkx_and_stops_at_the_first_gap(host, p1, p2):
    want = all(nx_has_copy(host, p, v) for p in (p1, p2) for v in range(host.order))
    full = is_full(host, [p1, p2])
    cut = is_full(host, [p1, p2], stop_at_gap=True)
    assert cut.verdict == full.verdict == want
    check_cut_report(host, [p1, p2], cut, full)


@SETTINGS
@given(twin_blowups(), graphs(2, 5))
def test_stop_at_gap_on_twin_classes_matches_networkx(host, pat):
    want = all(nx_has_copy(host, pat, v) for v in range(host.order))
    full = is_full(host, [pat])
    cut = is_full(host, [pat], stop_at_gap=True)
    assert cut.verdict == full.verdict == want
    check_cut_report(host, [pat], cut, full)


@st.composite
def pinned_searches(draw):
    """A host, plain or a twin blow-up, a pattern of order 1-5, and random pins."""
    host = draw(st.one_of(graphs(1, 10), twin_blowups()))
    pat = draw(graphs(1, 5))
    pinned = draw(st.lists(st.integers(0, pat.order - 1), unique=True, max_size=pat.order))
    images = draw(st.lists(st.integers(0, host.order - 1), min_size=len(pinned), max_size=len(pinned)))
    return host, pat, dict(zip(pinned, images))


@SETTINGS
@given(pinned_searches())
def test_cached_plan_finds_the_copy_a_fresh_plan_finds(search):
    host, pat, pins = search
    before = extend_partial_map(host, pat, pins)  # with what earlier examples left cached
    verifier._plan.cache_clear()
    cold = extend_partial_map(host, pat, pins)
    warm = extend_partial_map(host, pat, pins)
    assert before == cold == warm
    if cold is not None:
        assert all(cold[q] == w for q, w in pins.items())
        assert recheck_witness(host, pat, cold)


def every_anchor(host, pat, v):
    """The anchored search with no anchor skipped: each pattern vertex in index order."""
    for anchor in range(pat.order):
        found = extend_partial_map(host, pat, {anchor: v})
        if found is not None:
            return found
    return None


@SETTINGS
@given(pinned_searches(), st.data())
def test_anchored_search_skips_only_twin_anchors(search, data):
    host, pat, _ = search
    assume(any(pat.rows))  # an edgeless pattern takes the independent-set route
    v = data.draw(st.integers(0, host.order - 1))
    assert find_induced_copy_containing(host, pat, v) == every_anchor(host, pat, v)
