"""Induced-copy search checked against networkx on hypothesis-drawn graphs.

networkx's ``GraphMatcher(host, pattern).subgraph_is_isomorphic()`` decides
whether some node-induced subgraph of the host is isomorphic to the pattern,
with code that shares nothing with ``fullgraph.verifier``.
"""

import pytest

nx = pytest.importorskip("networkx")
hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from networkx.algorithms.isomorphism import GraphMatcher  # noqa: E402

from fullgraph.graphs import Graph  # noqa: E402
from fullgraph.verifier import (  # noqa: E402
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
