"""Graph core: construction, builders, independence search, graph6 codec.

networkx is used here purely as an independent reference implementation
for the graph6 interchange format; the package itself never imports it.
"""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgraph.constructions import h_vs_empty
from fullgraph.graphs import (
    Graph,
    Graph6Error,
    _independent_search,
    alpha_with_vertex,
    complement,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    duplicate_vertex,
    empty,
    from_graph6,
    independence_number,
    independent_set_with,
    is_complete_graph,
    is_empty_graph,
    max_degree,
    min_degree,
    path,
    relabeled,
    star,
    star_center,
    to_graph6,
)

nx = pytest.importorskip("networkx")


def degree_into_set(g, v, members):
    """Number of neighbours of v inside ``members``."""
    return sum(g.adjacent(v, u) for u in members)


def induced_subgraph(g, vertices):
    """Subgraph induced on ``vertices``, relabeled by ascending original index."""
    members = sorted(set(vertices))
    return Graph(len(members), tuple(sum(((g.rows[v] >> u) & 1) << i for i, u in enumerate(members))
                                     for v in members))


def random_graph(rng, lo=0, hi=10):
    n = rng.randint(lo, hi)
    p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def pairwise_graph6(g):
    """graph6 built one vertex pair at a time: the reference for the encoder."""
    n = g.order
    head = chr(63 + n) if n <= 62 else "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    chars = []
    acc, nbits = 0, 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | ((g.rows[v] >> u) & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc, nbits = 0, 0
    if nbits:
        chars.append(chr(63 + (acc << (6 - nbits))))
    return head + "".join(chars)


class TestGraphBasics:
    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (0b1,))

    def test_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            Graph(2, (0b100, 0b000))

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            Graph(-1, ())

    def test_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError):
            Graph(3, (0, 0))

    @pytest.mark.parametrize("order, rows", [(3, [0, 0, 0]), (0, []), (2, [0b10, 0b01])])
    def test_rejects_rows_that_are_not_a_tuple(self, order, rows):
        # list rows would leave the graph unhashable and unequal to its tuple-row twin
        with pytest.raises(ValueError, match="^rows must be a tuple$"):
            Graph(order, rows)

    def test_from_edges_validates(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(1, 1)])

    def test_edges_round_trip(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng)
            assert Graph.from_edges(g.order, list(g.edges())) == g

    def test_degree_sums(self):
        rng = random.Random(12)
        for _ in range(50):
            g = random_graph(rng)
            assert sum(g.degrees()) == 2 * g.edge_count()

    def test_order_zero(self):
        g = empty(0)
        assert g.order == 0 and g.edge_count() == 0
        assert list(g.edges()) == []


class TestBuilders:
    def test_complete(self):
        g = complete(5)
        assert g.edge_count() == 10
        assert is_complete_graph(g)

    def test_empty(self):
        assert empty(4).edge_count() == 0
        assert is_empty_graph(empty(4))

    def test_path_structure(self):
        g = path(5)
        assert g.edge_count() == 4
        assert sorted(g.degrees()) == [1, 1, 2, 2, 2]

    def test_cycle_structure(self):
        g = cycle(6)
        assert g.edge_count() == 6
        assert g.degrees() == [2] * 6

    def test_star_center_is_zero(self):
        g = star(6)
        assert g.degree(0) == 5
        assert star_center(g) == 0
        assert star_center(path(3)) == 1
        assert star_center(cycle(4)) is None
        assert star_center(complete(3)) is None

    def test_star_of_order_two_is_an_edge(self):
        assert star(2) == complete(2)

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.order == 7 and g.edge_count() == 12
        assert sorted(g.degrees()) == [3, 3, 3, 3, 4, 4, 4]

    def test_disjoint_union_offsets(self):
        g = disjoint_union(complete(3), path(3))
        assert g.order == 6 and g.edge_count() == 5
        assert g.adjacent(0, 1) and g.adjacent(3, 4) and not g.adjacent(2, 3)

    def test_complement_involution(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_graph(rng)
            assert complement(complement(g)) == g
        assert complement(empty(5)) == complete(5)

    def test_duplicate_vertex_is_false_twin(self):
        g = path(3)
        d = duplicate_vertex(g, 0)
        assert d.order == 4
        assert d.adjacent(3, 1) and not d.adjacent(3, 0) and not d.adjacent(3, 2)
        # twin of the middle vertex
        d2 = duplicate_vertex(g, 1)
        assert d2.adjacent(3, 0) and d2.adjacent(3, 2) and not d2.adjacent(3, 1)

    def test_induced_subgraph_relabels_ascending(self):
        g = cycle(5)
        h = induced_subgraph(g, [0, 1, 3])
        assert h.order == 3 and h.edge_count() == 1
        assert h.adjacent(0, 1)

    def test_relabeled_permutes(self):
        g = path(3)
        h = relabeled(g, [2, 0, 1])
        assert h.adjacent(0, 2) and h.adjacent(1, 2) and not h.adjacent(0, 1)

    def test_relabeled_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabeled(path(3), [0, 0, 1])

    def test_min_max_degree(self):
        assert min_degree(star(5)) == 1
        assert max_degree(star(5)) == 4
        with pytest.raises(ValueError):
            min_degree(empty(0))

    def test_degree_into_set(self):
        g = complete(5)
        assert degree_into_set(g, 0, [1, 2]) == 2
        assert degree_into_set(g, 0, []) == 0


class TestIndependence:
    def brute_alpha(self, g, forced=None):
        for size in range(g.order, 0, -1):
            for sub in itertools.combinations(range(g.order), size):
                if forced is not None and forced not in sub:
                    continue
                if all(not g.adjacent(u, v) for u, v in itertools.combinations(sub, 2)):
                    return size
        return 0

    def test_matches_brute_force(self):
        rng = random.Random(7)
        for _ in range(120):
            g = random_graph(rng, 1, 10)
            assert independence_number(g) == self.brute_alpha(g)

    def test_alpha_with_vertex_matches_brute_force(self):
        rng = random.Random(8)
        for _ in range(60):
            g = random_graph(rng, 1, 9)
            for v in range(g.order):
                assert alpha_with_vertex(g, v) == self.brute_alpha(g, forced=v)

    def test_known_values(self):
        assert independence_number(complete(6)) == 1
        assert independence_number(empty(6)) == 6
        assert independence_number(cycle(5)) == 2
        assert independence_number(path(7)) == 4
        assert independence_number(complete_bipartite(3, 5)) == 5

    def test_independent_set_with_produces_witnesses(self):
        rng = random.Random(9)
        for _ in range(60):
            g = random_graph(rng, 1, 10)
            for v in range(g.order):
                best = alpha_with_vertex(g, v)
                for size in range(1, g.order + 1):
                    got = independent_set_with(g, v, size)
                    if size <= best:
                        assert got is not None and len(got) == size and v in got
                        assert len(set(got)) == size
                        assert all(not g.adjacent(a, b) for a, b in itertools.combinations(got, 2))
                    else:
                        assert got is None

    def test_deep_search_needs_no_recursion(self):
        # one branching level per triangle, past the default recursion limit
        k = 1010
        g = disjoint_union(*[complete(3)] * k)
        got = independent_set_with(g, 0, k)
        assert len(got) == k and 0 in got
        assert all(not g.adjacent(a, b) for a, b in itertools.combinations(got, 2))

    def test_independent_set_with_validates(self):
        with pytest.raises(ValueError):
            independent_set_with(path(3), 5, 1)
        with pytest.raises(ValueError):
            independent_set_with(path(3), 0, 0)


def brute_pool_alpha(rows, pool, memo):
    """Size of a largest independent set inside ``pool``: take or leave its lowest vertex."""
    if not pool:
        return 0
    if pool not in memo:
        low = pool & -pool
        v = low.bit_length() - 1
        memo[pool] = max(brute_pool_alpha(rows, pool ^ low, memo),
                         1 + brute_pool_alpha(rows, pool & ~rows[v] & ~low, memo))
    return memo[pool]


def check_search(g, pool, target, prefer=0):
    """``_independent_search`` answers exactly when the pool's alpha reaches the target."""
    got = _independent_search(g.rows, pool, target, prefer)
    if brute_pool_alpha(g.rows, pool, {}) < target:
        assert got is None
        return
    assert got is not None and len(got) >= target
    assert len(set(got)) == len(got)
    assert all((pool >> v) & 1 for v in got)
    assert all(not g.adjacent(a, b) for a, b in itertools.combinations(got, 2))


@st.composite
def searches(draw):
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])
    return g, draw(st.integers(0, (1 << n) - 1)), draw(st.integers(0, n + 1))


class TestIndependentSearch:
    """The one independent-set search against a take-or-leave brute force."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(searches())
    def test_matches_brute_force(self, case):
        check_search(*case)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(searches(), st.integers(0, (1 << 14) - 1))
    def test_preferred_vertices_change_no_answer(self, case, prefer):
        check_search(*case, prefer)

    def test_preferred_vertices_go_first_where_the_choice_is_free(self):
        # a perfect matching is settled without branching: one end of every edge
        g = Graph.from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert sorted(_independent_search(g.rows, 0xFF, 4)) == [0, 2, 4, 6]
        assert sorted(_independent_search(g.rows, 0xFF, 4, 0b10101000)) == [0, 3, 5, 7]

    def test_hubs_over_a_sparse_pool(self):
        # a few hubs joined to most of a sparse pool, with the target near the
        # pool's size: the hubs have more pool neighbours than the slack
        rng = random.Random(10)
        for _ in range(150):
            n = rng.randint(8, 16)
            hubs = rng.randint(1, 3)
            edges = {(u, v) for v in range(hubs, n) for u in range(hubs, v) if rng.random() < 0.12}
            edges |= {(h, v) for h in range(hubs) for v in range(hubs, n) if rng.random() < 0.8}
            g = Graph.from_edges(n, sorted(edges))
            pool = (1 << n) - 1
            for v in range(n):
                if rng.random() < 0.1:
                    pool &= ~(1 << v)
            size = pool.bit_count()
            for target in range(max(0, size - 5), size + 2):
                check_search(g, pool, target)


class TestGraph6:
    def test_fixed_encodings(self):
        assert to_graph6(complete(1)) == "@"
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(empty(2)) == "A?"
        assert to_graph6(complete(4)) == "C~"
        assert to_graph6(empty(5)) == "D??"

    def test_round_trip_random(self):
        rng = random.Random(4021)
        for _ in range(300):
            g = random_graph(rng, 1, 80)
            assert from_graph6(to_graph6(g)) == g

    def test_agrees_with_networkx_both_ways(self):
        rng = random.Random(4022)
        for _ in range(200):
            g = random_graph(rng, 1, 60)
            mine = to_graph6(g)
            ng = nx.from_graph6_bytes(mine.encode())
            assert ng.number_of_nodes() == g.order
            assert sorted(tuple(sorted(e)) for e in ng.edges()) == sorted(g.edges())
            theirs = nx.to_graph6_bytes(ng, header=False).strip().decode()
            assert theirs == mine
            assert from_graph6(theirs) == g

    def test_large_order_prefix(self):
        g = empty(63)
        s = to_graph6(g)
        assert s.startswith("~")
        assert from_graph6(s) == g
        g2 = Graph.from_edges(70, [(0, 69)])
        assert from_graph6(to_graph6(g2)) == g2

    def test_matches_the_pair_by_pair_encoder(self):
        rng = random.Random(4023)
        for n in [*range(70), 150, 300]:
            for _ in range(3):
                g = random_graph(rng, n, n)
                assert to_graph6(g) == pairwise_graph6(g), n

    def test_decoder_rejects_truncation(self):
        with pytest.raises(Graph6Error):
            from_graph6("A")
        with pytest.raises(Graph6Error):
            from_graph6("")

    def test_decoder_rejects_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            from_graph6("A_?")

    def test_decoder_rejects_bad_bytes(self):
        with pytest.raises(Graph6Error) as exc:
            from_graph6("A\x1f")
        assert "offset" in str(exc.value)
        for text in ("A\u00e9", "A\udcc3"):  # non-ASCII, and a lone surrogate
            with pytest.raises(Graph6Error) as exc:
                from_graph6(text)
            assert exc.value.offset == 1

    def test_decoder_rejects_nonzero_padding(self):
        # K2 body is 0b010000 plus padding zeros; set a padding bit
        with pytest.raises(Graph6Error) as exc:
            from_graph6("A" + chr(63 + 0b100001))
        assert "padding" in str(exc.value)

    def test_decoder_streams_large_hosts(self):
        # pairs are walked with two counters, never listed: 594,595 of them here
        g, _ = h_vs_empty(cycle(5), 1000)
        s = to_graph6(g)
        tracemalloc.start()
        try:
            decoded = from_graph6(s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == g
        assert peak < 10 * 2**20

    def test_encoder_converts_in_blocks(self):
        # the 99,104-character string plus bounded blocks, never all 594,595 bits at once
        g, _ = h_vs_empty(cycle(5), 1000)
        tracemalloc.start()
        try:
            s = to_graph6(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert s == pairwise_graph6(g)
        assert peak < 2**19

    def test_decoder_accepts_trailing_newline(self):
        assert from_graph6("A_\n") == complete(2)
        assert from_graph6("A_\r\n") == complete(2)
