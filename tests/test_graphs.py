"""Graph core: construction, builders, independence search, graph6 codec.

networkx is used here purely as an independent reference implementation
for the graph6 interchange format; the package itself never imports it.
"""

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fullgraph.cli import main
from fullgraph.constructions import h_vs_empty
from fullgraph.graphs import (
    Graph,
    Graph6Error,
    _independent_search,
    _twin_masks,
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
from fullgraph.oracle import f_exact
from fullgraph.patterns import parse_pattern_list

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


def reference_independent_search(rows, pool, target, prefer=0):
    """The search as it was before it took twin classes at once, kept verbatim as the reference."""
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


def reference_independent_set_with(g, v, size, prefer=0):
    """``independent_set_with`` on the reference search, with its sort as it was."""
    if size > g.order:
        return None
    pool = ((1 << g.order) - 1) & ~g.rows[v] & ~(1 << v)
    found = reference_independent_search(g.rows, pool, size - 1, prefer)
    if found is None:
        return None
    found.sort(key=lambda w: not (prefer >> w) & 1)
    return sorted([v] + found[: size - 1])


@st.composite
def twin_blow_ups(draw):
    """A small graph whose vertices become classes of false or true twins, relabeled.

    Most have 16 vertices or more, so that most pools reach past vertex 14,
    where the search looks its classes up.
    """
    base = draw(st.integers(1, 8))
    pairs = [(u, v) for v in range(base) for u in range(v)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    sizes = draw(st.lists(st.integers(1, 6), min_size=base, max_size=base))
    cliques = draw(st.lists(st.booleans(), min_size=base, max_size=base))  # true twins
    members, n = [], 0
    for size in sizes:
        members.append(range(n, n + size))
        n += size
    edges = [(a, b) for (u, v), bit in zip(pairs, bits) if bit for a in members[u] for b in members[v]]
    edges += [(a, b) for u in range(base) if cliques[u] for a in members[u] for b in members[u] if a < b]
    return relabeled(Graph.from_edges(n, edges), draw(st.permutations(range(n))))


@st.composite
def twin_free_graphs(draw):
    n = draw(st.integers(0, 24))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    bits = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [e for e, b in zip(pairs, bits) if b])
    assume(len(set(g.rows)) == n)
    return g


@st.composite
def searches_on(draw, graphs):
    """A graph with a pool (often every vertex), a target and a ``prefer`` mask."""
    g = draw(graphs)
    full = (1 << g.order) - 1
    pool = draw(st.one_of(st.just(full), st.integers(0, full)))
    return g, pool, draw(st.integers(0, g.order + 1)), draw(st.integers(0, full))


class TestTwinClassSearch:
    """The search takes a class of equal-row vertices at once, and returns what it returned before."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.one_of(searches_on(twin_blow_ups()), searches_on(twin_free_graphs()), searches_on(
        searches().map(lambda case: case[0]))))
    def test_same_list_as_the_reference(self, case):
        g, pool, target, prefer = case
        assert _independent_search(g.rows, pool, target, prefer) == \
            reference_independent_search(g.rows, pool, target, prefer)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(searches_on(twin_blow_ups()), st.data())
    def test_independent_set_with_returns_the_same_set(self, case, data):
        g, _, _, prefer = case
        v = data.draw(st.integers(0, g.order - 1))
        size = data.draw(st.integers(1, g.order + 1))
        assert independent_set_with(g, v, size, prefer) == reference_independent_set_with(g, v, size, prefer)

    def test_large_blow_ups_match_the_reference(self):
        host, _ = h_vs_empty(cycle(5), 200)
        rows = host.rows
        full = (1 << host.order) - 1
        rng = random.Random(29)
        for v in range(0, host.order, 7):
            pool = full & ~rows[v] & ~(1 << v)
            prefer = rng.getrandbits(host.order)
            for target in (150, 199, 200, 205):
                assert _independent_search(rows, pool, target, prefer) == \
                    reference_independent_search(rows, pool, target, prefer)


class TestTwinMasks:
    def test_masks_partition_the_vertices_into_classes_of_equal_rows(self):
        host, _ = h_vs_empty(cycle(5), 200)
        rows = host.rows
        masks = _twin_masks(rows)
        assert len(masks) == host.order
        assert len(set(masks)) == len(set(rows)) < host.order
        for v, mask in enumerate(masks):
            assert mask == sum(1 << u for u, r in enumerate(rows) if r == rows[v])

    def test_twin_free_host_gets_none(self):
        assert _twin_masks(disjoint_union(*[cycle(5)] * 8).rows) is None
        assert _twin_masks(()) is None

    def test_one_host_is_kept_after_a_verify(self, tmp_path, capsys):
        host, _ = h_vs_empty(cycle(5), 60)
        f = tmp_path / "host.g6"
        f.write_text(to_graph6(host) + "\n")
        _twin_masks.cache_clear()
        assert main(["verify", str(f), "--patterns", "C5,E60"]) == 0
        capsys.readouterr()
        info = _twin_masks.cache_info()
        assert info.currsize <= 1 and info.misses == 1 and info.hits > 0

    def test_the_exhaustive_search_never_looks_up_a_class(self, tmp_path):
        # its hosts have at most 9 vertices, so every pool lies inside vertices 0..14
        _twin_masks.cache_clear()
        assert f_exact(parse_pattern_list("C5,E3"), cache_dir=tmp_path).f == 7
        assert _twin_masks.cache_info().misses == 0


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
        for n in [*range(70), 111, 112, 113, 150, 300, 1091]:  # 111-113: the first block seam
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
        # 594,595 pair bits here, converted a block at a time, never as one bit string
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


def g6_outcome(text):
    """What ``from_graph6`` makes of ``text``: the order and rows, or the error and its offset."""
    try:
        g = from_graph6(text)
    except Graph6Error as exc:
        return ["error", str(exc), exc.offset]
    return ["graph", g.order, [format(r, "x") for r in g.rows]]


def mutated(rng, text):
    """``text`` with one character replaced, deleted or inserted, or cut short."""
    i = rng.randrange(len(text) + 1)
    c = chr(rng.randrange(58, 131))  # mostly graph6 characters, some outside 63..126
    kind = rng.choice("rdit")
    if kind == "r":
        return text[:i] + c + text[i + 1:]
    if kind == "d":
        return text[:i] + text[i + 1:]
    if kind == "i":
        return text[:i] + c + text[i:]
    return text[:i]


def corpus_digest(texts):
    return hashlib.sha1(json.dumps([g6_outcome(t) for t in texts]).encode()).hexdigest()


class TestGraph6Corpus:
    """Every outcome of the decoder, graph or (message, offset), pinned on valid and mutated text."""

    @pytest.mark.parametrize("text, message, offset", [
        ("", "empty graph6 string", 0),
        ("\r\n", "empty graph6 string", 0),
        ("\x1f", "byte out of graph6 range 63..126 in size header", 0),
        ("~", "truncated graph6 string: missing size header", 1),
        ("~~", "order beyond the three-byte size prefix is unsupported", 1),
        ("~??", "truncated graph6 string: missing size header", 3),
        ("~?\x1f?", "byte out of graph6 range 63..126 in size header", 2),
        ("~??A", "order below 63 in the three-byte size prefix", 1),
        ("~??A_", "order below 63 in the three-byte size prefix", 1),  # K2, named by "A_"
        ("~??}", "order below 63 in the three-byte size prefix", 1),  # order 62
        ("~?A?", "truncated graph6 string: missing edge data", 4),
        ("A", "truncated graph6 string: missing edge data", 1),
        ("A\x7f", "byte out of graph6 range 63..126 in edge data", 1),
        ("Aé", "byte out of graph6 range 63..126 in edge data", 1),
        ("A\udcc3", "byte out of graph6 range 63..126 in edge data", 1),  # a lone surrogate
        ("D?\x7f", "byte out of graph6 range 63..126 in edge data", 2),
        ("D\x7f??", "byte out of graph6 range 63..126 in edge data", 1),
        ("A`", "nonzero padding bits", 1),
        ("A_?", "trailing garbage after graph6 data", 2),
        ("A_é", "trailing garbage after graph6 data", 2),
        ("D??\x7f", "trailing garbage after graph6 data", 3),
        ("@?", "trailing garbage after graph6 data", 1),
    ])
    def test_hand_made_errors(self, text, message, offset):
        assert g6_outcome(text) == ["error", f"{message} (byte offset {offset})", offset]

    @pytest.mark.parametrize("text, order, rows", [
        ("?", 0, ()),
        ("@", 1, (0,)),
        ("A_\n\n", 2, (2, 1)),
    ])
    def test_hand_made_graphs(self, text, order, rows):
        assert from_graph6(text) == Graph(order, rows)

    # digests of g6_outcome over each density's graphs and their six mutations each,
    # measured with the decoder that walked the vertex pairs one bit at a time
    @pytest.mark.parametrize("density, digest", [
        (0.0, "4b3eaca18e65885ececdb15f992492eff9ac4314"),
        (0.05, "4ce28c333f7fe32dfa175fc0addeedda1e00108e"),
        (0.3, "0209d3fb0588cf4dd998fbf291385ed033376f81"),
        (0.9, "89bdb0d1f4cbd7c7f7ae838635fa510d77654c0f"),
    ])
    def test_random_graphs_and_mutations(self, density, digest):
        rng = random.Random(f"graph6 corpus {density}")
        texts = []
        for n in [*range(70), 150, 300]:
            g = Graph.from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
            text = to_graph6(g)
            texts += [text, *(mutated(rng, text) for _ in range(6))]
        assert corpus_digest(texts) == digest

    def test_large_host_and_mutations(self):
        g, _ = h_vs_empty(cycle(5), 1000)
        text = to_graph6(g)
        rng = random.Random("graph6 corpus host")
        texts = [text, *(mutated(rng, text) for _ in range(6))]
        assert corpus_digest(texts) == "45627fd7075dd3ffe9e477f654eefa8e14d777d2"
