"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints exactly one line of the
form ``[acceptance] criterion N: PASS - detail`` (FAIL on assertion failure),
so a log scrape recovers the whole scorecard.  Budgets are asserted, not just
reported.  The order-9 enumeration count lives in a separate long-running
test gated behind FULLGRAPH_RUN_SLOW.
"""

import itertools
import random
import time

import pytest

from fullgraph.bounds import (
    cyclic_upper,
    delta_zero_exact,
    egh_formula,
    general_lower_bound,
    h_vs_empty_upper,
    star_closed_form,
    star_exact,
    star_lower,
    star_upper,
)
from fullgraph.constructions import cyclic_full, design_full, h_vs_empty, star_full
from fullgraph.designs import affine_plane, validate_design
from fullgraph.graphs import (
    Graph,
    complement,
    complete,
    cycle,
    disjoint_union,
    duplicate_vertex,
    empty,
    from_graph6,
    max_degree,
    min_degree,
    path,
    star,
    to_graph6,
)
from fullgraph.oracle import enumerate_graphs, f_exact
from fullgraph.verifier import is_full


def _report(criterion, ok, detail):
    word = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion}: {word} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    # one shared oracle cache so later criteria reuse earlier exact values
    return str(tmp_path_factory.mktemp("acceptance-cache"))


class TestCriterion1:
    def test_egh_cross_validation(self, cache_dir):
        t0 = time.monotonic()
        cases = [
            ([complete(2), empty(2)], 2, 2, 4),
            ([complete(2), empty(3)], 2, 3, 6),
            ([complete(3), empty(3)], 3, 3, 8),
        ]
        got = []
        for patterns, m, n, expected in cases:
            result = f_exact(patterns, cache_dir=cache_dir)
            formula = egh_formula(m, n)
            assert result.exhaustive
            assert result.f == expected == formula, (m, n, result.f, formula)
            got.append(f"f({m},{n})={result.f}")
        elapsed = time.monotonic() - t0
        _report(1, elapsed <= 120, f"{', '.join(got)} all match formula ({elapsed:.1f}s)")


class TestCriterion2:
    def test_cyclic_construction(self, cache_dir):
        t0 = time.monotonic()
        lists = [
            [complete(2), empty(2)],
            [complete(3), empty(3)],
            [path(3), cycle(4)],
            [complete(3), path(3), empty(3)],
        ]
        orders = []
        for patterns in lists:
            g, recipe = cyclic_full(patterns)
            expected = 2 * sum(p.order - 1 for p in patterns)
            assert g.order == expected == recipe.claimed_order
            assert is_full(g, patterns).verdict
            orders.append(g.order)
        oracle = f_exact([complete(3), empty(3)], cache_dir=cache_dir)
        assert orders[1] == oracle.f, "cyclic (K3, E3) should be optimal"
        elapsed = time.monotonic() - t0
        _report(2, elapsed <= 60,
                f"orders {orders}, (K3,E3) matches exact minimum {oracle.f} ({elapsed:.1f}s)")


class TestCriterion3:
    def test_design_construction(self):
        t0 = time.monotonic()
        patterns = [complete(3), path(3), disjoint_union(complete(2), empty(1)), empty(3)]
        g, recipe = design_full(patterns, affine_plane(3))
        cu = cyclic_upper(patterns)
        assert g.order == 9 == recipe.claimed_order
        assert cu == 16
        assert g.order < cu
        assert is_full(g, patterns).verdict
        for q in (2, 3, 4, 5, 7, 8, 9):
            problems = validate_design(affine_plane(q))
            assert problems == [], (q, problems)
        elapsed = time.monotonic() - t0
        _report(3, elapsed <= 60,
                f"9 vertices for four order-3 patterns vs cyclic {cu}; planes q in "
                f"{{2,3,4,5,7,8,9}} validate ({elapsed:.1f}s)")


class TestCriterion4:
    def test_h_vs_empty_construction(self):
        t0 = time.monotonic()
        h = path(3)
        g, recipe = h_vs_empty(h, 9)
        bound = h_vs_empty_upper(h, 9)
        assert bound.valid and bound.bound == 17
        assert g.order == 15 == recipe.claimed_order <= bound.bound
        assert is_full(g, [h, empty(9)]).verdict
        params = recipe.parameters
        assert params["r"] >= 3 * params["m_prime"]
        sizes, s = params["w_sizes"], params["s"]
        assert sizes[-1] == s - 1
        assert all(size == s for size in sizes[:-1])
        elapsed = time.monotonic() - t0
        _report(4, elapsed <= 60,
                f"order 15 <= bound 17, r={params['r']} >= 3m'={3 * params['m_prime']}, "
                f"split {sizes} ({elapsed:.1f}s)")


class TestCriterion5:
    def test_star_optimality(self, cache_dir):
        t0 = time.monotonic()
        g, recipe = star_full(3, 5)
        patterns = [star(3), empty(5)]
        assert g.order == 9 == recipe.claimed_order
        assert is_full(g, patterns).verdict
        result = f_exact(patterns, cache_dir=cache_dir)
        assert result.f == 9
        assert 8 in result.exhausted_orders
        assert result.examined[8] == 12346
        elapsed = time.monotonic() - t0
        _report(5, elapsed <= 600,
                f"construction order 9 = exact minimum, {result.examined[8]} order-8 "
                f"graphs exhausted ({elapsed:.1f}s)")


class TestCriterion6:
    def test_formula_sandwich_sweep(self):
        t0 = time.monotonic()
        pairs = closed = 0
        for m in range(2, 31):
            for n in range(m, 31):
                lo = star_lower(m, n)
                up = star_upper(m, n).value
                assert lo <= up <= lo + 1, (m, n, lo, up)
                assert star_exact(m, n) == up
                cf = star_closed_form(m, n)
                if cf.regime == "A":
                    assert cf.value == up, (m, n, cf.value, up)
                    closed += 1
                pairs += 1
        elapsed = time.monotonic() - t0
        _report(6, elapsed <= 1,
                f"{pairs} pairs sandwiched, {closed} regime-A closed forms exact ({elapsed:.3f}s)")


class TestCriterion7:
    def test_delta_zero_case(self, cache_dir):
        t0 = time.monotonic()
        h = disjoint_union(complete(2), empty(1))
        result = f_exact([h, empty(3)], cache_dir=cache_dir)
        exact = delta_zero_exact(h, 3)
        assert result.f == 4 == exact
        elapsed = time.monotonic() - t0
        _report(7, elapsed <= 60, f"search {result.f} = formula {exact} ({elapsed:.1f}s)")


class TestCriterion8:
    def test_lower_bound_soundness(self, cache_dir):
        t0 = time.monotonic()
        instances = [
            [complete(2), empty(2)],
            [complete(2), empty(3)],
            [complete(3), empty(3)],
            [star(3), empty(5)],
            [disjoint_union(complete(2), empty(1)), empty(3)],
        ]
        checked = []
        for patterns in instances:
            result = f_exact(patterns, cache_dir=cache_dir)
            assert result.exhaustive and result.f is not None
            for h1, h2 in itertools.permutations(patterns, 2):
                delta, big = min_degree(h1), max_degree(h2)
                if 2 * big >= delta:
                    continue
                lower = general_lower_bound(delta, big, h2.order)
                assert lower <= result.f, (delta, big, h2.order, lower, result.f)
                checked.append(f"{lower}<={result.f}")
        assert len(checked) >= 4, "applicability should not be vacuous"
        elapsed = time.monotonic() - t0
        _report(8, elapsed <= 60,
                f"{len(checked)} applicable instances sound: {', '.join(checked)} ({elapsed:.1f}s)")


def _random_graph(rng, order, p):
    edges = [(i, j) for i in range(order) for j in range(i + 1, order) if rng.random() < p]
    return Graph.from_edges(order, edges)


def _brute_isomorphic(a, b):
    if a.order != b.order:
        return False
    vs = range(a.order)
    for perm in itertools.permutations(vs):
        if all((a.rows[i] >> j) & 1 == (b.rows[perm[i]] >> perm[j]) & 1
               for i in vs for j in vs if i < j):
            return True
    return False


def induced_subgraph(g, vertices):
    """Subgraph induced on ``vertices``, relabeled by ascending original index."""
    members = sorted(set(vertices))
    return Graph(len(members), tuple(sum(((g.rows[v] >> u) & 1) << i for i, u in enumerate(members))
                                     for v in members))


def _brute_is_full(host, patterns):
    for p in patterns:
        if p.order > host.order:
            return False
        for v in range(host.order):
            if not any(v in combo and _brute_isomorphic(induced_subgraph(host, combo), p)
                       for combo in itertools.combinations(range(host.order), p.order)):
                return False
    return True


class TestCriterion9:
    EXPECTED_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

    def test_property_suites(self, cache_dir):
        t0 = time.monotonic()
        rng = random.Random(20260819)

        # graph6 round-trip on 1000 random graphs
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 40), rng.random())
            assert from_graph6(to_graph6(g)) == g

        # complement-duality and duplication-monotonicity on a 200-instance corpus
        pool = [complete(2), empty(2), complete(3), path(3), empty(3),
                disjoint_union(complete(2), empty(1)), star(3), cycle(4)]
        cyclic_lists = [
            [complete(2), empty(2)],
            [complete(2), empty(3)],
            [complete(3), empty(3)],
            [path(3), empty(3)],
            [complete(2), complete(3)],
        ]
        full_count = 0
        for i in range(200):
            if i % 5 < 3:
                host = _random_graph(rng, rng.randint(4, 8), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
                patterns = rng.sample(pool, rng.randint(1, 2))
            else:
                patterns = rng.choice(cyclic_lists)
                host, _ = cyclic_full(patterns)
            verdict = is_full(host, patterns).verdict
            dual = is_full(complement(host), [complement(p) for p in patterns]).verdict
            assert verdict == dual, (to_graph6(host), [to_graph6(p) for p in patterns])
            if verdict:
                full_count += 1
                twin = duplicate_vertex(host, rng.randrange(host.order))
                assert is_full(twin, patterns).verdict
        assert full_count >= 50, f"only {full_count} full instances in corpus"

        # verifier agreement with subset brute force on every small host
        small_patterns = [g for order in range(1, 5) for g in enumerate_graphs(order)]
        compared = 0
        for order in range(1, 7):
            for host in enumerate_graphs(order):
                for p in small_patterns:
                    assert is_full(host, [p]).verdict == _brute_is_full(host, [p])
                    compared += 1

        # isomorphism class counts for orders 1..8
        counts = {order: sum(1 for _ in enumerate_graphs(order))
                  for order in self.EXPECTED_COUNTS}
        assert counts == self.EXPECTED_COUNTS, counts

        elapsed = time.monotonic() - t0
        _report(9, elapsed <= 900,
                f"1000 round-trips, 200-instance corpus ({full_count} full), "
                f"{compared} verifier-vs-brute agreements, counts 1..8 exact ({elapsed:.1f}s)")

    @pytest.mark.slow
    def test_order_nine_count(self):
        t0 = time.monotonic()
        count = sum(1 for _ in enumerate_graphs(9))
        elapsed = time.monotonic() - t0
        ok = count == 274668
        word = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion 9 (long-running extension): {word} - "
              f"order-9 count {count} ({elapsed:.1f}s)", flush=True)
        assert ok, count
