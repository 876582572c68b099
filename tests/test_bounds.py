"""Order bounds: closed forms, their preconditions, and the summary table.

Square roots are exercised against integer predicates directly, so nothing
here depends on floating point.
"""

import hashlib
import json
import math

import pytest

from fullgraph.bounds import (
    BoundEntry,
    BoundSummary,
    ceil_div,
    ceil_sqrt,
    cyclic_upper,
    default_ring_count,
    delta_zero_exact,
    design_upper,
    egh_formula,
    general_lower_bound,
    h_vs_empty_order,
    h_vs_empty_upper,
    star_closed_form,
    star_exact,
    star_lower,
    star_order,
    star_trivial_lower,
    star_upper,
    summarize,
)
from fullgraph.constructions import cyclic_full, h_vs_empty
from fullgraph.designs import UnsupportedOrderError
from fullgraph.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    path,
    star,
)
from fullgraph.oracle import enumerate_graphs, f_exact
from fullgraph.patterns import parse_pattern, parse_pattern_list
from fullgraph.verifier import is_full


def _corpus():
    """The 414-instance ``bound`` corpus, as (patterns, summary) pairs.

    Every graph of order 1-4 alone, with E1, E2, E3 and E6, and every
    ordered pair of them.
    """
    small = [g for k in range(1, 5) for g in enumerate_graphs(k)]
    cases = [([g] if n is None else [g, empty(n)], summarize([g], n=n))
             for g in small for n in (None, 1, 2, 3, 6)]
    return cases + [([g, h], summarize([g, h])) for g in small for h in small]


class TestIntegerArithmetic:
    def test_ceil_div(self):
        assert ceil_div(9, 3) == 3
        assert ceil_div(10, 3) == 4
        assert ceil_div(0, 5) == 0
        assert ceil_div(1, 7) == 1

    def test_ceil_sqrt_exact_predicate(self):
        for t in range(0, 5000):
            z = ceil_sqrt(t)
            assert z * z >= t
            assert z == 0 or (z - 1) * (z - 1) < t

    def test_ceil_sqrt_ratio_predicate(self):
        for n in range(0, 300):
            for d in range(1, 7):
                z = ceil_sqrt(ceil_div(n, d))
                assert z * z * d >= n
                assert z == 0 or (z - 1) * (z - 1) * d < n


class TestEghFormula:
    def test_pinned_values(self):
        assert egh_formula(2, 2) == 4
        assert egh_formula(2, 3) == 6
        assert egh_formula(3, 3) == 8
        assert egh_formula(2, 5) == 9
        assert egh_formula(2, 4) == 8
        assert egh_formula(2, 10) == 16
        assert egh_formula(5, 5) == 16
        assert egh_formula(2, 17) == 25

    def test_symmetric(self):
        for m in range(2, 14):
            for n in range(2, 14):
                assert egh_formula(m, n) == egh_formula(n, m)

    def test_equals_square_of_root_sum(self):
        # ceil((sqrt(m-1)+sqrt(n-1))^2) without trusting floats at boundaries
        for m in range(2, 20):
            for n in range(2, 20):
                v = egh_formula(m, n)
                s = (m - 1) + (n - 1)
                prod = 4 * (m - 1) * (n - 1)
                root = math.isqrt(prod)
                lo = s + root
                assert v in (lo, lo + 1)
                assert (v - s) ** 2 >= prod
                assert (v - s - 1) ** 2 < prod

    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            egh_formula(1, 5)
        with pytest.raises(ValueError):
            egh_formula(3, 1)


class TestCyclicAndDesignUpper:
    def test_cyclic_upper(self):
        assert cyclic_upper([path(3), complete(3)]) == 8
        assert cyclic_upper([complete(2)]) == 2
        assert cyclic_upper([complete(3), path(3), empty(3)]) == 12
        with pytest.raises(ValueError):
            cyclic_upper([])

    def test_cyclic_upper_rejects_single_vertex_patterns(self):
        # such a pattern would add an empty block: cyclic_full leaves it off the ring
        for pats in ([complete(1)], [complete(3), complete(1)], [Graph(0, ())]):
            with pytest.raises(ValueError):
                cyclic_upper(pats)

    def test_design_upper_squares(self):
        assert design_upper(3) == 4
        assert design_upper(4) == 9
        assert design_upper(5) == 16
        assert design_upper(6) == 25

    def test_design_upper_needs_a_plane(self):
        with pytest.raises(UnsupportedOrderError):
            design_upper(7)

    def test_design_upper_needs_three_patterns(self):
        with pytest.raises(ValueError):
            design_upper(2)


class TestRingCount:
    def test_default_values(self):
        assert default_ring_count(1, 1, 9) == 4
        assert default_ring_count(2, 0, 9) == 4
        assert default_ring_count(1, 0, 4) == 3

    def test_floor_at_three_m_prime(self):
        # large pattern remainder forces r = 3m'
        assert default_ring_count(1, 3, 100) == max(ceil_sqrt(ceil_div(100, 1)) + 1, 9)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            default_ring_count(1, 0, 1)
        with pytest.raises(ValueError):
            default_ring_count(1, 0, 2)

    def test_explicit_r_is_checked(self):
        assert default_ring_count(1, 1, 9, 5) == 5
        assert default_ring_count(1, 0, 9, 2) == 2
        with pytest.raises(ValueError):
            default_ring_count(1, 1, 9, 2)  # below 3*m'
        with pytest.raises(ValueError):
            default_ring_count(1, 0, 4, 5)  # more parts than independent vertices

    def test_construction_order(self):
        # n - 1 + delta*r + ceil(n/(r-1))
        assert h_vs_empty_order(1, 9, 4) == 9 - 1 + 4 + 3
        assert h_vs_empty_order(2, 100, 11) == 100 - 1 + 22 + 10


class TestHVsEmptyUpper:
    def test_pinned_case(self):
        got = h_vs_empty_upper(path(3), 9)
        assert got.bound == 17
        assert got.construction_order == 15
        assert got.valid

    def test_k2_large_n(self):
        got = h_vs_empty_upper(complete(2), 100)
        assert got.bound == 100 + 20 + 2

    def test_validity_boundary(self):
        # m' = 1, delta = 1: threshold n = 9
        assert h_vs_empty_upper(path(3), 9).valid
        assert not h_vs_empty_upper(path(3), 8).valid

    def test_rejects_isolated_vertex_patterns(self):
        with pytest.raises(ValueError):
            h_vs_empty_upper(empty(3), 5)

    def test_bound_dominates_construction_in_valid_regime(self):
        for h in (complete(2), path(3), complete(3), cycle(4), complete_bipartite(2, 2)):
            for n in range(1, 60):
                try:
                    got = h_vs_empty_upper(h, n)
                except ValueError:
                    continue
                if got.valid:
                    assert got.construction_order <= got.bound, (h.order, n, got)


class TestPaperAsymptotics:
    """f(H, E_n) = n + 2*sqrt(delta(H)*n) + O(1), from the formulas alone."""

    NS = [*range(100, 20001), 10**5 + 7, 10**6, 10**7]

    @pytest.mark.parametrize("h, delta, first_2delta", [
        (complete(2), 1, None), (path(3), 1, None), (path(5), 1, None),
        (cycle(4), 2, 105), (complete(3), 2, 105), (cycle(5), 2, 105), (complete(4), 3, 113),
    ], ids=["K2", "P3", "P5", "C4", "K3", "C5", "K4"])
    def test_construction_within_2delta_of_the_lower_bound(self, h, delta, first_2delta):
        # the build's order less the general lower bound is 2*delta - 1 or
        # 2*delta; the first n with 2*delta is pinned (delta = 1 never has it)
        gaps = {n: h_vs_empty_upper(h, n).construction_order - general_lower_bound(delta, 0, n)
                for n in self.NS}
        assert set(gaps.values()) <= {2 * delta - 1, 2 * delta}
        assert min((n for n, gap in gaps.items() if gap == 2 * delta), default=None) == first_2delta

    def test_built_host_is_full_at_n_3000(self):
        host, _ = h_vs_empty(cycle(5), 3000)
        assert host.order == h_vs_empty_upper(cycle(5), 3000).construction_order
        assert is_full(host, [cycle(5), empty(3000)]).verdict


class TestGeneralLowerBound:
    def test_pinned_values(self):
        assert general_lower_bound(1, 0, 9) == 14
        assert general_lower_bound(2, 0, 3) == 6

    def test_precondition(self):
        with pytest.raises(ValueError):
            general_lower_bound(2, 1, 5)

    def test_value_exceeds_n(self):
        for delta in range(1, 6):
            for big in range(0, (delta - 1) // 2 + 1):
                for n in range(2, 30):
                    assert general_lower_bound(delta, big, n) > n


class TestStarFormulas:
    def test_pinned_case(self):
        got = star_upper(3, 5)
        assert got.value == 9 and got.k == 2
        assert star_lower(3, 5) == 9
        assert star_exact(3, 5) == 9

    def test_small_n_branch(self):
        assert star_exact(5, 3) == 7
        assert star_exact(4, 2) == 5

    def test_one_vertex_independent_set(self):
        # f(S_m, E1) = m: the star itself; egh_formula keeps its n >= 2 guard
        assert [star_exact(m, 1) for m in range(2, 7)] == [2, 3, 4, 5, 6]
        with pytest.raises(ValueError):
            star_exact(3, 0)
        with pytest.raises(ValueError):
            star_exact(1, 1)
        with pytest.raises(ValueError):
            egh_formula(3, 1)

    def test_upper_is_the_least_construction_order(self):
        for m in range(2, 12):
            for n in range(m, 30):
                up = star_upper(m, n)
                assert up.value == star_order(m, n, up.k)
                assert all(star_order(m, n, k) >= up.value for k in range(1, n))

    def test_trivial_lower(self):
        assert star_trivial_lower(4, 7) == 10

    def test_sandwich_sweep(self):
        # the two sides never differ by more than one and the exact value
        # always sits on the upper side
        for m in range(2, 31):
            for n in range(m, 31):
                lo = star_lower(m, n)
                up = star_upper(m, n)
                assert lo <= up.value <= lo + 1, (m, n, lo, up)
                assert star_exact(m, n) == up.value

    def test_closed_form_matches_exact_in_sparse_regime(self):
        for m in range(2, 31):
            for n in range(m, 31):
                cf = star_closed_form(m, n)
                if cf.regime == "A":
                    assert 9 * (n - 1) > 4 * (m - 2) ** 2
                    assert cf.value == star_exact(m, n), (m, n, cf)
                else:
                    assert 9 * (n - 1) <= 4 * (m - 2) ** 2

    def test_closed_form_pinned(self):
        assert star_closed_form(3, 5) == (9, "A")
        assert star_closed_form(2, 17) == (25, "A")
        assert star_closed_form(10, 12).regime == "B"

    def test_regime_b_value_is_integer_exact(self):
        # smallest z with 4z >= a - sqrt(b), done by integer predicate
        for m in range(4, 20):
            for n in range(m, 20):
                cf = star_closed_form(m, n)
                if cf.regime != "B":
                    continue
                a = 3 * (2 * m - 3)
                b = (2 * m - 3) ** 2 - 8 * (n - 1)
                z = cf.value - n
                assert 4 * z >= a or b >= (a - 4 * z) ** 2
                zz = z - 1
                assert not (4 * zz >= a or b >= (a - 4 * zz) ** 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_upper(1, 5)
        with pytest.raises(ValueError):
            star_upper(3, 2)


class TestDeltaZeroExact:
    def test_pinned_values(self):
        h = disjoint_union(complete(2), complete(1))
        assert delta_zero_exact(h, 3) == 4
        assert delta_zero_exact(empty(2), 5) == 5
        assert delta_zero_exact(disjoint_union(path(3), complete(1)), 4) == 6

    def test_requires_isolated_vertex(self):
        with pytest.raises(ValueError):
            delta_zero_exact(path(3), 4)

    def test_requires_n_at_least_s(self):
        h = disjoint_union(complete(2), complete(1))
        with pytest.raises(ValueError):
            delta_zero_exact(h, 1)


class TestSummarize:
    @pytest.mark.parametrize("n,entry", [
        (3, {"name": "isolated_vertex_exact", "kind": "exact", "value": 5, "applicable": True,
             "reason": "", "details": {"s": 2}}),
        (1, {"name": "isolated_vertex_exact", "kind": "exact", "value": None, "applicable": False,
             "reason": "needs n >= s = 2", "details": {}}),
    ])
    def test_isolated_vertex_entry_takes_s_once(self, monkeypatch, n, entry):
        # s = min over v of alpha_with_vertex(h, v): one call per vertex of h
        from fullgraph import bounds
        calls = []
        alpha = bounds.alpha_with_vertex
        monkeypatch.setattr(bounds, "alpha_with_vertex", lambda g, v: calls.append(v) or alpha(g, v))
        h = disjoint_union(path(3), complete(1))
        entries = [e.to_dict() for e in summarize([h], n=n).entries if e.name == "isolated_vertex_exact"]
        assert entries == [entry]
        assert sorted(calls) == list(range(h.order))
        if n >= 2:
            assert entry["value"] == delta_zero_exact(h, n)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_star_against_one_vertex_is_exact(self, m):
        # K2, P3 and K1,3 against E1: f is m, the star itself
        s = summarize([star(m)], n=1)
        entry = next(e for e in s.entries if e.name == "star_exact")
        assert (entry.kind, entry.value, entry.applicable) == ("exact", m, True)
        assert s.best_lower() == s.best_upper() == m

    def test_complement_entries_build_no_complement(self, monkeypatch):
        # the complement entries read co-H's degrees off H, so E_1000 is the only large graph built
        orders = []
        check = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: (orders.append(g.order), check(g)))
        s = summarize([cycle(5)], 1000)
        assert [k for k in orders if k >= 1000] == [1000]
        lower = {e.name: e for e in s.entries if e.name.startswith("min_max_degree_lower")}
        assert list(lower) == ["min_max_degree_lower", "min_max_degree_lower_swapped",
                               "min_max_degree_lower_complement", "min_max_degree_lower_complement_swapped"]
        # co-C5 is C5 and co-E1000 is K1000: min degree 2 against max degree 999
        assert lower["min_max_degree_lower_complement"].reason == "needs 2*max_degree < min_degree; got 2*999 >= 2"

    def test_complete_vs_empty_closes(self):
        s = summarize([complete(2)], n=5)
        assert s.best_lower() == 9
        assert s.best_upper() == 9
        assert s.violations() == []
        names = {e.name for e in s.entries}
        assert "complete_vs_empty_exact" in names
        assert "cyclic_upper" in names

    def test_star_instance_closes(self):
        s = summarize([star(3)], n=5)
        assert s.best_lower() == s.best_upper() == 9

    def test_isolated_instance(self):
        s = summarize([disjoint_union(complete(2), complete(1))], n=3)
        assert s.best_lower() == s.best_upper() == 4

    def test_multi_pattern_instance(self):
        s = summarize([complete(3), path(3), empty(3)])
        uppers = {e.name: e.value for e in s.applicable("upper")}
        assert uppers["design_upper"] == 9
        assert uppers["cyclic_upper"] == 12

    def test_inapplicable_entries_carry_reasons(self):
        s = summarize([star(3)], n=5)
        for e in s.entries:
            if not e.applicable:
                assert e.reason

    def test_every_lower_below_every_upper_across_corpus(self):
        instances = [
            ([complete(2)], 2), ([complete(2)], 9), ([complete(3)], 4),
            ([path(3)], 6), ([star(4)], 8), ([cycle(4)], 5),
            ([complete_bipartite(2, 2)], 7), ([empty(3)], 4),
            ([disjoint_union(complete(2), complete(1))], 5),
        ]
        for pats, n in instances:
            s = summarize(pats, n=n)
            assert s.violations() == []
            lows = [e.value for e in s.applicable("lower")]
            ups = [e.value for e in s.applicable("upper")]
            assert max(lows) <= min(ups), (pats[0].order, n)

    def test_requires_patterns(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize("patterns", [
        [empty(0)], [empty(0), complete(2)], [empty(0), complete(2), empty(3)],
    ])
    def test_rejects_order_zero_patterns(self, patterns):
        with pytest.raises(ValueError, match="patterns must have at least one vertex"):
            summarize(patterns)

    def test_corpus_is_pinned(self):
        # K2, P3 and K1,3 against E1 carry star_exact; the 74 instances with at most
        # one pattern above order 1 carry single_pattern_exact
        out = [s.to_dict() for _, s in _corpus()]
        assert len(out) == 414
        assert hashlib.sha1(json.dumps(out, sort_keys=True).encode()).hexdigest()[:12] == "84b4a731fba8"

    def test_corpus_patterns_read_back(self):
        # each spelled pattern parses to the instance's graph, and the spellings,
        # joined by commas, ask bound the same question again
        names = set()
        for pats, s in _corpus():
            spelled = s.instance["patterns"]
            names.update(spelled)
            assert [parse_pattern(name) for name in spelled] == pats
            assert summarize(parse_pattern_list(",".join(spelled))).to_dict() == s.to_dict()
        assert {name[:3] if name.startswith("g6:") else name[0] for name in names} == {"E", "K", "g6:"}

    @pytest.mark.parametrize("text", ["K1", "K1,K1", "C5,E1", "K3,E1", "E1,P4,K1", "E4"])
    def test_single_pattern_exact_is_f(self, text, tmp_path):
        # the search, not the formula, says f is the largest pattern order
        pats = parse_pattern_list(text)
        s = summarize(pats)
        exact = [e for e in s.applicable("exact") if e.name == "single_pattern_exact"]
        assert [e.value for e in exact] == [max(p.order for p in pats)]
        assert s.best_lower() == s.best_upper() == f_exact(pats, cache_dir=tmp_path).f

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            summarize([complete(3)], n=0)

    def test_single_vertex_patterns(self):
        s = summarize([complete(1)])
        assert (s.best_lower(), s.best_upper()) == (1, 1)
        cyclic = next(e for e in s.entries if e.name == "cyclic_upper")
        assert not cyclic.applicable and cyclic.reason
        s = summarize([complete(1), complete(1)])
        assert s.violations() == []
        assert s.best_lower() == 1 <= s.best_upper()
        # every vertex covers K1, so the ring on K3 alone is full for [K3, K1], and so is K3
        s = summarize([complete(3), empty(1)])
        assert s.best_upper() == 3
        assert next(e.value for e in s.entries if e.name == "cyclic_upper") == 4
        g, _ = cyclic_full([complete(3)])
        assert g.order == 4 and is_full(g, [complete(3), empty(1)]).verdict

    def test_violation_names_both_entries(self):
        entries = [BoundEntry("a", "lower", 9, True), BoundEntry("b", "upper", 8, True),
                   BoundEntry("c", "exact", 8, True), BoundEntry("d", "upper", 1, False)]
        assert BoundSummary({}, entries).violations() == ["lower a=9 exceeds upper b=8"]
        exacts = [BoundEntry("x", "exact", 7, True), BoundEntry("y", "exact", 8, True)]
        assert BoundSummary({}, exacts).violations() == ["exact y=8 exceeds exact x=7"]
        assert BoundSummary({}, entries[1:]).violations() == []
