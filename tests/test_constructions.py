"""Every builder must deliver its claimed order and pass the fullness check."""

import hashlib
import json

import pytest

from fullgraph import bounds
from fullgraph.bounds import InternalInvariantError, cyclic_upper, star_exact, star_upper
from fullgraph.constructions import (
    complete_bipartite_full,
    cyclic_full,
    delta_zero_construction,
    design_full,
    h_vs_empty,
    star_full,
)
from fullgraph.designs import ResolvableDesign, affine_plane, validate_design
from fullgraph.graphs import (
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    from_graph6,
    path,
    star,
    to_graph6,
)
from fullgraph.patterns import parse_pattern, parse_pattern_list
from fullgraph.verifier import is_full


class TestCyclicFull:
    CASES = [
        [complete(2)],
        [empty(3)],
        [path(3)],
        [complete(2), empty(2)],
        [complete(3), empty(3)],
        [path(3), complete(3)],
        [star(4), cycle(4)],
        [complete(3), path(4), empty(3)],
        [cycle(5), star(3), complete(4)],
        [complete_bipartite(2, 2)],
        [disjoint_union(complete(2), complete(1)), path(3)],
        [complete(4), complete(4)],
        [path(5), cycle(4), star(4), complete(3)],
    ]

    @pytest.mark.parametrize("pats", CASES, ids=lambda ps: ",".join(str(p.order) for p in ps))
    def test_order_and_fullness(self, pats):
        g, recipe = cyclic_full(pats)
        assert g.order == recipe.claimed_order == cyclic_upper(pats)
        assert is_full(g, pats).verdict

    def test_matches_exact_value_for_k3_e3(self):
        # the one instance where this construction is known optimal
        g, _ = cyclic_full([complete(3), empty(3)])
        assert g.order == 8

    def test_single_edge_pattern(self):
        g, recipe = cyclic_full([complete(2)])
        assert g.order == 2
        assert is_full(g, [complete(2)]).verdict

    def test_recipe_parameters(self):
        g, recipe = cyclic_full([complete(3), empty(3)])
        assert recipe.theorem_tag == "cyclic"
        p = recipe.parameters
        assert len(p["block_starts"]) == 4
        assert p["block_orders"] == [2, 2, 2, 2]
        d = recipe.to_dict()
        assert d["claimed_order"] == 8

    def test_rejects_trivial_inputs(self):
        with pytest.raises(ValueError):
            cyclic_full([])
        with pytest.raises(ValueError):
            cyclic_full([complete(1)])


class TestDesignFull:
    def test_three_patterns_on_nine_points(self):
        d = affine_plane(3)
        pats = [complete(3), path(3), empty(3)]
        g, recipe = design_full(pats, d)
        assert g.order == 9 == recipe.claimed_order
        assert is_full(g, pats).verdict

    def test_four_order_three_patterns_beat_cyclic(self):
        d = affine_plane(3)
        pats = [complete(3), path(3), empty(3), disjoint_union(complete(2), complete(1))]
        g, _ = design_full(pats, d)
        assert g.order == 9 < cyclic_upper(pats) == 16
        assert is_full(g, pats).verdict

    def test_padding_small_patterns(self):
        d = affine_plane(3)
        pats = [complete(2), empty(2), star(3)]
        g, recipe = design_full(pats, d)
        assert g.order == 9
        assert is_full(g, pats).verdict
        assert len(recipe.parameters["padded_patterns"]) == 3

    def test_order_two_patterns_on_four_points(self):
        d = affine_plane(2)
        pats = [complete(2), empty(2), path(2)]
        g, _ = design_full(pats, d)
        assert g.order == 4
        assert is_full(g, pats).verdict

    def test_edgeless_pattern_alone_adds_no_edges(self):
        q = 3
        g, _ = design_full([empty(q)], affine_plane(q))
        assert g.edge_count() == 0

    def test_five_patterns_on_sixteen_points(self):
        d = affine_plane(4)
        pats = [complete(4), empty(4), path(4), cycle(4), star(4)]
        g, _ = design_full(pats, d)
        assert g.order == 16
        assert is_full(g, pats).verdict

    def test_rejects_too_many_patterns(self):
        with pytest.raises(ValueError):
            design_full([complete(3)] * 5, affine_plane(3))

    def test_rejects_oversized_pattern(self):
        with pytest.raises(ValueError):
            design_full([complete(4)], affine_plane(3))

    def test_rejects_invalid_design(self):
        d = affine_plane(3)
        broken = ResolvableDesign(9, 3, d.classes[:-1])
        with pytest.raises(ValueError):
            design_full([complete(3)], broken)

    def test_rejects_pair_in_two_blocks(self):
        # swapping one point between two lines of a class keeps the class a
        # partition, but some pair then lies on two lines
        d = affine_plane(3)
        (a, b, c), (x, y, z), third = d.classes[0]
        moved = ((a, b, x), (c, y, z), third)
        twice = ResolvableDesign(9, 3, (moved,) + d.classes[1:])
        with pytest.raises(ValueError, match="invalid design"):
            design_full([complete(3)], twice)

    def test_resolvable_design_that_is_not_a_plane(self):
        # the round-robin one-factorization of K6 is resolvable, with 6 points in pairs
        classes = tuple(((5, i), ((i + 1) % 5, (i + 4) % 5), ((i + 2) % 5, (i + 3) % 5))
                        for i in range(5))
        d = ResolvableDesign(6, 2, tuple(tuple(tuple(sorted(b)) for b in c) for c in classes))
        assert validate_design(d) == []
        pats = [complete(2), empty(2), complete(1)]
        g, recipe = design_full(pats, d)
        assert g.order == recipe.claimed_order == 6
        assert is_full(g, pats).verdict


class TestHVsEmpty:
    def test_pinned_p3_case(self):
        g, recipe = h_vs_empty(path(3), 9)
        assert g.order == 15 == recipe.claimed_order
        assert recipe.parameters["r"] == 4
        assert recipe.parameters["s"] == 3
        assert is_full(g, [path(3), empty(9)]).verdict

    def test_pinned_k2_case(self):
        g, recipe = h_vs_empty(complete(2), 4)
        assert g.order == 8
        assert recipe.parameters["r"] == 3 and recipe.parameters["s"] == 2
        assert is_full(g, [complete(2), empty(4)]).verdict

    def test_pinned_k3_case(self):
        g, recipe = h_vs_empty(complete(3), 9)
        assert g.order == 19
        assert recipe.parameters["r"] == 4
        assert is_full(g, [complete(3), empty(9)]).verdict

    def test_recipe_w_split_shape(self):
        _, recipe = h_vs_empty(path(3), 9)
        sizes = recipe.parameters["w_sizes"]
        s = recipe.parameters["s"]
        r = recipe.parameters["r"]
        assert len(sizes) == r
        assert sizes[-1] == s - 1
        assert sum(sizes) == 9 - 1 + s
        assert all(x in (s, s - 1) for x in sizes[:-1])
        assert r >= 3 * recipe.parameters["m_prime"]

    @pytest.mark.parametrize("h", [
        complete(2), path(3), complete(3), cycle(4), star(4),
        complete(4), cycle(5), complete_bipartite(2, 2), complete(5),
    ], ids=lambda h: f"order{h.order}e{h.edge_count()}")
    def test_sweep_default_r(self, h):
        built = 0
        for n in (3, 4, 5, 8, 12, 20):
            try:
                g, recipe = h_vs_empty(h, n)
            except ValueError:
                continue
            assert g.order == recipe.claimed_order
            assert is_full(g, [h, empty(n)]).verdict, (h.order, n, recipe.parameters)
            built += 1
        assert built >= 3

    def test_explicit_r(self):
        for h, n, r in [(path(3), 9, 5), (path(3), 9, 3), (complete(3), 12, 6), (star(4), 20, 9)]:
            g, recipe = h_vs_empty(h, n, r=r)
            assert recipe.parameters["r"] == r
            assert is_full(g, [h, empty(n)]).verdict

    def test_rejects_r_below_floor(self):
        with pytest.raises(ValueError):
            h_vs_empty(path(3), 9, r=2)

    def test_rejects_isolated_pattern(self):
        with pytest.raises(ValueError):
            h_vs_empty(empty(3), 5)

    def test_rejects_n_below_split(self):
        # every independent-set part must stay nonempty
        with pytest.raises(ValueError):
            h_vs_empty(complete(2), 1)
        with pytest.raises(ValueError):
            h_vs_empty(complete(2), 2)
        with pytest.raises(ValueError):
            h_vs_empty(path(3), 2, r=3)


class TestStarFull:
    def test_pinned_case(self):
        g, recipe = star_full(3, 5)
        assert g.order == 9 == recipe.claimed_order
        assert recipe.parameters["k"] == 2 and recipe.parameters["r"] == 3
        assert is_full(g, [star(3), empty(5)]).verdict

    def test_explicit_k(self):
        g, recipe = star_full(2, 5, k=2)
        assert g.order == 9
        assert is_full(g, [star(2), empty(5)]).verdict

    def test_four_four_reaches_eight(self):
        g, recipe = star_full(4, 4)
        assert g.order == 8
        assert is_full(g, [star(4), empty(4)]).verdict

    def test_default_k_tracks_minimum(self):
        for m in range(2, 8):
            for n in range(m, 13):
                g, recipe = star_full(m, n)
                assert g.order == recipe.claimed_order == star_upper(m, n).value
                assert g.order == star_exact(m, n)

    def test_sweep_fullness(self):
        for m in range(2, 7):
            for n in range(m, 12):
                g, recipe = star_full(m, n)
                assert is_full(g, [star(m), empty(n)]).verdict, (m, n, recipe.parameters)

    def test_explicit_k_sweep(self):
        for m in (3, 4, 5):
            for n in (m, m + 2, m + 5):
                for k in range(1, n):
                    try:
                        g, recipe = star_full(m, n, k=k)
                    except ValueError:
                        continue
                    assert is_full(g, [star(m), empty(n)]).verdict, (m, n, k)

    def test_graph_is_bipartite_with_no_isolated_vertex(self):
        g, recipe = star_full(4, 7)
        assert all(g.degree(v) >= 1 for v in range(g.order))
        part_a = set(recipe.parameters["part_a"]) if "part_a" in recipe.parameters else None
        # schedule lists each center's leaves; centers plus leaves cover the graph
        schedule = recipe.parameters["schedule"]
        assert all(len(ys) == recipe.parameters["k"] for ys in schedule.values())

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            star_full(3, 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            star_full(3, 5, k=0)
        with pytest.raises(ValueError):
            star_full(3, 5, k=5)


class TestCompleteBipartiteFull:
    def test_pinned_cases(self):
        g, recipe = complete_bipartite_full(4, 2)
        assert g.order == 5 == recipe.claimed_order
        assert is_full(g, [star(4), empty(2)]).verdict
        g, _ = complete_bipartite_full(3, 2)
        assert g.order == 4
        g, _ = complete_bipartite_full(5, 4)
        assert g.order == 8

    def test_sweep(self):
        for m in range(3, 9):
            for n in range(2, m):
                g, recipe = complete_bipartite_full(m, n)
                assert g.order == n + m - 1
                assert is_full(g, [star(m), empty(n)]).verdict

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            complete_bipartite_full(3, 3)
        with pytest.raises(ValueError):
            complete_bipartite_full(3, 1)


class TestDeltaZeroConstruction:
    def test_pinned_case(self):
        h = disjoint_union(complete(2), complete(1))
        g, recipe = delta_zero_construction(h, 3)
        assert g.order == 4 == recipe.claimed_order
        assert is_full(g, [h, empty(3)]).verdict

    def test_path_plus_isolate(self):
        h = disjoint_union(path(3), complete(1))
        g, _ = delta_zero_construction(h, 4)
        assert g.order == 6
        assert is_full(g, [h, empty(4)]).verdict

    def test_edgeless_pattern(self):
        g, _ = delta_zero_construction(empty(3), 5)
        assert g.order == 5
        assert is_full(g, [empty(3), empty(5)]).verdict

    def test_rejects_positive_min_degree(self):
        with pytest.raises(ValueError):
            delta_zero_construction(path(3), 5)

    def test_rejects_small_n(self):
        h = disjoint_union(complete(2), complete(1))
        with pytest.raises(ValueError):
            delta_zero_construction(h, 1)


class TestRecipeSerialization:
    def test_all_recipes_serialize_to_plain_json_types(self):
        import json

        builds = [
            cyclic_full([complete(3), empty(3)])[1],
            design_full([complete(3)], affine_plane(3))[1],
            h_vs_empty(path(3), 9)[1],
            star_full(3, 5)[1],
            complete_bipartite_full(4, 2)[1],
            delta_zero_construction(disjoint_union(complete(2), complete(1)), 3)[1],
        ]
        tags = [b.theorem_tag for b in builds]
        assert tags == ["cyclic", "design", "h_vs_empty", "star", "complete_bipartite", "delta_zero"]
        for recipe in builds:
            text = json.dumps(recipe.to_dict(), sort_keys=True)
            assert json.loads(text)["claimed_order"] == recipe.claimed_order


class TestClaimedOrders:
    """Each builder takes its claimed order from bounds and checks the build against it.

    delta_zero_construction reads s back from its claimed order, and
    design_full claims its design's point count, so their builds meet the
    claim by construction and are left out here.
    """

    BUILDS = [
        ("cyclic_upper", lambda: cyclic_full([complete(3), empty(3)])),
        ("h_vs_empty_order", lambda: h_vs_empty(path(3), 9)),
        ("star_order", lambda: star_full(3, 5)),
        ("star_exact", lambda: complete_bipartite_full(4, 2)),
    ]

    @pytest.mark.parametrize("name,build", BUILDS, ids=[b[0] for b in BUILDS])
    def test_wrong_claim_is_an_internal_error(self, monkeypatch, name, build):
        _, recipe = build()
        formula = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args: formula(*args) + 1)
        with pytest.raises(InternalInvariantError, match=f"claimed {recipe.claimed_order + 1}"):
            build()


class TestBuildsArePinned:
    """Every builder's graph6 output and recipe, pinned by one digest."""

    CYCLIC = ["K2", "E2", "K3", "E3", "P3", "K4", "E4", "C4", "P4", "S4", "C5", "K2+E1"]

    def _corpus(self):
        pats = [parse_pattern(t) for t in self.CYCLIC]
        yield from (cyclic_full([p]) for p in pats)
        yield from (cyclic_full([a, b]) for a in pats for b in pats)
        yield cyclic_full(parse_pattern_list("K6,E6,P6,C6"))
        for q in (3, 4, 5, 7, 8, 9):
            yield design_full(parse_pattern_list(f"K{q},E{q},P{q},C{q}"), affine_plane(q))
        for m in range(2, 11):
            for n in (m, m + 3, 50, 200):
                yield star_full(m, n)
        yield star_full(10, 1000)
        for m in range(3, 9):
            for n in range(2, m):
                yield complete_bipartite_full(m, n)
        for h in ("C5", "K4", "P3", "K3", "S4"):
            for n in (40, 160, 400):
                yield h_vs_empty(parse_pattern(h), n)
        for h in ("K2+E1", "P3+E1", "E2", "K3+E1"):
            for n in range(2, 8):
                try:
                    yield delta_zero_construction(parse_pattern(h), n)
                except ValueError:
                    pass

    def test_digest(self):
        lines = [to_graph6(g) + " " + json.dumps(r.to_dict(), sort_keys=True)
                 for g, r in self._corpus()]
        assert len(lines) == 260
        digest = hashlib.sha1("\n".join(lines).encode()).hexdigest()[:12]
        assert digest == "91a66a3ef362"
