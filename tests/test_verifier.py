"""Induced-copy search and fullness verdicts, cross-checked against brute force.

The brute-force oracle enumerates vertex subsets and permutations directly,
sharing no code with the search under test.
"""

import itertools
import json
import random

import pytest

from fullgraph.cli import main
from fullgraph.constructions import h_vs_empty
from fullgraph.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty,
    independent_set_with,
    path,
    relabeled,
    star,
    to_graph6,
)
from fullgraph.verifier import (
    extend_partial_map,
    find_induced_copy_containing,
    has_induced_copy,
    is_full,
    recheck_witness,
)


def brute_has_copy(host, pat, anchor=None):
    for sub in itertools.combinations(range(host.order), pat.order):
        if anchor is not None and anchor not in sub:
            continue
        for perm in itertools.permutations(sub):
            if all(
                host.adjacent(perm[i], perm[j]) == pat.adjacent(i, j)
                for i in range(pat.order)
                for j in range(i + 1, pat.order)
            ):
                return True
    return False


def random_graph(rng, lo, hi):
    n = rng.randint(lo, hi)
    p = rng.random()
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


PATTERNS = [
    complete(1), complete(2), empty(2), path(3), complete(3), empty(3),
    star(4), cycle(4), path(4), complete(4), empty(4), complete_bipartite(2, 2),
]


class TestExtendPartialMap:
    def test_agrees_with_brute_force(self):
        rng = random.Random(90125)
        for _ in range(80):
            host = random_graph(rng, 1, 7)
            for pat in PATTERNS:
                if pat.order > host.order:
                    continue
                got = extend_partial_map(host, pat, {})
                assert (got is not None) == brute_has_copy(host, pat)
                if got is not None:
                    assert recheck_witness(host, pat, got)

    def test_pins_are_respected(self):
        host = cycle(5)
        found = extend_partial_map(host, path(3), {1: 0})
        assert found is not None and found[1] == 0
        assert recheck_witness(host, path(3), found)

    def test_full_pinning_validates_a_map(self):
        host = path(4)
        ok = extend_partial_map(host, path(3), {0: 0, 1: 1, 2: 2})
        assert ok == {0: 0, 1: 1, 2: 2}
        bad = extend_partial_map(host, path(3), {0: 0, 1: 2, 2: 1})
        assert bad is None

    def test_infeasible_pins_return_none(self):
        assert extend_partial_map(complete(3), empty(2), {0: 0}) is None
        # duplicate host image
        assert extend_partial_map(path(4), path(3), {0: 1, 2: 1}) is None

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            extend_partial_map(path(3), empty(0), {})
        with pytest.raises(ValueError):
            extend_partial_map(path(3), path(3), {0: 9})
        with pytest.raises(ValueError):
            extend_partial_map(path(3), path(3), {7: 0})

    def test_pattern_larger_than_host(self):
        assert extend_partial_map(path(3), path(4), {}) is None


class TestAnchoredSearch:
    def test_agrees_with_brute_force(self):
        rng = random.Random(5150)
        for _ in range(60):
            host = random_graph(rng, 1, 7)
            for pat in PATTERNS:
                if pat.order > host.order:
                    continue
                for v in range(host.order):
                    got = find_induced_copy_containing(host, pat, v)
                    assert (got is not None) == brute_has_copy(host, pat, v)
                    if got is not None:
                        assert v in got.values()
                        assert recheck_witness(host, pat, got)

    def test_empty_and_complete_fast_paths_agree(self):
        # the special-cased pattern shapes must behave exactly like the DFS
        rng = random.Random(2600)
        for _ in range(60):
            host = random_graph(rng, 1, 8)
            for t in range(1, host.order + 1):
                for pat in (empty(t), complete(t)):
                    for v in range(host.order):
                        fast = find_induced_copy_containing(host, pat, v)
                        slow = next(
                            (
                                m
                                for a in range(pat.order)
                                if (m := extend_partial_map(host, pat, {a: v})) is not None
                            ),
                            None,
                        )
                        assert (fast is None) == (slow is None)
                        if fast is not None:
                            assert recheck_witness(host, pat, fast)

    def test_preferred_vertices_reach_the_edgeless_search(self):
        # is_full passes its uncovered vertices; only edgeless patterns use them
        rng = random.Random(4242)
        for _ in range(40):
            host = random_graph(rng, 1, 9)
            prefer = rng.getrandbits(host.order)
            for pat in PATTERNS:
                if pat.order > host.order:
                    continue
                for v in range(host.order):
                    got = find_induced_copy_containing(host, pat, v, prefer)
                    if pat.edge_count():
                        assert got == find_induced_copy_containing(host, pat, v)
                    else:
                        members = independent_set_with(host, v, pat.order, prefer)
                        assert got == (None if members is None else dict(enumerate(members)))

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            find_induced_copy_containing(path(3), path(3), 3)


class TestHasInducedCopy:
    def test_agrees_with_brute_force(self):
        rng = random.Random(424242)
        for _ in range(60):
            host = random_graph(rng, 1, 7)
            for pat in PATTERNS:
                assert has_induced_copy(host, pat) == brute_has_copy(host, pat)

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            has_induced_copy(path(3), empty(0))


class TestIsFull:
    def test_matching_is_full_for_edge_and_nonedge(self):
        g = Graph.from_edges(4, [(0, 2), (1, 3)])
        assert is_full(g, [complete(2), empty(2)]).verdict

    def test_path4_is_full_for_edge_and_nonedge(self):
        assert is_full(path(4), [complete(2), empty(2)]).verdict

    def test_complete_graph_fails_empty_pattern(self):
        rep = is_full(complete(4), [complete(2), empty(2)])
        assert not rep.verdict
        assert rep.coverages[1].uncovered == (0, 1, 2, 3)

    def test_verdict_over_all_patterns(self):
        # C5 has induced P3 everywhere but no induced C4
        assert is_full(cycle(5), [path(3)]).verdict
        assert not is_full(cycle(5), [path(3), cycle(4)]).verdict

    def test_report_shape(self):
        rep = is_full(path(4), [complete(2), empty(2)])
        d = rep.to_dict()
        assert d["verdict"] is True
        assert len(d["patterns"]) == 2
        for entry in d["patterns"]:
            assert set(entry) == {"pattern_g6", "uncovered", "witnesses"}
            assert entry["uncovered"] == []
            for v, members in entry["witnesses"].items():
                assert int(v) in members

    def test_every_witness_rechecks(self):
        rng = random.Random(31415)
        for _ in range(40):
            host = random_graph(rng, 1, 7)
            pats = [p for p in (complete(2), empty(2), path(3)) if p.order <= host.order]
            if not pats:
                continue
            rep = is_full(host, pats)
            for pat, cov in zip(pats, rep.coverages):
                for v, role_map in cov.witnesses.items():
                    assert v in role_map.values()
                    assert recheck_witness(host, pat, role_map)

    def test_uncovered_vertices_really_lack_copies(self):
        rng = random.Random(27182)
        for _ in range(40):
            host = random_graph(rng, 1, 6)
            pats = [p for p in PATTERNS if p.order <= host.order][:4]
            if not pats:
                continue
            rep = is_full(host, pats)
            for pat, cov in zip(pats, rep.coverages):
                for v in cov.uncovered:
                    assert not brute_has_copy(host, pat, v)
                covered = set(range(host.order)) - set(cov.uncovered)
                for v in covered:
                    assert brute_has_copy(host, pat, v)

    def test_requires_patterns(self):
        with pytest.raises(ValueError):
            is_full(path(3), [])

    def test_rejects_order_zero_pattern(self):
        with pytest.raises(ValueError):
            is_full(path(3), [Graph(0, ())])


class TestRecheckWitness:
    def test_accepts_valid_map(self):
        assert recheck_witness(path(4), path(3), {0: 0, 1: 1, 2: 2})

    def test_rejects_partial_map(self):
        assert not recheck_witness(path(4), path(3), {0: 0, 1: 1})

    def test_rejects_duplicate_images(self):
        assert not recheck_witness(path(4), path(3), {0: 0, 1: 1, 2: 1})

    def test_rejects_out_of_range(self):
        assert not recheck_witness(path(4), path(3), {0: 0, 1: 1, 2: 9})

    def test_rejects_wrong_adjacency(self):
        assert not recheck_witness(path(4), path(3), {0: 0, 1: 2, 2: 1})
        # non-edge where the pattern wants none but host has one
        assert not recheck_witness(complete(3), empty(3), {0: 0, 1: 1, 2: 2})


class TestLargeHosts:
    def test_relabeled_construction_is_full(self):
        # candidate masks make the search independent of the host's labeling
        host, _ = h_vs_empty(cycle(5), 1000)
        perm = list(range(host.order))
        random.Random(1091).shuffle(perm)
        host = relabeled(host, perm)
        rep = is_full(host, [cycle(5)])
        assert rep.verdict
        assert len(rep.coverages[0].witnesses) == host.order
        for role_map in rep.coverages[0].witnesses.values():
            assert recheck_witness(host, cycle(5), role_map)

    def test_perfect_matching_against_half_edgeless(self, tmp_path, capsys):
        # raised RecursionError while the independent-set search recursed once per member
        host = Graph.from_edges(2400, [(2 * i, 2 * i + 1) for i in range(1200)])
        rep = is_full(host, [empty(1200)])
        assert rep.verdict
        for v in (0, 1, 2399):
            assert recheck_witness(host, empty(1200), rep.coverages[0].witnesses[v])
        f = tmp_path / "matching.g6"
        f.write_text(to_graph6(host) + "\n")
        assert main(["verify", str(f), "--patterns", "E1200"]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] is True


class TestEdgelessCoverage:
    def test_matching_needs_two_edgeless_witnesses(self):
        # each search takes uncovered ends first, so the second covers the rest
        host = Graph.from_edges(400, [(2 * i, 2 * i + 1) for i in range(200)])
        rep = is_full(host, [empty(200)])
        assert rep.verdict
        maps = {id(m): m for m in rep.coverages[0].witnesses.values()}
        assert len(maps) == 2
        assert all(recheck_witness(host, empty(200), m) for m in maps.values())
