"""Tests for the benchmark's independent output checker."""

import networkx as nx
import pytest

import checker

# f(K3, E3) = 8; this witness and these counts are what an exhaustive search reports.
K3E3_WITNESS = "G?otYw"
K3E3_ANSWER = {
    "patterns": ["Bw", "B?"],
    "f": 8,
    "witness": K3E3_WITNESS,
    "exhausted_orders": [3, 4, 5, 6, 7],
    "examined": {"3": 4, "4": 11, "5": 34, "6": 156, "7": 1044, "8": 5120},
    "exhaustive": True,
}


def test_atlas_reproduces_a000088():
    assert checker.atlas_counts() == list(checker.A000088[:8])


@pytest.mark.parametrize("name, edges, order", [
    ("K4", 6, 4), ("E3", 0, 3), ("S5", 4, 5), ("P4", 3, 4), ("C5", 5, 5), ("K2+E1", 1, 3),
])
def test_pattern_names(name, edges, order):
    g = checker.pattern(name)
    assert (g.number_of_nodes(), g.number_of_edges()) == (order, edges)


@pytest.mark.parametrize("a, h, same", [
    ("E1000", "E1000", True), ("E999", "E1000", False), ("K9", "K9", True),
    ("K4", "E4", False), ("C5", "C5", True), ("P5", "C5", False),
])
def test_isomorphic(a, h, same):
    assert checker.isomorphic(checker.pattern(a), checker.pattern(h)) is same


def test_closed_forms():
    assert checker.egh_value(3, 3) == 8
    assert checker.star_value(4, 5) == 9
    assert checker.star_value(5, 3) == 7
    assert checker.isolated_value(checker.pattern("K2+E1"), 3) == 4
    assert checker.closed_forms(checker.patterns("K3,E3")) == {"complete_vs_edgeless": 8}
    assert checker.closed_forms(checker.patterns("E5,S4")) == {"star_vs_edgeless": 9}
    assert checker.closed_forms(checker.patterns("C4,E4")) == {}


def test_construction_orders():
    assert checker.h_vs_empty_order(checker.pattern("C5"), 400) == 458
    assert checker.h_vs_empty_order(checker.pattern("C5"), 1000) == 1091
    assert checker.h_vs_empty_order(checker.pattern("K4"), 160) == 206
    assert checker.star_order(10, 1000) == 1064
    assert checker.design_order(9) == 81
    assert checker.cyclic_order(checker.patterns("K6,E6,P6,C6")) == 40


def test_search_answer_accepted():
    assert checker.check_search(K3E3_ANSWER, checker.patterns("K3,E3"), 3) == []


def test_wrong_f_rejected():
    answer = dict(K3E3_ANSWER, f=7)
    assert checker.check_search(answer, checker.patterns("K3,E3"), 3)


def test_non_full_witness_rejected():
    g = checker.decode(K3E3_WITNESS)
    g.add_node(8)  # an isolated vertex lies in no triangle
    assert not checker.is_full_small(g, checker.patterns("K3,E3"))
    answer = dict(K3E3_ANSWER, f=9, witness=checker.encode(g))
    assert checker.check_search(answer, checker.patterns("K3,E3"), 3)


def test_wrong_class_count_rejected():
    answer = dict(K3E3_ANSWER, examined=dict(K3E3_ANSWER["examined"], **{"6": 155}))
    assert checker.check_search(answer, checker.patterns("K3,E3"), 3)


def _report(witnesses, uncovered=(), pattern_g6="Bg"):
    return {
        "verdict": not uncovered,
        "patterns": [{
            "pattern_g6": pattern_g6,
            "uncovered": list(uncovered),
            "witnesses": {str(v): sorted(m) for v, m in witnesses.items()},
        }],
    }


def test_report_accepted():
    host = nx.cycle_graph(5)
    p3 = [checker.pattern("P3")]
    witnesses = {0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2], 3: [2, 3, 4], 4: [2, 3, 4]}
    assert checker.check_report(host, p3, _report(witnesses)) == []


def test_witness_not_induced_rejected():
    host = nx.complete_graph(3)  # holds a path on three vertices, but not an induced one
    report = _report({0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2]})
    assert checker.check_report(host, [checker.pattern("P3")], report)


def test_uncovered_vertex_must_be_reported():
    host = nx.cycle_graph(5)
    host.add_node(5)
    p3 = [checker.pattern("P3")]
    witnesses = {0: [0, 1, 2], 1: [0, 1, 2], 2: [0, 1, 2], 3: [2, 3, 4], 4: [2, 3, 4]}
    assert checker.check_report(host, p3, _report(witnesses))  # vertex 5 missing
    report = _report(witnesses, uncovered=[5])
    assert checker.check_report(host, p3, report, [[5]]) == []
    assert checker.check_report(host, p3, report)  # 5 was not expected to be uncovered


def test_induces_edgeless_and_complete():
    g = nx.disjoint_union(nx.complete_graph(4), nx.empty_graph(3))
    assert checker.induces(g, [0, 1, 2, 3], checker.pattern("K4"))
    assert checker.induces(g, [0, 4, 5, 6], checker.pattern("E4"))
    assert not checker.induces(g, [0, 1, 4, 5], checker.pattern("E4"))
    assert not checker.induces(g, [0, 0, 1, 2], checker.pattern("K4"))
