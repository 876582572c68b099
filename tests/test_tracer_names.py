"""The names ``perfbench/tracer.py`` wraps are still bound in the package.

The tracer rebinds functions by name, so renaming or inlining one silently
drops its metrics from every traced benchmark run.  Installing it runs in a
child interpreter, so this process's modules are never rebound.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
from tracer import Tracer
tracer = Tracer()
tracer.install()
{then}
print(json.dumps(tracer.summary()))
"""


def traced_summary(then: str = "") -> dict:
    code = INSTALL.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"), then=then)
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_every_wrapped_name_is_present():
    summary = traced_summary()
    assert summary["absent"] == []
    assert "verifier.adjacent_calls" in summary["counters"]
    assert "oracle.hosts_examined" in summary["counters"]


def test_edgeless_copies_go_through_the_wrapped_search():
    # the edgeless searches of is_full must reach the wrapped name, or its count reads 0
    summary = traced_summary("from fullgraph import graphs, verifier\n"
                             "verifier.is_full(graphs.cycle(8), [graphs.empty(3)])")
    assert summary["calls"]["graphs.independent_set_with"] > 0
    assert summary["calls"]["verifier.find_copy"] == summary["calls"]["graphs.independent_set_with"]


def test_enumeration_reaches_every_wrapped_oracle_name():
    # a name can stay bound and still go uncalled, which reads 0 in every traced run
    summary = traced_summary("from fullgraph import oracle\n"
                             "for _ in oracle.enumerate_graphs(8): pass")
    for name in ("oracle.refine", "oracle.canonical_search", "oracle.automorphism_test", "oracle.children"):
        assert summary["calls"][name] > 0, name
    # the tracer reads z as _children's second positional argument; moved or renamed, it counts nothing
    assert summary["counters"]["oracle.subsets_tried"] > 0


def test_construct_reaches_the_wrapped_builders():
    # the tracer rebinds module attributes: a builder held elsewhere, as in a
    # dispatch table, would be called unwrapped and count 0
    summary = traced_summary("from fullgraph import cli\n"
                             "for argv in [['cyclic', '--patterns', 'K2,E2'],\n"
                             "             ['design', '--patterns', 'K2,E2', '--q', '2'],\n"
                             "             ['h_vs_empty', '--patterns', 'P3', '--n', '9'],\n"
                             "             ['star', '--m', '3', '--n', '5'],\n"
                             "             ['complete_bipartite', '--m', '4', '--n', '2'],\n"
                             "             ['delta_zero', '--patterns', 'K2+K1', '--n', '3']]:\n"
                             "    assert cli.main(['construct', '--theorem', *argv]) == 0")
    assert summary["calls"]["constructions.build"] == 6


def test_hosts_examined_counts_the_hosts_the_search_examined(tmp_path):
    # the tracer counts hosts by rebinding oracle.enumerate_graphs, so the
    # search must read that global at call time, and is_full and
    # has_induced_copy must stay bound in oracle
    summary = traced_summary("from fullgraph import oracle, patterns\n"
                             "oracle.f_exact(patterns.parse_pattern_list('C5,E3'), "
                             f"cache_dir={str(tmp_path)!r})")
    record = json.loads((tmp_path / "f_exact.jsonl").read_text())["result"]
    assert summary["counters"]["oracle.hosts_examined"] == sum(record["examined"].values())
    assert summary["calls"]["oracle.prefilter"] > 0
    assert summary["calls"]["oracle.host_check"] > 0
