"""Regenerate ``warm_instances.json``, the instances behind the cache_warm workload.

Usage: python3 perfbench/warm_instances.py

An instance is a pair (repeats allowed) or a triple (distinct) of graphs of
order 2..4, written as graph6 literals in the CLI's pattern language.  It is
kept when some graph of order at most 5 is full for it; its f is the least
such order.  Everything is computed by ``checker.py`` over the networkx
atlas, without fullgraph, so the f values are expected values the benchmark
can check answers against.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import networkx as nx

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checker  # noqa: E402

MAX_F = 5
OUT = Path(__file__).resolve().parent / "warm_instances.json"


def least_full_order(patterns: list[nx.Graph], atlas: list[nx.Graph]) -> int | None:
    lo = max(p.number_of_nodes() for p in patterns)
    for order in range(lo, MAX_F + 1):
        if any(checker.is_full_small(g, patterns) for g in atlas
               if g.number_of_nodes() == order):
            return order
    return None


def main() -> int:
    atlas = nx.graph_atlas_g()
    small = [g for g in atlas if 2 <= g.number_of_nodes() <= 4]
    combos = itertools.chain(itertools.combinations_with_replacement(range(len(small)), 2),
                             itertools.combinations(range(len(small)), 3))
    instances = []
    for combo in combos:
        pats = [small[i] for i in combo]
        f = least_full_order(pats, atlas)
        if f is not None:
            names = ",".join("g6:" + checker.encode(p) for p in pats)
            instances.append({"patterns": names, "f": f})
    lines = ",\n".join("  " + json.dumps(inst) for inst in instances)
    OUT.write_text(f'{{"max_f": {MAX_F}, "instances": [\n{lines}\n]}}\n')
    print(f"{len(instances)} instances written to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
