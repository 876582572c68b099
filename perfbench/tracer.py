"""Per-layer tracing installed from outside the fullgraph package.

Each traced function is replaced, at every module attribute that binds it,
by a wrapper that records a span: name, start, end and the span that was
open when it began.  Spans stay in memory (compact arrays) until the
process ends; ``summary()`` then turns them into per-name call counts and
self times.  A span's self time is its duration minus the durations of its
child spans.  Alias names wrap a function as one module binds it, around the
function's own wrapper; their only child is that span, so their ``.s`` is
reported as the total time of the calls instead.

Counters that need no span (calls to ``Graph.adjacent``, hosts streamed to
``f_exact``, cache hits, bytes read by cache lookups) are kept beside the
spans.  A name missing from the package is listed as absent.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# (metric base, module, attribute path or list of paths).
TARGETS = [
    ("graphs.graph_new", "fullgraph.graphs", "Graph.__post_init__"),
    ("graphs.from_graph6", "fullgraph.graphs", "from_graph6"),
    ("graphs.to_graph6", "fullgraph.graphs", "to_graph6"),
    ("graphs.independent_set_with", "fullgraph.graphs", "independent_set_with"),
    ("graphs.independence_number", "fullgraph.graphs", "independence_number"),
    ("graphs.complement", "fullgraph.graphs", "complement"),
    ("oracle.canonical_search", "fullgraph.oracle", "_canonical_search"),
    ("oracle.refine", "fullgraph.oracle", "_refine"),
    ("oracle.children", "fullgraph.oracle", "_children"),
    ("oracle.cache_lookup", "fullgraph.oracle", "_cache_lookup"),
    ("oracle.cache_store", "fullgraph.oracle", "_cache_store"),
    ("verifier.is_full", "fullgraph.verifier", "is_full"),
    ("verifier.find_copy", "fullgraph.verifier", "find_induced_copy_containing"),
    ("verifier.extend_partial_map", "fullgraph.verifier", "extend_partial_map"),
    ("verifier.has_induced_copy", "fullgraph.verifier", "has_induced_copy"),
    ("constructions.build", "fullgraph.constructions", [
        "cyclic_full", "design_full", "h_vs_empty", "star_full",
        "complete_bipartite_full", "delta_zero_construction",
    ]),
    ("cli.main", "fullgraph.cli", "main"),
]

# (metric base, module, name): the name as that one module binds it.
ALIASES = [
    ("oracle.automorphism_test", "fullgraph.oracle", "extend_partial_map"),
    ("oracle.prefilter", "fullgraph.oracle", "has_induced_copy"),
    ("oracle.host_check", "fullgraph.oracle", "is_full"),
]

SPAN_BASES = [t[0] for t in TARGETS] + [a[0] for a in ALIASES]

COUNTERS = [
    "oracle.subsets_tried",
    "oracle.children_accepted",
    "oracle.hosts_examined",
    "oracle.cache_hits",
    "oracle.cache_bytes_read",
    "verifier.adjacent_calls",
    "verifier.vertices_covered",
]

_clock = time.perf_counter


def _read_rchar() -> int | None:
    """Bytes this process has read through read(2) so far (Linux /proc)."""
    try:
        with open("/proc/self/io", "rb") as fh:
            for line in fh:
                if line.startswith(b"rchar:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.is_alias: list[bool] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.calls: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.present: set[str] = set()
        rchar = _read_rchar()
        # what one pair of /proc reads adds by itself, taken off each lookup
        self.rchar_cost = (_read_rchar() - rchar) if rchar is not None else None

    # -- recording ---------------------------------------------------------

    def _name_id(self, base: str, alias: bool) -> int:
        if base in self.calls:
            # several functions reported under one name share its id
            return self.names.index(base)
        self.names.append(base)
        self.is_alias.append(alias)
        self.calls[base] = 0
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_start.append(_clock())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = _clock()
        self.stack.pop()

    def wrap(self, base: str, fn, alias: bool = False, on_result=None, on_args=None):
        nid = self._name_id(base, alias)
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            calls[base] += 1
            if on_args is not None:
                on_args(args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, base: str, fn, on_args=None):
        """One call per generator made; one span per resumption of it."""
        nid = self._name_id(base, False)
        calls = self.calls
        tracer = self

        def wrapper(*args, **kwargs):
            calls[base] += 1
            if on_args is not None:
                on_args(args, kwargs)
            it = fn(*args, **kwargs)
            while True:
                idx = tracer._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                tracer.counters["oracle.children_accepted"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import fullgraph  # noqa: F401  (loads every submodule the package imports)

        for base, modname, paths in TARGETS:
            for path in paths if isinstance(paths, list) else [paths]:
                self._install_target(base, modname, path)
        for base, modname, name in ALIASES:
            mod = _module(modname)
            current = getattr(mod, name, None) if mod else None
            if current is None:
                continue
            setattr(mod, name, self.wrap(base, current, alias=True))
            self.present.add(base)
        self._install_counters()

    def _install_target(self, base: str, modname: str, path: str) -> None:
        mod = _module(modname)
        if mod is None:
            return
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        original = getattr(holder, attr, None) if holder is not None else None
        if original is None:
            return
        kwargs = self._hooks(base)
        if base == "oracle.children":
            wrapper = self.wrap_generator(base, original, **kwargs)
        else:
            wrapper = self.wrap(base, original, **kwargs)
        if owner:
            setattr(holder, attr, wrapper)
        else:
            _rebind_everywhere(original, wrapper)
        self.present.add(base)

    def _hooks(self, base: str) -> dict:
        counters = self.counters
        if base == "oracle.children":
            def on_args(args, kwargs):
                z = kwargs.get("z", args[1] if len(args) > 1 else None)
                if isinstance(z, int):
                    counters["oracle.subsets_tried"] += 1 << z
            return {"on_args": on_args}
        if base == "oracle.cache_lookup":
            return self._cache_lookup_hooks()
        if base == "verifier.is_full":
            def on_result(report):
                order = getattr(report, "host_order", None)
                coverages = getattr(report, "coverages", None)
                if order is not None and coverages is not None:
                    counters["verifier.vertices_covered"] += sum(
                        order - len(c.uncovered) for c in coverages)
            return {"on_result": on_result}
        return {}

    def _cache_lookup_hooks(self) -> dict:
        counters = self.counters
        cost = self.rchar_cost
        start = [0]

        def on_args(args, kwargs):
            start[0] = _read_rchar() or 0

        def on_result(result):
            if result is not None:
                counters["oracle.cache_hits"] += 1
            if cost is not None:
                counters["oracle.cache_bytes_read"] += max(0, (_read_rchar() or 0) - start[0] - cost)

        return {"on_args": on_args, "on_result": on_result}

    def _install_counters(self) -> None:
        graphs = _module("fullgraph.graphs")
        graph_cls = getattr(graphs, "Graph", None) if graphs else None
        adjacent = getattr(graph_cls, "adjacent", None) if graph_cls else None
        counters = self.counters
        if adjacent is not None:
            def counted_adjacent(self_, u, v):
                counters["verifier.adjacent_calls"] += 1
                return adjacent(self_, u, v)
            graph_cls.adjacent = counted_adjacent
        else:
            counters.pop("verifier.adjacent_calls")

        oracle = _module("fullgraph.oracle")
        stream = getattr(oracle, "enumerate_graphs", None) if oracle else None
        if stream is not None:
            def counted_stream(*args, **kwargs):
                for g in stream(*args, **kwargs):
                    counters["oracle.hosts_examined"] += 1
                    yield g
            oracle.enumerate_graphs = counted_stream
        else:
            counters.pop("oracle.hosts_examined")
        if self.rchar_cost is None:
            counters.pop("oracle.cache_bytes_read")

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self seconds, the counters, and absent names."""
        self_s = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        alias = self.is_alias
        for i in range(len(names)):
            d = ends[i] - starts[i]
            self_s[names[i]] += d
            p = parents[i]
            if p >= 0 and not alias[names[p]]:
                self_s[names[p]] -= d
        return {
            "calls": dict(self.calls),
            "self_s": dict(zip(self.names, self_s)),
            "counters": dict(self.counters),
            "spans": len(names),
            "absent": sorted(set(SPAN_BASES) - self.present),
        }


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _rebind_everywhere(original, wrapper) -> None:
    """Replace ``original`` at every fullgraph module attribute bound to it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "fullgraph" or modname.startswith("fullgraph.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
