"""Graphs in which every vertex lies in an induced copy of each prescribed pattern.

The package builds such graphs by the known constructions, evaluates the
known order bounds exactly, verifies candidates, and settles small
instances by exhaustive isomorph-free search.

The root exports what a caller calls, constructs or catches.  Each name is
imported from its module when it is first used, so ``import fullgraph``
loads no submodule.
"""

# public name -> the module that defines it
_HOME = {
    "Graph": "graphs",
    "Graph6Error": "graphs",
    "ResolvableDesign": "designs",
    "affine_plane": "designs",
    "cyclic_full": "constructions",
    "design_full": "constructions",
    "egh_formula": "bounds",
    "enumerate_graphs": "oracle",
    "f_exact": "oracle",
    "from_graph6": "graphs",
    "h_vs_empty": "constructions",
    "is_full": "verifier",
    "parse_pattern": "patterns",
    "parse_pattern_list": "patterns",
    "recheck_witness": "verifier",
    "star_exact": "bounds",
    "star_full": "constructions",
    "summarize": "bounds",
    "to_graph6": "graphs",
}
__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
