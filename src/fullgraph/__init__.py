"""Graphs in which every vertex lies in an induced copy of each prescribed pattern.

The package builds such graphs by the known constructions, evaluates the
known order bounds exactly, verifies candidates, and settles small
instances by exhaustive isomorph-free search.

Each public name is imported from its module when it is first used, so
``import fullgraph`` loads no submodule.
"""

# public name -> the module that defines it
_HOME = {
    "Graph": "graphs",
    "Graph6Error": "graphs",
    "ConstructionRecipe": "constructions",
    "FullnessReport": "verifier",
    "ResolvableDesign": "designs",
    "SearchResult": "oracle",
    "affine_plane": "designs",
    "complete_bipartite_full": "constructions",
    "cyclic_full": "constructions",
    "cyclic_upper": "bounds",
    "delta_zero_construction": "constructions",
    "delta_zero_exact": "bounds",
    "design_full": "constructions",
    "design_upper": "bounds",
    "egh_formula": "bounds",
    "enumerate_graphs": "oracle",
    "f_exact": "oracle",
    "from_graph6": "graphs",
    "general_lower_bound": "bounds",
    "h_vs_empty": "constructions",
    "h_vs_empty_upper": "bounds",
    "is_full": "verifier",
    "parse_pattern": "patterns",
    "parse_pattern_list": "patterns",
    "recheck_witness": "verifier",
    "star_closed_form": "bounds",
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
