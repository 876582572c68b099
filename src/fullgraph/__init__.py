"""Graphs in which every vertex lies in an induced copy of each prescribed pattern.

The package builds such graphs by the known constructions, evaluates the
known order bounds exactly, verifies candidates, and settles small
instances by exhaustive isomorph-free search.
"""

from .bounds import (
    cyclic_upper,
    delta_zero_exact,
    design_upper,
    egh_formula,
    general_lower_bound,
    h_vs_empty_upper,
    star_closed_form,
    star_exact,
    summarize,
)
from .constructions import (
    ConstructionRecipe,
    complete_bipartite_full,
    cyclic_full,
    delta_zero_construction,
    design_full,
    h_vs_empty,
    star_full,
)
from .designs import ResolvableDesign, affine_plane
from .graphs import Graph, Graph6Error, from_graph6, to_graph6
from .oracle import SearchResult, enumerate_graphs, f_exact
from .patterns import parse_pattern, parse_pattern_list
from .verifier import FullnessReport, is_full, recheck_witness

__all__ = [
    "Graph",
    "Graph6Error",
    "ConstructionRecipe",
    "FullnessReport",
    "ResolvableDesign",
    "SearchResult",
    "affine_plane",
    "complete_bipartite_full",
    "cyclic_full",
    "cyclic_upper",
    "delta_zero_construction",
    "delta_zero_exact",
    "design_full",
    "design_upper",
    "egh_formula",
    "enumerate_graphs",
    "f_exact",
    "from_graph6",
    "general_lower_bound",
    "h_vs_empty",
    "h_vs_empty_upper",
    "is_full",
    "parse_pattern",
    "parse_pattern_list",
    "recheck_witness",
    "star_closed_form",
    "star_exact",
    "star_full",
    "summarize",
    "to_graph6",
]
