"""Tiny textual language for naming pattern graphs on the command line.

Grammar: a pattern is one or more terms joined by '+', meaning disjoint
union.  Terms: K<n> complete, E<n> edgeless, S<n> star of order n,
P<n> path, C<n> cycle, or g6:<string> for a literal graph6 graph.
``pattern_name`` spells a graph back in this grammar.
"""

from __future__ import annotations

import re

from . import graphs
from .graphs import Graph, from_graph6, is_complete_graph, is_empty_graph, to_graph6

# letter: (least order, builder)
_FAMILIES = {
    "K": (1, graphs.complete),
    "E": (1, graphs.empty),
    "S": (2, graphs.star),
    "P": (1, graphs.path),
    "C": (3, graphs.cycle),
}
_TERM = re.compile(f"^([{''.join(_FAMILIES)}])([0-9]+)$")


def _parse_term(term: str) -> Graph:
    if term.startswith("g6:"):
        return from_graph6(term[3:])
    m = _TERM.match(term)
    if not m:
        kinds = "".join(f"{kind}<n>, " for kind in _FAMILIES)
        raise ValueError(f"cannot parse pattern term {term!r}: expected {kinds}or g6:<graph6>")
    kind, num = m.group(1), int(m.group(2))
    least, build = _FAMILIES[kind]
    if num < least:
        raise ValueError(f"{kind}<n> needs n >= {least}")
    return build(num)


def parse_pattern(text: str) -> Graph:
    """One pattern graph from its textual name."""
    terms = [t.strip() for t in text.split("+")]
    if not terms or any(not t for t in terms):
        raise ValueError(f"cannot parse pattern {text!r}")
    parts = [_parse_term(t) for t in terms]
    g = parts[0] if len(parts) == 1 else graphs.disjoint_union(*parts)
    if g.order == 0:
        raise ValueError(f"pattern {text!r} has no vertices")
    return g


def pattern_name(g: Graph) -> str:
    """The name ``parse_pattern`` reads back as ``g``: E<n>, K<n>, or else g6:<graph6>."""
    if is_empty_graph(g):
        return f"E{g.order}"
    if is_complete_graph(g):
        return f"K{g.order}"
    return "g6:" + to_graph6(g)


def parse_pattern_list(text: str) -> list[Graph]:
    """Comma-separated pattern names."""
    items = [t.strip() for t in text.split(",")]
    if not items or any(not t for t in items):
        raise ValueError(f"cannot parse pattern list {text!r}")
    return [parse_pattern(t) for t in items]
