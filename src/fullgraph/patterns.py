"""Tiny textual language for naming pattern graphs on the command line.

Grammar: a pattern is one or more terms joined by '+', meaning disjoint
union.  Terms: K<n> complete, E<n> edgeless, S<n> star of order n,
P<n> path, C<n> cycle, or g6:<string> for a literal graph6 graph.
"""

from __future__ import annotations

import re

from . import graphs
from .graphs import Graph, from_graph6

_TERM = re.compile(r"^([KESPC])([0-9]+)$")


def _parse_term(term: str) -> Graph:
    if term.startswith("g6:"):
        return from_graph6(term[3:])
    m = _TERM.match(term)
    if not m:
        raise ValueError(
            f"cannot parse pattern term {term!r}: expected K<n>, E<n>, S<n>, P<n>, "
            "C<n>, or g6:<graph6>"
        )
    kind, num = m.group(1), int(m.group(2))
    if kind == "K":
        if num < 1:
            raise ValueError("K<n> needs n >= 1")
        return graphs.complete(num)
    if kind == "E":
        if num < 1:
            raise ValueError("E<n> needs n >= 1")
        return graphs.empty(num)
    if kind == "S":
        if num < 2:
            raise ValueError("S<n> needs n >= 2")
        return graphs.star(num)
    if kind == "P":
        if num < 1:
            raise ValueError("P<n> needs n >= 1")
        return graphs.path(num)
    if num < 3:
        raise ValueError("C<n> needs n >= 3")
    return graphs.cycle(num)


def parse_pattern(text: str) -> Graph:
    """One pattern graph from its textual name."""
    terms = [t.strip() for t in text.split("+")]
    if not terms or any(not t for t in terms):
        raise ValueError(f"cannot parse pattern {text!r}")
    g = graphs.disjoint_union(*[_parse_term(t) for t in terms])
    if g.order == 0:
        raise ValueError(f"pattern {text!r} has no vertices")
    return g


def parse_pattern_list(text: str) -> list[Graph]:
    """Comma-separated pattern names."""
    items = [t.strip() for t in text.split(",")]
    if not items or any(not t for t in items):
        raise ValueError(f"cannot parse pattern list {text!r}")
    return [parse_pattern(t) for t in items]
