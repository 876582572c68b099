"""Command-line front end.

Subcommands: construct (build by the theorem for one instance family, and
optionally verify), verify (fullness report for a host), bound (every
applicable formula for the instance --patterns names), search (exact minimum
via enumeration), design (affine plane as JSON).  JSON goes to stdout,
diagnostics to stderr.  Exit codes: 0 success / verdict true, 1 verdict
false or failed verification, 2 usage, parse or size error, 3 internal
invariant breach or any other unexpected exception (with its traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

# what every command needs; each command imports the rest when it runs
from .graphs import Graph6Error, InternalInvariantError, empty, from_graph6, star, to_graph6
from .patterns import parse_pattern_list

# theorem: (required flags, optional flags); with --patterns and --n it builds one pattern against E_n.
# One theorem per family: h_vs_empty and star each pick their regime from the instance.
_THEOREMS = {
    "cyclic": (("patterns",), ()),
    "design": (("patterns", "q"), ()),
    "h_vs_empty": (("patterns", "n"), ("r",)),
    "star": (("m", "n"), ("k",)),
}


def _chunks(o, nl: str, encoded: dict):
    """Pieces of ``o`` as JSON with sorted keys and an indent of 2.

    ``nl`` is a newline and the indent of the line ``o`` starts on.  ``json``
    spells keys, scalars and empty containers, and a list of scalars in one
    call with ``nl`` in its item separator.  ``encoded`` keeps that by (id,
    nl), so a list object that recurs at one depth is scanned and encoded once.
    """
    if not isinstance(o, (dict, list, tuple)) or not o:
        yield json.dumps(o)
    elif isinstance(o, dict):
        if not all(isinstance(key, str) for key in o):
            raise TypeError("dict keys must be str")
        inner = nl + "  "
        sep = "{"
        for key in sorted(o):
            yield sep + inner + json.dumps(key) + ": "
            yield from _chunks(o[key], inner, encoded)
            sep = ","
        yield nl + "}"
    else:
        key = (id(o), nl)
        text = encoded.get(key)
        if text is not None:
            yield text
            return
        inner = nl + "  "
        if any(isinstance(item, (dict, list, tuple)) for item in o):
            sep = "["
            for item in o:
                yield sep + inner
                yield from _chunks(item, inner, encoded)
                sep = ","
            yield nl + "]"
            return
        text = encoded[key] = "[" + inner + json.dumps(o, separators=("," + inner, ": "))[1:-1] + nl + "]"
        yield text


def _emit(payload: dict) -> None:
    """Write ``json.dump(payload, sys.stdout, sort_keys=True, indent=2)`` and a newline.

    With ``indent`` set, ``json`` encodes in pure Python and writes every
    token by itself; this writes a list of scalars in one piece, spelled by
    the C encoder, and encodes a list object that recurs once.  Dict keys
    must be str.
    """
    sys.stdout.writelines(_chunks(payload, "\n", {}))
    sys.stdout.write("\n")


def _read_host(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    tokens = text.split()  # graph6 holds no whitespace, so this takes CRLF and blank lines too
    if not tokens:
        raise Graph6Error("no graph6 data found", 0)
    if len(tokens) > 1:
        raise ValueError(f"expected one graph6 string, found {len(tokens)}")
    return from_graph6(tokens[0])


def _cmd_construct(args) -> int:
    from . import constructions, designs, verifier

    tag = args.theorem
    flags, optional = _THEOREMS[tag]
    # an empty --patterns counts as missing
    if any(getattr(args, flag) in (None, "") for flag in flags):
        raise ValueError(f"--theorem {tag} requires " + " and ".join(f"--{flag}" for flag in flags))
    for flag in dict.fromkeys(f for taken in _THEOREMS.values() for f in taken[0] + taken[1]):
        if getattr(args, flag) is not None and flag not in flags + optional:
            raise ValueError(f"--theorem {tag} does not take --{flag}")
    if "patterns" in flags:
        pats = parse_pattern_list(args.patterns)
        if "n" in flags and len(pats) != 1:
            raise ValueError(f"--theorem {tag} takes exactly one pattern")
    if tag == "cyclic":
        g, recipe = constructions.cyclic_full(pats)
    elif tag == "design":
        g, recipe = constructions.design_full(pats, designs.affine_plane(args.q))
    elif tag == "h_vs_empty":
        g, recipe = constructions.h_vs_empty(pats[0], args.n, args.r)
    else:
        g, recipe = constructions.star_full(args.m, args.n, args.k)
    if "patterns" not in flags:
        pats = [star(args.m)]
    if "n" in flags:
        pats.append(empty(args.n))

    verified = None
    if args.verify:
        verified = verifier.is_full(g, pats, stop_at_gap=True).verdict
    g6 = to_graph6(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(g6 + "\n")
    _emit({"graph6": g6, "order": g.order, "recipe": recipe.to_dict(), "verified": verified})
    if verified is False:
        print("verification failed: construction is not full for its patterns", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    from . import verifier

    host = _read_host(args.host)
    pats = parse_pattern_list(args.patterns)
    report = verifier.is_full(host, pats)
    _emit(report.to_dict())
    return 0 if report.verdict else 1


def _cmd_bound(args) -> int:
    from . import bounds

    _emit(bounds.summarize(parse_pattern_list(args.patterns), args.n).to_dict())
    return 0


def _cmd_search(args) -> int:
    from . import oracle

    result = oracle.f_exact(parse_pattern_list(args.patterns), lower_hint=args.lower,
                            upper_hint=args.max_order, cache_dir=args.cache_dir)
    _emit(result.to_dict())
    return 0


def _cmd_design(args) -> int:
    from . import designs

    plane = designs.affine_plane(args.q)
    problems = designs.validate_design(plane)
    if problems:
        raise InternalInvariantError("; ".join(problems))
    _emit({**plane.to_dict(), "valid": True})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fullgraph",
        description="Constructions, bounds, and exact search for graphs whose every "
                    "vertex lies in induced copies of prescribed patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a graph by one of the known constructions")
    c.add_argument("--theorem", required=True, choices=_THEOREMS)
    c.add_argument("--patterns", help="comma-separated pattern names, e.g. K3,E3")
    c.add_argument("--m", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--k", type=int, help="star construction: leaves per center")
    c.add_argument("--r", type=int, help="h_vs_empty construction: block count")
    c.add_argument("--q", type=int, help="design construction: affine plane order")
    c.add_argument("--out", help="write the graph6 string to this file")
    c.add_argument("--verify", action=argparse.BooleanOptionalAction, default=True)
    c.set_defaults(func=_cmd_construct)

    v = sub.add_parser("verify", help="check every vertex lies in induced copies of the patterns")
    v.add_argument("host", help="path to a graph6 file, or - for stdin")
    v.add_argument("--patterns", required=True)
    v.set_defaults(func=_cmd_verify)

    b = sub.add_parser("bound", help="bound formulas for an instance")
    b.add_argument("--patterns", required=True)
    b.add_argument("--n", type=int, help="append an edgeless pattern of this order")
    b.set_defaults(func=_cmd_bound)

    s = sub.add_parser("search", help="exact minimum order by exhaustive enumeration")
    s.add_argument("--patterns", required=True)
    s.add_argument("--max-order", type=int)  # absent: f_exact stops at its enumeration cap
    s.add_argument("--lower", type=int, help="trusted lower bound to start the scan at")
    s.add_argument("--cache-dir", help="result cache directory "
                   "(default: $FULLGRAPH_CACHE, else ~/.cache/fullgraph)")
    s.set_defaults(func=_cmd_search)

    d = sub.add_parser("design", help="emit an affine plane as JSON")
    d.add_argument("--q", type=int, required=True)
    d.set_defaults(func=_cmd_design)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # a size too large to hold
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception:  # a crash must not read as a verdict of 1
        sys.excepthook(*sys.exc_info())
        return 3


if __name__ == "__main__":
    sys.exit(main())
