"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 budget
exhaustion, 4 not constructible.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple

from .algebra import Signature
from .colouring import EdgeColouring, Level, verify
from .constructions import (RULES, DelegatedToSearch, NotConstructible,
                            construct, walecki_colour, walecki_witness)
from .search import enumerate_representations, search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_BUDGET = 3
EXIT_NOT_CONSTRUCTIBLE = 4

# search budget of a delegating construct and of each delegated table cell
DELEGATED_SEARCH_NODES = 100_000


def _parse_s(text: str) -> frozenset:
    if text.strip() in ("", "empty", "0"):
        return frozenset()
    try:
        return frozenset(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad triangle-type set {text!r}")


def _parse_level(text: str) -> Level:
    try:
        return Level(text.lower())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level {text!r}")


def _add_signature_args(p):
    p.add_argument("--s", type=_parse_s, required=True,
                   help="consistent triangle types, e.g. 1,3 (or 'empty')")
    p.add_argument("--n", type=int, required=True,
                   help="number of proper colours")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromarep",
        description="Edge-colouring representations of chromatic algebras.",
        epilog="Exit codes: 0 ok, 1 usage, 2 verification failure, "
               "3 budget exhausted, 4 not constructible.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a representation")
    _add_signature_args(p)
    p.add_argument("--level", type=_parse_level, required=True)
    p.add_argument("--out", help="write colouring JSON here")
    p.add_argument("--dot", help="write DOT export here")

    p = sub.add_parser("verify", help="verify a colouring JSON file")
    _add_signature_args(p)
    p.add_argument("--level", type=_parse_level, required=True)
    p.add_argument("--in", dest="infile", required=True)

    p = sub.add_parser("search", help="exhaustive representation search")
    _add_signature_args(p)
    p.add_argument("--level", type=_parse_level, required=True)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--budget-nodes", type=int, default=None)
    p.add_argument("--out", help="write a found colouring JSON here")

    p = sub.add_parser("enumerate",
                       help="all representations on m vertices, up to "
                            "isomorphism")
    _add_signature_args(p)
    p.add_argument("--level", type=_parse_level, default=Level.QUALITATIVE)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--budget-nodes", type=int, default=None)

    p = sub.add_parser("witness",
                       help="triangle witness inside a Walecki colouring")
    p.add_argument("--walecki-n", type=int, required=True)
    p.add_argument("--triple", required=True,
                   help="colour triple i,j,k with i < j")

    p = sub.add_parser("table", help="recompute the representability table")
    p.add_argument("--max-n", type=int, default=4)
    return parser


def _emit_colouring(col, sig, args, stream):
    # the DOT file first: a bad --dot path must not follow a printed colouring
    if getattr(args, "dot", None):
        with open(args.dot, "w") as fh:
            fh.write(col.to_dot() + "\n")
    text = col.to_json(sig)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        stream.write(text + "\n")


def cmd_construct(args, out):
    sig = Signature(args.s, args.n)
    result = construct(sig, args.level)
    if isinstance(result, NotConstructible):
        out.write(f"not constructible: {result.reason}\n")
        return EXIT_NOT_CONSTRUCTIBLE
    if isinstance(result, DelegatedToSearch):
        out.write(f"delegated to search: {result.reason}\n")
        outcome = search(sig, args.level, node_budget=DELEGATED_SEARCH_NODES)
        out.write(outcome.summary() + "\n")
        if outcome.status == "aborted":
            return EXIT_BUDGET
        if outcome.colouring is None:
            return EXIT_NOT_CONSTRUCTIBLE
        result = outcome.colouring
    _emit_colouring(result, sig, args, out)
    return EXIT_OK


def cmd_verify(args, out):
    sig = Signature(args.s, args.n)
    with open(args.infile) as fh:
        text = fh.read()
    col, declared = EdgeColouring.from_json_with_signature(text)
    if declared is not None and declared != sig:
        written = {"s": sorted(declared.s_set), "n": declared.n}
        expected = {"s": sorted(sig.s_set), "n": sig.n}
        raise ValueError(
            f"file signature {written} differs from --s/--n {expected}")
    report = verify(col, sig, args.level)
    out.write(report.summary() + "\n")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_search(args, out):
    sig = Signature(args.s, args.n)
    m_range = (2, args.max_m) if args.max_m is not None else None
    outcome = search(sig, args.level, m_range=m_range,
                     node_budget=args.budget_nodes)
    for line in outcome.transcript_lines():
        out.write(line + "\n")
    out.write(outcome.summary() + "\n")
    if outcome.colouring is not None:
        _emit_colouring(outcome.colouring, sig, args, out)
    return EXIT_BUDGET if outcome.status == "aborted" else EXIT_OK


def cmd_enumerate(args, out):
    sig = Signature(args.s, args.n)
    results, partial = enumerate_representations(sig, args.level, args.m,
                                                 node_budget=args.budget_nodes)
    doc = {"count": len(results), "partial": partial,
           "colourings": [json.loads(c.to_json(sig)) for c in results]}
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_BUDGET if partial else EXIT_OK


def cmd_witness(args, out):
    try:
        i, j, k = (int(x) for x in args.triple.split(","))
    except ValueError:
        raise ValueError("triple must be three comma-separated colours") \
            from None
    n = args.walecki_n
    x, y, z = walecki_witness(n, i, j, k)
    doc = {"vertices": [x, y, z],
           "colours": {"xy": walecki_colour(n, x, y),
                       "xz": walecki_colour(n, x, z),
                       "yz": walecki_colour(n, y, z)}}
    out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# status: Constructed | FoundBySearch | CertifiedNonexistent | OutOfScope |
# Unknown
TableCell = namedtuple("TableCell", "status detail", defaults=("",))


def certify_summary_row(s_set, n_range):
    """One summary-table row at desk scale: each (n, level) cell holds
    ``construct``'s verdict, and only the cells it delegates run the
    search, within DELEGATED_SEARCH_NODES."""
    cells = {}
    for n in n_range:
        sig = Signature(frozenset(s_set), n)
        for level in Level:
            result = construct(sig, level)
            if isinstance(result, EdgeColouring):
                cell = TableCell("Constructed", f"m={result.m}")
            elif isinstance(result, NotConstructible):
                cell = TableCell("CertifiedNonexistent" if result.nonexistent
                                 else "OutOfScope", result.reason)
            else:  # delegated to search
                outcome = search(sig, level,
                                 node_budget=DELEGATED_SEARCH_NODES)
                if outcome.status == "found":
                    status = "FoundBySearch"
                elif outcome.complete_certificate:
                    status = "CertifiedNonexistent"
                else:
                    status = "Unknown"
                cell = TableCell(status, outcome.summary())
            cells[(n, level)] = cell
    return cells


def cmd_table(args, out):
    if args.max_n < 1:
        raise ValueError(f"--max-n must be >= 1, got {args.max_n}")
    rows = {}
    for s in RULES:
        cells = certify_summary_row(s, range(1, args.max_n + 1))
        row = rows["{" + ",".join(str(x) for x in sorted(s)) + "}"] = {}
        for (n, level), cell in cells.items():
            row.setdefault(f"n={n}", {})[level.value] = cell._asdict()
    out.write(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


COMMANDS = {
    "construct": cmd_construct,
    "verify": cmd_verify,
    "search": cmd_search,
    "enumerate": cmd_enumerate,
    "witness": cmd_witness,
    "table": cmd_table,
}


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return COMMANDS[args.command](args, out)
    except (ValueError, OSError) as exc:
        out.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        # e.g. the pair table of a huge n (ROADMAP item 10)
        out.write("error: out of memory\n")
        return EXIT_USAGE


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
