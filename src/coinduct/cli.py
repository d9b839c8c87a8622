"""Command-line driver.

Exit codes: 0 on pass/equal, 1 on fail/counterexample, 2 on usage or
validation errors and on input nested too deeply to process (reported
on stderr), 3 when a search exhausts its pair budget.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bisim, colist, lattice
from .colist import Definitions
from .dsl import elaborate, parse_expr
from .errors import CoinductError, LatticeFileError, read_json
from .trees import dump_tree


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="coinduct")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="print a prefix of a list expression")
    p.add_argument("--defs", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("expr")

    p = sub.add_parser("trunc", help="dump the depth-truncated tree encoding")
    p.add_argument("--defs", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("expr")

    p = sub.add_parser("eq", help="bounded take-lemma equality")
    p.add_argument("--defs", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("bisim", help="search for a bisimulation certificate")
    p.add_argument("--defs", required=True)
    p.add_argument("--kind", choices=("weak", "strong"), default="strong")
    p.add_argument("--max-pairs", type=int, default=10_000)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("cert", help="certificate operations")
    certsub = p.add_subparsers(dest="cert_command", required=True)
    pv = certsub.add_parser("verify", help="verify a certificate file")
    pv.add_argument("--defs", required=True)
    pv.add_argument("--cert", required=True)
    pv.add_argument("left")
    pv.add_argument("right")

    p = sub.add_parser("check", help="depth-bounded list membership check")
    p.add_argument("--defs", required=True)
    p.add_argument("--depth", type=int, default=20)
    p.add_argument("--atoms", default=None, help="CSV of allowed atoms")
    p.add_argument("expr")

    p = sub.add_parser("lattice", help="run a lattice demo file")
    p.add_argument("--spec", required=True)

    return parser


def _render_prefix(elems: list[str], ended: bool) -> str:
    inner = ",".join(elems)
    if ended:
        return f"[{inner}]"
    return f"[{inner},...]" if elems else "[...]"


def run_command(argv) -> int:
    """Dispatch one command; prints the report and returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "eval":
            defs = Definitions.load(args.defs)
            l = elaborate(parse_expr(args.expr), defs)
            elems, ended = colist.take(args.depth, l)
            print(_render_prefix(elems, ended))
            return 0

        if args.command == "trunc":
            defs = Definitions.load(args.defs)
            l = elaborate(parse_expr(args.expr), defs)
            sys.stdout.write(dump_tree(colist.tree_trunc(args.depth, l)))
            return 0

        if args.command == "eq":
            defs = Definitions.load(args.defs)
            left = elaborate(parse_expr(args.left), defs)
            right = elaborate(parse_expr(args.right), defs)
            verdict = bisim.eq_upto(args.depth, left, right)
            if verdict:
                print(f"EQUAL to depth {args.depth}")
                return 0
            print(f"FAIL {verdict.reason} @ {verdict.witness}")
            return 1

        if args.command == "bisim":
            defs = Definitions.load(args.defs)
            left = elaborate(parse_expr(args.left), defs)
            right = elaborate(parse_expr(args.right), defs)
            outcome = bisim.find_bisimulation(
                left, right, max_pairs=args.max_pairs, kind=args.kind
            )
            if isinstance(outcome, bisim.BoundExceeded):
                print("BOUND")
                return 3
            if isinstance(outcome, bisim.Counterexample):
                print(f"FAIL {outcome.reason} @ {outcome.index}")
                return 1
            print("PASS")
            print(f"certificate: kind={outcome.kind} pairs={len(outcome.pairs)}")
            for ka, kb in outcome.to_dict()["pairs"]:
                print(f"  {ka} ~ {kb}")
            return 0

        if args.command == "cert":
            defs = Definitions.load(args.defs)
            cert = bisim.Certificate.load(args.cert)
            left = elaborate(parse_expr(args.left), defs)
            right = elaborate(parse_expr(args.right), defs)
            verdict = bisim.verify_certificate(cert, left, right)
            if verdict:
                print("PASS")
                return 0
            print(f"FAIL {verdict.reason} @ {verdict.witness}")
            return 1

        if args.command == "check":
            defs = Definitions.load(args.defs)
            l = elaborate(parse_expr(args.expr), defs)
            atoms = (
                tuple(defs.alphabet)
                if args.atoms is None
                else tuple(s for s in args.atoms.split(",") if s)
            )
            verdict = colist.check_llist_upto(args.depth, l, atoms)
            if verdict:
                print(f"PASS membership to depth {args.depth}")
                return 0
            print(f"FAIL {verdict.reason} @ {verdict.witness}")
            return 1

        if args.command == "lattice":
            doc = read_json(args.spec, LatticeFileError, "demo")
            carrier, op, mode = lattice.load_demo(doc)
            fix = lattice.lfp(op, carrier) if mode == "lfp" else lattice.gfp(op, carrier)
            print(f"{mode} = {{{','.join(str(x) for x in fix.members())}}}")
            return 0

        raise _UsageError(f"unknown command {args.command!r}")
    except (CoinductError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the JSON reader recurse once per nesting level
        print("error: input nested too deeply", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
