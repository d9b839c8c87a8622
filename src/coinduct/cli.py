"""Command-line driver.

Exit codes: 0 on pass/equal, 1 on fail/counterexample, 2 on usage or
validation errors (reported on stderr), 3 when a search exhausts its
pair budget.  Each expression is read straight into engine states
(`dsl.read_states`), in one loop at any depth.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bisim, colist, lattice
from .colist import Definitions
# The CLI calls neither parse_expr nor elaborate (read_states by its earlier name);
# both stay bound here because bench/tracing.py wraps them by name.
from .dsl import elaborate, parse_expr, read_states  # noqa: F401
from .errors import CoinductError, LatticeFileError, SizeExceeded, read_json
from .trees import dump_tree

# `bisim` and `cert` key the states they visit, and keying a state
# memoizes a key on every cons cell inside it, each key no longer than
# the text of its cell: O(n^2) text for an n-cell chain.  Cons cells
# times text length bounds that (`text.count("cons")` bounds the
# cells), and past this many characters both commands refuse the query.
KEY_TEXT_BOUND = 10**8


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _count(minimum: int):
    """An argparse type for whole numbers of at least `minimum` (0 or 1)."""
    what = "a positive integer" if minimum else "a non-negative integer"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    defs = argparse.ArgumentParser(add_help=False)
    defs.add_argument("--defs", required=True)
    depth = argparse.ArgumentParser(add_help=False)
    depth.add_argument("--depth", type=_count(0), default=20)

    parser = _ArgumentParser(prog="coinduct")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[defs, depth], help="print a prefix of a list expression")
    p.add_argument("expr")

    p = sub.add_parser("trunc", parents=[defs, depth], help="dump the depth-truncated tree encoding")
    p.add_argument("expr")

    p = sub.add_parser("eq", parents=[defs, depth], help="bounded take-lemma equality")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("bisim", parents=[defs], help="search for a bisimulation certificate")
    p.add_argument("--kind", choices=("weak", "strong"), default="strong")
    p.add_argument("--max-pairs", type=_count(1), default=10_000)
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("cert", help="certificate operations")
    certsub = p.add_subparsers(dest="cert_command", required=True)
    pv = certsub.add_parser("verify", parents=[defs], help="verify a certificate file")
    pv.add_argument("--cert", required=True)
    pv.add_argument("left")
    pv.add_argument("right")

    p = sub.add_parser("check", parents=[defs, depth], help="depth-bounded list membership check")
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
        if args.command == "lattice":
            doc = read_json(args.spec, LatticeFileError, "demo")
            carrier, op, mode = lattice.load_demo(doc)
            fix = lattice.lfp(op, carrier) if mode == "lfp" else lattice.gfp(op, carrier)
            print(f"{mode} = {{{','.join(str(x) for x in fix.members())}}}")
            return 0

        defs = Definitions.load(args.defs)
        cert = bisim.Certificate.load(args.cert) if args.command == "cert" else None
        texts = [args.expr] if "expr" in args else [args.left, args.right]
        terms = [read_states(text, defs) for text in texts]
        if args.command in ("bisim", "cert"):
            bound = sum(text.count("cons") * len(text) for text in texts)
            if bound > KEY_TEXT_BOUND:
                raise SizeExceeded(
                    f"too many cons cells to key: bound {bound} > {KEY_TEXT_BOUND} characters")

        if args.command == "eval":
            elems, ended = colist.take(args.depth, *terms)
            print(_render_prefix(elems, ended))
            return 0

        if args.command == "trunc":
            sys.stdout.write(dump_tree(colist.tree_trunc(args.depth, *terms)))
            return 0

        if args.command == "bisim":
            outcome = bisim.find_bisimulation(*terms, max_pairs=args.max_pairs, kind=args.kind)
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

        if args.command == "eq":
            verdict = bisim.eq_upto(args.depth, *terms)
            passed = f"EQUAL to depth {args.depth}"
        elif args.command == "cert":
            verdict = bisim.verify_certificate(cert, *terms)
            passed = "PASS"
        else:  # check
            # an empty CSV item allows no head: symbols are nonempty words
            atoms = defs.alphabet if args.atoms is None else args.atoms.split(",")
            verdict = colist.check_llist_upto(args.depth, *terms, atoms)
            passed = f"PASS membership to depth {args.depth}"
        print(passed if verdict else f"FAIL {verdict.reason} @ {verdict.witness}")
        return 0 if verdict else 1
    except (CoinductError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
