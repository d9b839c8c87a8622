"""Command-line driver.

Exit codes: 0 on pass/equal or after help, 1 on fail/counterexample, 2 on usage or
validation errors or when memory runs out (reported on stderr), 3 when
a search exhausts its pair budget.  Each expression is read straight into engine states
(`dsl.reader`, one grammar table per command), in one loop at any depth.

`eval` and `trunc` write from one read of the list's lasso (`colist.read_lasso`),
in writes of about `_CHUNK` characters: `eval` holds O(prefix + period) heads
and writes the cycle repeated, and `trunc` builds no tree and holds one line
of its dump at a time (`trees.list_dump`).
"""

from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain, cycle
from typing import Iterable, Iterator

from . import bisim, colist, lattice
from .colist import Definitions
# The CLI calls neither parse_expr nor elaborate (read_states by its earlier name);
# both stay bound here because bench/tracing.py wraps them by name.
from .dsl import elaborate, parse_expr, reader  # noqa: F401
from .errors import CoinductError, LatticeFileError, read_json
# The CLI no longer calls dump_tree, colist.take or colist.tree_trunc;
# all three stay bound because bench/tracing.py wraps them by name.
from .trees import dump_tree, list_dump  # noqa: F401

# Characters per write of `eval` and `trunc` output.  Each write is much
# larger than a pipe's capacity plus stdout's buffer, so a reader that
# closes early fails a write before any of its bytes are left buffered.
_CHUNK = 1 << 20


class _Exit(Exception):
    """argparse's way out, a usage error or help: (status, stderr text)."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Exit(2, f"error: {message}\n")

    def exit(self, status=0, message=None):
        raise _Exit(status, message or "")


def _count(minimum: int):
    """An argparse type for whole numbers of at least `minimum` (0 or 1),
    written in ASCII decimal digits alone: no sign, space, `_` or other
    script's digits, which `int` would take."""
    what = "a positive integer" if minimum else "a non-negative integer"

    def parse(text: str) -> int:
        try:
            value = int(text) if text.isascii() and text.isdigit() else minimum - 1
        except ValueError:  # more digits than `int` reads
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


def _eval_text(k: int, l: colist.CoList) -> Iterator[str]:
    """`_render_prefix(*take(k, l))` and a newline, in pieces: the heads
    up to the lasso's first repeat, then its cycle repeated in pieces of
    about _CHUNK characters, so O(prefix + period) heads are held."""
    heads, period = colist.read_lasso(k, l)
    if not period:
        yield _render_prefix(heads, len(heads) < k) + "\n"
        return
    yield "[" + ",".join(heads) + ","
    ring = heads[len(heads) - period:]
    text = ",".join(ring) + ","
    reps, rest = divmod(k - len(heads), period)
    per = max(1, _CHUNK // len(text))
    chunks, reps = divmod(reps, per)
    if chunks:
        chunk = text * per
        for _ in range(chunks):
            yield chunk
    yield text * reps + "".join(h + "," for h in ring[:rest]) + "...]\n"


def _trunc_text(k: int, l: colist.CoList) -> Iterator[str]:
    """`dump_tree(tree_trunc(k, l))` one line at a time: the k // 2 heads
    it needs, read from the lasso and its cycle repeated."""
    heads, period = colist.read_lasso(k // 2, l)
    return list_dump(k, chain(heads, cycle(heads[len(heads) - period:])) if period else heads)


def _write(pieces: Iterable[str]) -> None:
    """Write `pieces` to stdout, joined into writes of at least _CHUNK
    characters but the last."""
    held, size = [], 0
    for piece in pieces:
        held.append(piece)
        size += len(piece)
        if size >= _CHUNK:
            sys.stdout.write("".join(held))
            held, size = [], 0
    if held:
        sys.stdout.write("".join(held))


def run_command(argv) -> int:
    """Dispatch one command; prints the report and returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except _Exit as exc:
        status, message = exc.args
        sys.stderr.write(message)
        return status

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
        read = reader(defs)
        terms = [read(text) for text in texts]

        if args.command in ("eval", "trunc"):
            _write((_eval_text if args.command == "eval" else _trunc_text)(args.depth, *terms))
            return 0

        if args.command == "bisim":
            outcome = bisim.find_bisimulation(*terms, max_pairs=args.max_pairs, kind=args.kind)
            if isinstance(outcome, bisim.BoundExceeded):
                print("BOUND")
                return 3
            if isinstance(outcome, bisim.Counterexample):
                print(f"FAIL {outcome.reason} @ {outcome.index}")
                return 1
            sys.stdout.write(f"PASS\ncertificate: kind={outcome.kind} pairs={len(outcome.pairs)}\n")
            sys.stdout.writelines(f"  {ka} ~ {kb}\n" for ka, kb in outcome.to_dict()["pairs"])
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
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
