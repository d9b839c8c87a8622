"""Command-line driver.

Exit codes: 0 on pass/equal or after help, 1 on fail/counterexample, 2 on usage or
validation errors or when memory runs out (reported on stderr), 3 when
a search exhausts its pair budget.  Each expression is read straight into engine states
(`dsl.reader`, one grammar table per command), in one loop at any depth.

Every command's options and positionals are declared once, in `_COMMANDS`.
A command line of the plain shape (a command, then `--option value` pairs of
its own, each at most once, then exactly its positionals, no value or
positional starting with `-`, every required option given and every value
accepted) is read from that table by `_read_plain`, which builds no parser.
Anything else (help, `--opt=value`, abbreviations, options after
positionals, repeats, `--`, refused values, missing arguments) goes to the
argparse parser built from the same table, so usage errors and help read as
argparse writes them.

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
from typing import Callable, Iterable, Iterator, NamedTuple

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


class _Option(NamedTuple):
    """One `--name value` option of a command."""

    name: str
    type: Callable[[str], object] | None = None
    choices: tuple[str, ...] | None = None
    default: object = None
    required: bool = False
    help: str | None = None

    @property
    def dest(self) -> str:
        """Its Namespace entry, named as argparse names it."""
        return self.name[2:].replace("-", "_")


class _Command(NamedTuple):
    """One command: its words (`cert verify` has two), help, options by
    name in declaration order, and positionals."""

    words: tuple[str, ...]
    help: str
    options: dict[str, _Option]
    positionals: tuple[str, ...]

    @property
    def chosen(self) -> dict[str, str]:
        """The Namespace entries its words set: `command`, then
        `<first word>_command`."""
        return dict(zip(("command", f"{self.words[0]}_command"), self.words))


def _command(words: str, help: str, options: tuple, positionals: tuple = ()) -> _Command:
    return _Command(tuple(words.split()), help, {o.name: o for o in options}, positionals)


_DEFS = _Option("--defs", required=True)
_DEPTH = _Option("--depth", _count(0), default=20)

# Every command line the CLI reads, declared once: `_build_parser` builds
# argparse's parser from it and `_read_plain` reads the plain shape by it.
_COMMANDS = {c.words: c for c in (
    _command("eval", "print a prefix of a list expression", (_DEFS, _DEPTH), ("expr",)),
    _command("trunc", "dump the depth-truncated tree encoding", (_DEFS, _DEPTH), ("expr",)),
    _command("eq", "bounded take-lemma equality", (_DEFS, _DEPTH), ("left", "right")),
    _command("bisim", "search for a bisimulation certificate",
             (_DEFS, _Option("--kind", choices=("weak", "strong"), default="strong"),
              _Option("--max-pairs", _count(1), default=10_000)), ("left", "right")),
    _command("cert verify", "verify a certificate file",
             (_DEFS, _Option("--cert", required=True)), ("left", "right")),
    _command("check", "depth-bounded list membership check",
             (_DEFS, _DEPTH, _Option("--atoms", help="CSV of allowed atoms")), ("expr",)),
    _command("lattice", "run a lattice demo file", (_Option("--spec", required=True),)),
)}
# Help for a first word that takes a second.
_GROUP_HELP = {"cert": "certificate operations"}


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command-line parser, built from `_COMMANDS` once per process;
    parsing leaves it unchanged."""
    parser = _ArgumentParser(prog="coinduct")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in _COMMANDS.values():
        if len(command.words) == 1:
            p = sub.add_parser(command.words[0], help=command.help)
        else:
            first, word = command.words
            if first not in groups:
                group = sub.add_parser(first, help=_GROUP_HELP[first])
                dest = list(command.chosen)[1]  # cert_command
                groups[first] = group.add_subparsers(dest=dest, required=True)
            p = groups[first].add_parser(word, help=command.help)
        for o in command.options.values():
            p.add_argument(o.name, type=o.type, choices=o.choices, default=o.default,
                           required=o.required, help=o.help)
        for name in command.positionals:
            p.add_argument(name)
    return parser


def _read_plain(argv) -> argparse.Namespace | None:
    """`_build_parser().parse_args(argv)` for an `argv` of the plain shape
    (see the module docstring), else None.  It builds no parser and keeps
    nothing."""
    if not isinstance(argv, (list, tuple)):  # None (sys.argv) or an iterator
        return None
    command = _COMMANDS.get(tuple(argv[:1])) or _COMMANDS.get(tuple(argv[:2]))
    if command is None:
        return None
    options, given = command.options, {}
    at, end = len(command.words), len(argv)
    while at < end and argv[at][:1] == "-":
        option = options.get(argv[at])
        if option is None or option.dest in given or at + 1 == end or argv[at + 1][:1] == "-":
            return None
        value = argv[at + 1]
        if option.type is not None:
            try:
                value = option.type(value)
            except argparse.ArgumentTypeError:
                return None
        if option.choices is not None and value not in option.choices:
            return None
        given[option.dest] = value
        at += 2
    positionals = argv[at:]
    if (len(positionals) != len(command.positionals) or any(p[:1] == "-" for p in positionals)
            or any(o.required and o.dest not in given for o in options.values())):
        return None
    values = {o.dest: o.default for o in options.values()} | given
    values.update(zip(command.positionals, positionals))
    return argparse.Namespace(**command.chosen, **values)


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
    args = _read_plain(argv)
    if args is None:
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
            pairs = outcome.to_dict()["pairs"]  # written and sorted once, never hashed
            sys.stdout.write(f"PASS\ncertificate: kind={outcome.kind} pairs={len(pairs)}\n")
            sys.stdout.writelines(f"  {ka} ~ {kb}\n" for ka, kb in pairs)
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
