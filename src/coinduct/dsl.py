"""The expression language over the lazy-list engine.

Grammar (whitespace-insensitive, LL(1)):

    expr := `nil`
          | `cons(` sym `,` expr `)`
          | `lconst(` sym `)`
          | `iterates(` name `,` sym `)`
          | `map(` name `,` expr `)`
          | `append(` expr `,` expr `)`
          | `corec(` name `,` seed `)`

Symbols, names and seeds are words over [A-Za-z0-9_].  The grammar is a
head table read and written by `syntax.Grammar`: parsing raises
ParseError with the offset at which the expected token would start, and
printing a parsed expression reparses to an equal expression.

`read_states` reads the same grammar with the colist constructors, so
it builds engine states instead of `Expr` values, in one pass;
`elaborate` reads an `Expr`'s text that way.  Reading and printing are
loops, and an `Expr` compares, hashes and prints by its printed text, so
any nesting depth works at the default recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from . import colist
from .colist import AtomFun, CoList, Definitions, StepFn
from .errors import UnknownAtom, UnknownFunction, UnknownMachine
from .syntax import TERM, Grammar


class Expr:
    """An expression; compared, hashed and shown by its `print_expr` text."""

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or print_expr(self) == print_expr(other)

    def __hash__(self) -> int:
        return hash(print_expr(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({print_expr(self)})"


@dataclass(frozen=True, eq=False, repr=False)
class Nil(Expr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Cons(Expr):
    sym: str
    tail: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Lconst(Expr):
    sym: str


@dataclass(frozen=True, eq=False, repr=False)
class Iterates(Expr):
    fn: str
    sym: str


@dataclass(frozen=True, eq=False, repr=False)
class Map(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Append(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Corec(Expr):
    machine: str
    seed: str


_EXPR = Grammar("expression", {
    "nil": (Nil, ()),
    "cons": (Cons, ("symbol", TERM)),
    "lconst": (Lconst, ("symbol",)),
    "iterates": (Iterates, ("name", "symbol")),
    "map": (Map, ("name", TERM)),
    "append": (Append, (TERM, TERM)),
    "corec": (Corec, ("name", "seed")),
})


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises ParseError on any deviation."""
    return _EXPR.read(text)


def print_expr(e: Expr) -> str:
    """Canonical text for an expression; reparses to an equal value."""
    return _EXPR.write(e)


def _elaborating(defs: Definitions) -> dict:
    """The expression grammar with the colist constructors, so reading
    text with it builds engine states.

    It resolves function and machine names as they are read; the colist
    constructors check symbols and seeds when their term closes.  So a
    map's function is resolved before its argument is built, and a cons
    cell's symbol is checked after its tail is built.
    """
    alphabet, functions, machines = defs.alphabet, defs.functions, defs.machines

    def function(name: str) -> AtomFun:
        try:
            return functions[name]
        except KeyError:
            raise UnknownFunction(f"function {name!r} not defined") from None

    def machine(name: str) -> StepFn:
        try:
            return machines[name]
        except KeyError:
            raise UnknownMachine(f"machine {name!r} not defined") from None

    def iterates(fn: AtomFun, sym: str) -> CoList:
        # colist.iterates words this "not in domain of <fn>"
        if sym not in alphabet:
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return colist.iterates(fn, sym)

    return _EXPR.table({
        "nil": (colist.nil, ()),
        "cons": (partial(colist.cons, alphabet=alphabet), ("symbol", TERM)),
        "lconst": (partial(colist.lconst, alphabet=alphabet), ("symbol",)),
        "iterates": (iterates, (("name", function), "symbol")),
        "map": (colist.lmap, (("name", function), TERM)),
        "append": (colist.lappend, (TERM, TERM)),
        "corec": (lambda m, seed: colist.corec(seed, m), (("name", machine), "seed")),
    })


def read_states(text: str, defs: Definitions) -> CoList:
    """`elaborate(parse_expr(text), defs)` in one pass: the same state
    and the same first error, with each state built once and no `Expr`
    built at all."""
    return _EXPR.read(text, _elaborating(defs))


def elaborate(e: Expr, defs: Definitions) -> CoList:
    """Bind an expression to engine states against a definitions file:
    its text read by `read_states`."""
    return read_states(print_expr(e), defs)
