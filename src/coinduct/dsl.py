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
"""

from __future__ import annotations

from dataclasses import dataclass

from . import colist
from .colist import CoList, Definitions
from .errors import UnknownAtom, UnknownFunction, UnknownMachine
from .syntax import TERM, Grammar


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Nil(Expr):
    pass


@dataclass(frozen=True)
class Cons(Expr):
    sym: str
    tail: Expr


@dataclass(frozen=True)
class Lconst(Expr):
    sym: str


@dataclass(frozen=True)
class Iterates(Expr):
    fn: str
    sym: str


@dataclass(frozen=True)
class Map(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Append(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
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


def elaborate(e: Expr, defs: Definitions) -> CoList:
    """Bind an expression to engine states against a definitions file.

    Resolves function and machine names; the colist constructors check
    symbols and seeds.
    """
    if isinstance(e, Nil):
        return colist.nil()
    if isinstance(e, Cons):
        return colist.cons(e.sym, elaborate(e.tail, defs), defs.alphabet)
    if isinstance(e, Lconst):
        return colist.lconst(e.sym, defs.alphabet)
    if isinstance(e, Iterates):
        if e.fn not in defs.functions:
            raise UnknownFunction(f"function {e.fn!r} not defined")
        # colist.iterates words this "not in domain of <fn>"
        if e.sym not in defs.alphabet:
            raise UnknownAtom(f"symbol {e.sym!r} not in alphabet")
        return colist.iterates(defs.functions[e.fn], e.sym)
    if isinstance(e, Map):
        if e.fn not in defs.functions:
            raise UnknownFunction(f"function {e.fn!r} not defined")
        return colist.lmap(defs.functions[e.fn], elaborate(e.arg, defs))
    if isinstance(e, Append):
        return colist.lappend(elaborate(e.left, defs), elaborate(e.right, defs))
    if isinstance(e, Corec):
        if e.machine not in defs.machines:
            raise UnknownMachine(f"machine {e.machine!r} not defined")
        return colist.corec(e.seed, defs.machines[e.machine])
    raise TypeError(f"not an expression: {e!r}")
