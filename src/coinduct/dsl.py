"""The expression language over the lazy-list engine.

Grammar (whitespace-insensitive, LL(1)):

    expr := `nil`
          | `cons(` sym `,` expr `)`
          | `lconst(` sym `)`
          | `iterates(` name `,` sym `)`
          | `map(` name `,` expr `)`
          | `append(` expr `,` expr `)`
          | `corec(` name `,` seed `)`

Symbols, names and seeds are words over [A-Za-z0-9_].  An expression is
its canonical text: its tokens joined without whitespace, which
`parse_expr` returns once the text parses.  The grammar is a head table
read by `syntax.Grammar`, which raises ParseError with the offset at
which the expected token would start.

`read_states` reads the grammar with the colist constructors, so it
builds engine states in one pass.  Reading is a loop, so any nesting
depth works at the default recursion limit.
"""

from __future__ import annotations

from . import colist
from .colist import AtomFun, CoList, ConsList, ConstList, Definitions, StepFn
from .errors import UnknownAtom, UnknownFunction, UnknownMachine
from .syntax import TERM, Grammar

# heads and slots only: `_elaborating` gives the constructors
_EXPR = Grammar("expression", {
    "nil": (None, ()),
    "cons": (None, ("symbol", TERM)),
    "lconst": (None, ("symbol",)),
    "iterates": (None, ("name", "symbol")),
    "map": (None, ("name", TERM)),
    "append": (None, (TERM, TERM)),
    "corec": (None, ("name", "seed")),
})


def parse_expr(text: str) -> str:
    """The canonical text of an expression; raises ParseError on any
    deviation."""
    return _EXPR.canonical(text)


def _elaborating(defs: Definitions) -> dict:
    """The expression grammar with the colist constructors, so reading
    text with it builds engine states.

    It resolves function and machine names as they are read; the colist
    constructors check symbols and seeds when their term closes.  So a
    map's function is resolved before its argument is built, and a cons
    cell's symbol is checked after its tail is built.
    """
    alphabet, functions, machines = defs.alphabet, defs.functions, defs.machines
    members = alphabet._members

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

    # colist.cons and colist.lconst, checking the symbol against the
    # alphabet's frozenset as each cell's term closes
    def cons(sym: str, tail: CoList) -> CoList:
        if sym not in members:
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return ConsList(sym, tail)

    def lconst(sym: str) -> CoList:
        if sym not in members:
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return ConstList(sym)

    def iterates(fn: AtomFun, sym: str) -> CoList:
        # colist.iterates words this "not in domain of <fn>"
        if sym not in members:
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return colist.iterates(fn, sym)

    return _EXPR.table({
        "nil": (colist.nil, ()),
        "cons": (cons, ("symbol", TERM)),
        "lconst": (lconst, ("symbol",)),
        "iterates": (iterates, (("name", function), "symbol")),
        "map": (colist.lmap, (("name", function), TERM)),
        "append": (colist.lappend, (TERM, TERM)),
        "corec": (lambda m, seed: colist.corec(seed, m), (("name", machine), "seed")),
    })


def read_states(text: str, defs: Definitions) -> CoList:
    """The engine state that an expression's text denotes, built in one
    pass with each state built once.  A parse error anywhere in the text
    comes before any resolution error."""
    return _EXPR.read(text, _elaborating(defs))


def elaborate(e: str, defs: Definitions) -> CoList:
    """`read_states` under its earlier name, which the benchmark harness
    (`bench/tracing.py`, `bench/test_bench.py`) still calls."""
    return read_states(e, defs)
