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

`read_states` reads the grammar with the colist states, so it builds
engine states in one pass; `reader` reads any number of texts over one
definitions file with that grammar table, built once.  It builds one
state per run of nested `cons`, `map` or `append(nil, .)` layers
(`colist.ConsList`, `MapList`, `AppendList`), which the grammar reads
with one match: `append(nil,` is a fixed opening of its own.  A run's
function names are resolved as they are read, outermost first; its
symbols are checked against the alphabet with one set operation once
the term inside the run is built, and the innermost symbol outside it
is the one reported.  Reading is a loop, so any nesting depth works at
the default recursion limit.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from . import colist
from .colist import AppendList, AtomFun, CoList, ConsList, Definitions, MapList, StepFn
from .errors import UnknownAtom, UnknownFunction, UnknownMachine
from .syntax import TERM, Grammar

# heads and slots only: `_elaborating` gives the constructors
_EXPR = Grammar("expression", {
    "nil": (None, ()),
    "cons": (None, ("symbol", TERM)),
    "lconst": (None, ("symbol",)),
    "iterates": (None, ("name", "symbol")),
    "map": (None, ("name", TERM)),
    "append(nil,": (None, (TERM,)),
    "append": (None, (TERM, TERM)),
    "corec": (None, ("name", "seed")),
})


def parse_expr(text: str) -> str:
    """The canonical text of an expression; raises ParseError on any
    deviation."""
    return _EXPR.canonical(text)


def _elaborating(defs: Definitions) -> list:
    """The expression grammar with the colist constructors, so reading
    text with it builds engine states, one per run of layers.

    It resolves function and machine names as they are read; symbols
    and seeds are checked when their term closes.  So a map's function
    is resolved before its argument is built, and a cons run's symbols
    are checked after its tail is built, the innermost first.
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

    # colist.cons for a whole run, checking its symbols against the
    # alphabet's frozenset as the term closes
    def cons(heads: list[str], tail: CoList) -> CoList:
        if not members.issuperset(heads):
            sym = next(sym for sym in reversed(heads) if sym not in members)
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return ConsList(tuple(heads), 0, tail)

    def iterates(fn: AtomFun, sym: str) -> CoList:
        # colist.iterates words this "not in domain of <fn>"
        if sym not in members:
            raise UnknownAtom(f"symbol {sym!r} not in alphabet")
        return colist.iterates(fn, sym)

    return _EXPR.table({
        "nil": (colist.nil, ()),
        "cons": (None, ("symbol", TERM), cons),
        "lconst": (partial(colist.lconst, alphabet=alphabet), ("symbol",)),
        "iterates": (iterates, (("name", function), "symbol")),
        "map": (None, (("name", function), TERM), _maps),
        "append(nil,": (None, (TERM,), _nils),
        "append": (colist.lappend, (TERM, TERM)),
        "corec": (_corec, (("name", machine), "seed")),
    })


def _maps(fns: list[AtomFun], source: CoList) -> CoList:
    """A run of maps, its functions outermost first."""
    return MapList(tuple(fns), source)


def _nils(k: int, right: CoList) -> CoList:
    """A run of k `append(nil, .)` layers."""
    return AppendList(colist.nil(), right, k)


def _corec(m: StepFn, seed: str) -> CoList:
    return colist.corec(seed, m)


def reader(defs: Definitions) -> Callable[[str], CoList]:
    """`read_states` over `defs` for any number of texts, with the
    grammar table built once."""
    return partial(_EXPR.read, table=_elaborating(defs))


def read_states(text: str, defs: Definitions) -> CoList:
    """The engine state that an expression's text denotes, built in one
    pass with each state built once.  A parse error anywhere in the text
    comes before any resolution error."""
    return reader(defs)(text)


def elaborate(e: str, defs: Definitions) -> CoList:
    """`read_states` under its earlier name, which the benchmark harness
    (`bench/tracing.py`, `bench/test_bench.py`) still calls."""
    return read_states(e, defs)
