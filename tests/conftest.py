"""Shared fixtures: a mod-4 definitions file, random generators, the
recursive term reader, and the observation loops that the kernel's
readers replaced."""

from __future__ import annotations

import random
import re
from itertools import islice
from typing import Iterator

import pytest

from coinduct.colist import (
    Alphabet,
    AtomFun,
    CoList,
    Definitions,
    StepFn,
    cons,
    corec,
    iterates,
    lappend,
    lconst,
    lmap,
    nil,
    observe,
    state_key,
)
from coinduct.errors import ParseError
from coinduct.lattice import Carrier, Subset, SubsetOperator

MOD4_SYMS = ("x0", "x1", "x2", "x3")


def succ_mod4() -> AtomFun:
    return AtomFun("succ", {f"x{i}": f"x{(i + 1) % 4}" for i in range(4)})


class CountingFun(AtomFun):
    """An AtomFun that counts its applications: a lone map counts one
    call per element it yields.  A stack of maps reads the functions'
    tables the first time a head reaches its innermost map frame, which
    then keeps the composed image, so it counts a call only when a table
    lacks the head."""

    def __init__(self, fn: AtomFun):
        super().__init__(fn.name, fn.table)
        self.calls = 0

    def __call__(self, sym: str) -> str:
        self.calls += 1
        return super().__call__(sym)


@pytest.fixture
def mod4_alphabet() -> Alphabet:
    return Alphabet(MOD4_SYMS)


@pytest.fixture
def succ() -> AtomFun:
    return succ_mod4()


@pytest.fixture
def defs_doc() -> dict:
    return {
        "alphabet": ["a", "b", "x0", "x1", "x2", "x3"],
        "functions": {
            "succ": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
            "h": {"a": "b", "b": "a", "x0": "x0", "x1": "x1", "x2": "x2", "x3": "x3"},
            "g": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
            "gh": {"a": "b", "b": "a", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
        },
        "machines": {
            "two": {
                "seeds": ["s0", "s1"],
                "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["b", "s0"]}},
            },
            "fin3": {
                "seeds": ["t0", "t1", "t2"],
                "step": {
                    "t0": {"emit": ["a", "t1"]},
                    "t1": {"emit": ["b", "t2"]},
                    "t2": "stop",
                },
            },
        },
    }


@pytest.fixture
def defs(defs_doc) -> Definitions:
    return Definitions.from_dict(defs_doc)


def random_machine(
    rng: random.Random,
    name: str,
    max_seeds: int = 6,
    syms: tuple = ("a", "b", "c"),
    stop_prob: float = 0.25,
) -> StepFn:
    n = rng.randint(1, max_seeds)
    seeds = tuple(f"{name}_s{i}" for i in range(n))
    table = {}
    for s in seeds:
        if rng.random() < stop_prob:
            table[s] = None
        else:
            table[s] = (rng.choice(syms), rng.choice(seeds))
    return StepFn(name, seeds, table)


def rename_seeds(machine: StepFn, prefix: str) -> StepFn:
    ren = {s: f"{prefix}{s}" for s in machine.seeds}
    table = {
        ren[s]: (None if act is None else (act[0], ren[act[1]]))
        for s, act in machine.table.items()
    }
    return StepFn(f"{prefix}{machine.name}", tuple(ren[s] for s in machine.seeds), table)


def ring_machine(n: int) -> StepFn:
    """The machine "big": seeds s0..s(n-1) in one all-`a` ring."""
    seeds = [f"s{i}" for i in range(n)]
    return StepFn("big", seeds, {s: ("a", seeds[(i + 1) % n]) for i, s in enumerate(seeds)})


ABC = Alphabet(("a", "b", "c"))
ROT = AtomFun("rot", {"a": "b", "b": "c", "c": "a"})
FLIP = AtomFun("flip", {"a": "b", "b": "a", "c": "c"})


def random_state(rng, machines, depth=4):
    """A random lazy list mixing every combinator, nested up to `depth`."""
    kinds = ("nil", "const", "iter", "corec") + ("cons", "map", "append") * (depth > 0)
    kind = rng.choice(kinds)
    sym = rng.choice(ABC.symbols)
    fn = rng.choice((ROT, FLIP))
    if kind == "nil":
        return nil()
    if kind == "const":
        return lconst(sym, ABC)
    if kind == "iter":
        return iterates(fn, sym)
    if kind == "corec":
        m = rng.choice(machines)
        return corec(rng.choice(m.seeds), m)
    if kind == "cons":
        return cons(sym, random_state(rng, machines, depth - 1), ABC)
    if kind == "map":
        return lmap(fn, random_state(rng, machines, depth - 1))
    return lappend(random_state(rng, machines, depth - 1), random_state(rng, machines, depth - 1))


def unfold(l: CoList) -> Iterator[tuple[str, CoList]]:
    """Observe `l` one step at a time, yielding (head, tail) until it
    ends: the loop over `observe` that `colist.lasso` replaced."""
    obs = observe(l)
    while obs is not None:
        yield obs
        obs = observe(obs[1])


def step_pair(l1: CoList, l2: CoList):
    """Observe both lists once: None when both end, the reason when the
    observations disagree, else the pair of tails.  The synchronized
    step that `eq_upto`, search and replay took before they read head
    streams and recorded chains."""
    o1, o2 = observe(l1), observe(l2)
    if o1 is None and o2 is None:
        return None
    if o1 is None or o2 is None:
        return "nil/cons mismatch"
    if o1[0] != o2[0]:
        return "heads differ"
    return o1[1], o2[1]


def walk_states(l: CoList, limit: int) -> dict:
    """The states of `l`'s chain by key, `l`'s own key first, walked with
    `unfold` until the list ends, reaches its first repeated key, or has
    made `limit` observations: the chain walk that certificate replay
    made before it recorded steps, and its oracle."""
    walk = {state_key(l): l}
    for _, state in islice(unfold(l), limit):
        key = state_key(state)
        if key in walk:
            break
        walk[key] = state
    return walk


def random_monotone_operator(rng: random.Random, carrier: Carrier) -> SubsetOperator:
    """A random monotone table: a raw random table closed under submask union."""
    n = len(carrier)
    acc = [rng.getrandbits(n) for _ in range(1 << n)]
    for i in range(n):
        for a in range(1 << n):
            if a >> i & 1:
                acc[a] |= acc[a ^ 1 << i]
    return SubsetOperator(lambda s: Subset(carrier, acc[s.bits]), "random-mono")


_TOKEN = re.compile("[A-Za-z0-9_]+|[(),]")
_STRAY = re.compile(r"[^A-Za-z0-9_(),\s]")


def reference_read(what: str, rules: dict, text: str):
    """`syntax.Grammar.read` as it was before it became a loop: one Python
    frame per nesting level, each term built as soon as its `)` is read.
    `rules` maps a head to its constructor and slots (None or a label)."""
    stray = _STRAY.search(text)
    if stray:
        raise ParseError(stray.start(), what)
    toks = _TOKEN.findall(text)
    toks.append("")  # end of input
    i = 0

    def error(expected: str) -> ParseError:  # at token i
        starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
        return ParseError(starts[i], expected)

    def term():
        nonlocal i
        rule = rules.get(toks[i])
        if rule is None:
            raise error(what)
        i += 1
        make, slots = rule
        if not slots:
            return make()
        args = []
        sep = "("
        for slot in slots:
            if toks[i] != sep:
                raise error(f"'{sep}'")
            sep = ","
            i += 1
            if slot is None:
                args.append(term())
                continue
            tok = toks[i]
            if tok in ("(", ")", ",", "") or (slot == "numeral" and not tok.isdigit()):
                raise error(slot)
            args.append(int(tok) if slot == "numeral" else tok)
            i += 1
        if toks[i] != ")":
            raise error("')'")
        i += 1
        return make(*args)

    value = term()
    if toks[i]:
        raise error("end of input")
    return value
