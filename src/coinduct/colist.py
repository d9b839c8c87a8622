"""Lazy lists as corecursive machines.

A lazy list is a state that can be observed exactly one step at a time:
an observation is either None (the list ends here) or a pair
(head symbol, tail state).  Primitive machine states pair a seed with a
declared step function; the derived combinators (cons, const, iterates,
map, append) are states in their own right, each unfolding by its own
one-step equation.  Everything is immutable and pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import (
    DefsError,
    StateSpaceExceeded,
    UnknownAtom,
    UnknownSeed,
    Verdict,
    read_json,
)
from .syntax import WORD
from .trees import FiniteTree, NIL_TREE, branch_union, EMPTY_TREE, leaf, numb, ntrunc

STATE_BOUND = 10_000


@dataclass(frozen=True)
class Alphabet:
    """The finite, nonempty set of atom symbols lists may carry."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise DefsError("alphabet: must be nonempty")
        if len(set(syms)) != len(syms):
            raise DefsError("alphabet: duplicate symbol")
        for s in syms:
            if not WORD.fullmatch(s):
                raise DefsError(f"alphabet: bad symbol {s!r}")
        object.__setattr__(self, "symbols", syms)

    def __contains__(self, sym: str) -> bool:
        return sym in self.symbols

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


class AtomFun:
    """A named total function on the alphabet, given by a finite table."""

    def __init__(self, name: str, table: dict[str, str]):
        self.name = name
        self.table = dict(table)

    def __call__(self, sym: str) -> str:
        try:
            return self.table[sym]
        except KeyError:
            raise UnknownAtom(f"{self.name}: no entry for {sym!r}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AtomFun)
            and self.name == other.name
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(("fn", self.name))

    def __repr__(self) -> str:
        return f"AtomFun({self.name})"


class StepFn:
    """A named machine: a finite seed space and a total step table.

    Seeds are distinct strings.  Each seed steps to None (stop) or to a
    pair of strings (emitted symbol, next seed).  The table must step
    exactly the declared seeds into declared seeds; errors name the
    offending key as a definitions-file path.
    """

    def __init__(
        self,
        name: str,
        seeds: Iterable[str],
        table: dict[str, Optional[tuple[str, str]]],
    ):
        self.name = name
        self.seeds = tuple(seeds)
        for s in self.seeds:
            if not isinstance(s, str):
                raise DefsError(f"machines.{name}.seeds: bad seed {s!r}")
        declared = frozenset(self.seeds)
        if len(declared) != len(self.seeds):
            raise DefsError(f"machines.{name}.seeds: duplicate seed")
        self.table = {}
        for s, act in table.items():
            if s not in declared:
                raise DefsError(f"machines.{name}.step.{s}: undeclared seed")
            if act is not None:
                if not (
                    isinstance(act, (tuple, list))
                    and len(act) == 2
                    and isinstance(act[0], str)
                    and isinstance(act[1], str)
                ):
                    raise DefsError(
                        f"machines.{name}.step.{s}: must be \"stop\" or {{\"emit\": [symbol, seed]}}"
                    )
                if act[1] not in declared:
                    raise DefsError(f"machines.{name}.step.{s}: emit seed {act[1]!r} undeclared")
                act = (act[0], act[1])
            self.table[s] = act
        for s in self.seeds:
            if s not in self.table:
                raise DefsError(f"machines.{name}.step: missing entry for {s!r}")

    def step(self, seed: str) -> Optional[tuple[str, str]]:
        if seed not in self.table:
            raise UnknownSeed(f"{self.name}: unknown seed {seed!r}")
        return self.table[seed]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StepFn)
            and self.name == other.name
            and self.seeds == other.seeds
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash(("machine", self.name))

    def __repr__(self) -> str:
        return f"StepFn({self.name}, {len(self.seeds)} seeds)"


class CoList:
    """Base class for lazy-list states."""

    __slots__ = ()


@dataclass(frozen=True)
class NilList(CoList):
    pass


@dataclass(frozen=True)
class ConsList(CoList):
    head: str
    tail: CoList

    # Memo of state_key, filled on first use; not a dataclass field, so
    # it stays out of __eq__, __hash__ and __repr__.  Threads that race
    # to fill it store equal strings.
    _key = None


@dataclass(frozen=True)
class ConstList(CoList):
    sym: str


@dataclass(frozen=True)
class IterList(CoList):
    fn: AtomFun
    sym: str


@dataclass(frozen=True)
class MapList(CoList):
    fn: AtomFun
    source: CoList


@dataclass(frozen=True)
class AppendList(CoList):
    left: CoList
    right: CoList


@dataclass(frozen=True)
class MachineList(CoList):
    machine: StepFn
    seed: str


Observation = Optional[tuple[str, CoList]]


def nil() -> CoList:
    return NilList()


def cons(sym: str, tail: CoList, alphabet: Alphabet) -> CoList:
    if sym not in alphabet:
        raise UnknownAtom(f"symbol {sym!r} not in alphabet")
    return ConsList(sym, tail)


def lconst(sym: str, alphabet: Alphabet) -> CoList:
    """The infinite list repeating one symbol."""
    if sym not in alphabet:
        raise UnknownAtom(f"symbol {sym!r} not in alphabet")
    return ConstList(sym)


def iterates(fn: AtomFun, sym: str) -> CoList:
    """The list of repeated applications: sym, fn sym, fn (fn sym), ..."""
    if sym not in fn.table:
        raise UnknownAtom(f"symbol {sym!r} not in domain of {fn.name}")
    return IterList(fn, sym)


def lmap(fn: AtomFun, source: CoList) -> CoList:
    """Apply fn to every element, lazily."""
    return MapList(fn, source)


def lappend(left: CoList, right: CoList) -> CoList:
    """Concatenation; copies the right list once the left one ends."""
    return AppendList(left, right)


def corec(seed: str, machine: StepFn) -> CoList:
    """The list unfolded from a seed by a declared step function."""
    if seed not in machine.seeds:
        raise UnknownSeed(f"{machine.name}: unknown seed {seed!r}")
    return MachineList(machine, seed)


def observe(l: CoList) -> Observation:
    """Unfold one step: None for the end of the list, else (head, tail)."""
    if isinstance(l, NilList):
        return None
    if isinstance(l, ConsList):
        return l.head, l.tail
    if isinstance(l, ConstList):
        return l.sym, l
    if isinstance(l, IterList):
        return l.sym, IterList(l.fn, l.fn(l.sym))
    if isinstance(l, MapList):
        obs = observe(l.source)
        if obs is None:
            return None
        head, tail = obs
        return l.fn(head), MapList(l.fn, tail)
    if isinstance(l, AppendList):
        obs = observe(l.left)
        if obs is not None:
            head, tail = obs
            return head, AppendList(tail, l.right)
        obs = observe(l.right)
        if obs is None:
            return None
        head, tail = obs
        return head, AppendList(NilList(), tail)
    if isinstance(l, MachineList):
        act = l.machine.step(l.seed)
        if act is None:
            return None
        sym, nxt = act
        return sym, MachineList(l.machine, nxt)
    raise TypeError(f"not a CoList state: {l!r}")


def state_key(l: CoList) -> str:
    """Canonical, injective serialization of a state.

    A cons cell memoizes its key on itself the first time it is asked
    for, and `observe` hands back that very cell as the tail, so walking
    down a shared cons chain of length n costs O(n) steps for the first
    key and O(1) steps for each suffix after it.  The chain is walked
    with a loop, not recursion.  Map and append states are rebuilt by
    every observation, so their keys are built afresh, in O(nesting)
    steps.  Memoizing changes no key: the strings are the documented
    format.
    """
    if isinstance(l, NilList):
        return "NIL"
    if isinstance(l, ConsList):
        return l._key or _cons_key(l)
    if isinstance(l, ConstList):
        return f"CONST({l.sym})"
    if isinstance(l, IterList):
        return f"ITER({l.fn.name},{l.sym})"
    if isinstance(l, MapList):
        return f"MAP({l.fn.name},{state_key(l.source)})"
    if isinstance(l, AppendList):
        return f"APP({state_key(l.left)},{state_key(l.right)})"
    if isinstance(l, MachineList):
        return _machine_key(l.machine, l.seed)
    raise TypeError(f"not a CoList state: {l!r}")


def _machine_key(machine: StepFn, seed: str) -> str:
    """The key of a machine state, also used for bare seeds by `bisim`."""
    return f"M({machine.name},{seed})"


def _cons_key(l: ConsList) -> str:
    """Key the un-keyed cons cells at the top of `l`, memoizing each."""
    spine = []
    while isinstance(l, ConsList) and l._key is None:
        spine.append(l)
        l = l.tail
    key = state_key(l)
    for cell in reversed(spine):
        key = f"CONS({cell.head},{key})"
        object.__setattr__(cell, "_key", key)
    return key


def unfold(l: CoList) -> Iterator[tuple[str, CoList]]:
    """Observe `l` one step at a time, yielding (head, tail) until it ends.

    Each observation happens only when the next pair is asked for.
    """
    obs = observe(l)
    while obs is not None:
        yield obs
        obs = observe(obs[1])


def take(k: int, l: CoList) -> tuple[list[str], bool]:
    """First k elements and whether the list was seen to end.

    Performs at most k observations; in particular take(0, .) observes
    nothing and reports ended=False even on nil().
    """
    elems = [head for head, _ in islice(unfold(l), max(k, 0))]
    return elems, len(elems) < k


def reachable_states(l: CoList) -> dict[str, CoList]:
    """All states reachable by observation, indexed by canonical key: one
    chain, as observation is deterministic, walked until it ends or
    repeats.  Raises StateSpaceExceeded past `STATE_BOUND` states."""
    index: dict[str, CoList] = {state_key(l): l}
    for _, state in unfold(l):
        key = state_key(state)
        if key in index:
            break
        if len(index) >= STATE_BOUND:
            raise StateSpaceExceeded(f"more than {STATE_BOUND} reachable states")
        index[key] = state
    return index


def compile_machine(l: CoList) -> tuple[StepFn, str]:
    """Flatten a state's reachable closure into an equivalent StepFn.

    Seeds are the canonical state keys; the start seed is returned
    alongside.  Raises StateSpaceExceeded past `STATE_BOUND` states.
    """
    index = reachable_states(l)
    table: dict[str, Optional[tuple[str, str]]] = {}
    for key, state in index.items():
        obs = observe(state)
        table[key] = None if obs is None else (obs[0], state_key(obs[1]))
    machine = StepFn("compiled", tuple(index), table)
    return machine, state_key(l)


def _fold(elems: list[str], ended: bool) -> FiniteTree:
    """The tree of a list's first observations, built innermost cell
    first: on the nil tree if the list ended, else on the empty tree."""
    tree = NIL_TREE if ended else EMPTY_TREE
    for sym in reversed(elems):
        tree = branch_union(numb(1), branch_union(leaf(sym), tree))
    return tree


def lcorf(k: int, seed: str, machine: StepFn) -> FiniteTree:
    """Depth-k tree approximant of the list unfolded from `seed`.

    Zero fuel yields the empty tree; each further unit either closes the
    list with the nil tree or contributes one list cell around the
    smaller approximant (whose branches may still be empty): the fold of
    `take(k, corec(seed, machine))`.
    """
    return _fold(*take(k, corec(seed, machine)))


def tree_trunc(k: int, l: CoList) -> FiniteTree:
    """Nodes of the list's tree encoding at depth below k.

    Element i puts nodes at depths 2i+1 and 2i+2, and an end after j
    elements one at depth 2j+1, so the first k // 2 observations fix
    every node above the cut.
    """
    return ntrunc(k, _fold(*take(k // 2, l)))


def check_llist_upto(k: int, l: CoList, atoms: Iterable[str]) -> Verdict:
    """Depth-k membership check: every head within `atoms` until Nil."""
    allowed = frozenset(atoms)
    for i, (head, _) in enumerate(islice(unfold(l), max(k, 0))):
        if head not in allowed:
            return Verdict(False, f"head {head} outside allowed atoms", i)
    return Verdict(True)


@dataclass(frozen=True)
class Definitions:
    """A validated definitions file: alphabet, functions and machines."""

    alphabet: Alphabet
    functions: dict[str, AtomFun]
    machines: dict[str, StepFn]

    @classmethod
    def from_dict(cls, doc: dict) -> "Definitions":
        """Check the document's JSON shape and names; `Alphabet` and
        `StepFn` check their own invariants."""
        if not isinstance(doc, dict):
            raise DefsError("definitions: top level must be an object")
        alpha_raw = doc.get("alphabet")
        if not isinstance(alpha_raw, list) or not all(
            isinstance(s, str) for s in alpha_raw
        ):
            raise DefsError("alphabet: must be an array of strings")
        alphabet = Alphabet(alpha_raw)

        functions: dict[str, AtomFun] = {}
        for name, table in _section(doc, "functions").items():
            if not WORD.fullmatch(name):
                raise DefsError(f"functions.{name}: bad name")
            if not isinstance(table, dict):
                raise DefsError(f"functions.{name}: must be an object")
            for sym in alphabet:
                if sym not in table:
                    raise DefsError(f"functions.{name}: missing entry for {sym!r}")
            for sym, out in table.items():
                if sym not in alphabet:
                    raise DefsError(f"functions.{name}.{sym}: key not in alphabet")
                if out not in alphabet:
                    raise DefsError(f"functions.{name}.{sym}: value {out!r} not in alphabet")
            functions[name] = AtomFun(name, table)

        machines: dict[str, StepFn] = {}
        for name, spec in _section(doc, "machines").items():
            if not WORD.fullmatch(name):
                raise DefsError(f"machines.{name}: bad name")
            seeds = spec.get("seeds") if isinstance(spec, dict) else None
            step = spec.get("step") if isinstance(spec, dict) else None
            if not isinstance(seeds, list) or not seeds:
                raise DefsError(f"machines.{name}.seeds: must be a nonempty array")
            for s in seeds:
                if isinstance(s, str) and not WORD.fullmatch(s):
                    raise DefsError(f"machines.{name}.seeds: bad seed {s!r}")
            if not isinstance(step, dict):
                raise DefsError(f"machines.{name}.step: must be an object")
            table = {}
            for seed, act in step.items():
                emit = act.get("emit") if isinstance(act, dict) and len(act) == 1 else None
                if emit is None and act != "stop":
                    raise DefsError(
                        f"machines.{name}.step.{seed}: must be \"stop\" or {{\"emit\": [symbol, seed]}}"
                    )
                table[seed] = emit
            machines[name] = StepFn(name, seeds, table)
            for seed, act in machines[name].table.items():
                if act is not None and act[0] not in alphabet:
                    raise DefsError(
                        f"machines.{name}.step.{seed}: emit symbol {act[0]!r} not in alphabet"
                    )

        return cls(alphabet, functions, machines)

    @classmethod
    def load(cls, path: str) -> "Definitions":
        return cls.from_dict(read_json(path, DefsError, "definitions"))


def _section(doc: dict, key: str) -> dict:
    """An optional object-valued section of a definitions document."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise DefsError(f"{key}: must be an object")
    return section
