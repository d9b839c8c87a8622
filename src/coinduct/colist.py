"""Lazy lists as corecursive machines.

A lazy list is a state that can be observed exactly one step at a time:
an observation is either None (the list ends here) or a pair
(head symbol, tail state).  Primitive machine states pair a seed with a
declared step function; the derived combinators (cons, const, iterates,
map, append) are states in their own right, each unfolding by its own
one-step equation.  A map/append tower is observed as a zipper
(`TowerList`): its live state inside a shared stack of frames, so one
step touches the live state alone.  Loops that read only heads
(`take`, `check_llist_upto`, `bisim.eq_upto`) run on `heads`, which
keeps the live state in locals and builds no tail states.  Everything
is immutable and pure, apart from key and map memos.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import DefsError, UnknownAtom, UnknownSeed, Verdict, read_json
from .syntax import WORD
from .trees import FiniteTree, NIL_TREE, branch_union, EMPTY_TREE, leaf, numb, ntrunc


@dataclass(frozen=True)
class Alphabet:
    """The finite, nonempty set of atom symbols lists may carry."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        members = frozenset(syms)
        if not syms:
            raise DefsError("alphabet: must be nonempty")
        if len(members) != len(syms):
            raise DefsError("alphabet: duplicate symbol")
        for s in syms:
            if not WORD.fullmatch(s):
                raise DefsError(f"alphabet: bad symbol {s!r}")
        object.__setattr__(self, "symbols", syms)
        # not a field, so == and repr read `symbols` alone
        object.__setattr__(self, "_members", members)

    def __contains__(self, sym: str) -> bool:
        return sym in self._members

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


class _Keyed(CoList):
    """A state that holds other states: a cons cell or a tower.  It is
    compared, hashed and shown by its key, which `state_key` writes with
    loops, so any depth works at the default recursion limit, and a nested
    tower equals the zipper that names the same state.  `repr` is the
    class name around the key, e.g. `ConsList(CONS(a,CONST(a)))`."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, _Keyed):
            return NotImplemented
        return state_key(self) == state_key(other)

    def __hash__(self) -> int:
        return hash(state_key(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({state_key(self)})"


class _Tower(_Keyed):
    """A map or append state, nested as built or in the zipper form that
    observation returns."""

    __slots__ = ()


@dataclass(frozen=True)
class NilList(CoList):
    pass


class ConsList(_Keyed):
    """A cons cell: its head symbol and its tail state."""

    # _key memoizes state_key, filled on first use; threads that race
    # to fill it store equal strings.
    __slots__ = ("head", "tail", "_key")
    __match_args__ = ("head", "tail")

    def __init__(self, head: str, tail: CoList):
        self.head, self.tail, self._key = head, tail, None


@dataclass(frozen=True)
class ConstList(CoList):
    sym: str


@dataclass(frozen=True)
class IterList(CoList):
    fn: AtomFun
    sym: str


@dataclass(frozen=True, eq=False, repr=False)
class MapList(_Tower):
    fn: AtomFun
    source: CoList


@dataclass(frozen=True, eq=False, repr=False)
class AppendList(_Tower):
    left: CoList
    right: CoList


@dataclass(frozen=True)
class MachineList(CoList):
    machine: StepFn
    seed: str


class _Frame:
    """One layer of a tower around its hole, linked toward the root.

    MAP(fn,[]) sets `fn`, APP([],right) sets `right`, and APP(NIL,[])
    sets neither.  `maps` is the innermost map frame at or above this
    one: it maps the heads that come out of the hole.  A map frame under
    another map keeps in `table` the image of each head that has come
    through it under its function composed with every map above it,
    filled on demand by `_map_head`.  `prefix` and `suffix` memoize the
    key text around the hole, filled by the first key asked for with
    this frame innermost; `suffix` is stored last, so a frame that has
    one has both.
    """

    __slots__ = ("fn", "right", "up", "maps", "table", "prefix", "suffix")

    def __init__(self, fn: Optional[AtomFun], right: Optional[CoList], up: Optional["_Frame"]):
        self.fn, self.right, self.up = fn, right, up
        self.table = self.prefix = self.suffix = None
        outer = None if up is None else up.maps
        if fn is None:
            self.maps = outer
            return
        self.maps = self
        if outer is not None:
            self.table = {}


class TowerList(_Tower):
    """A map/append tower in zipper form (Huet, *The Zipper*, 1997): the
    live state and the frames around it, innermost first.  Observing a
    map or append state returns one of these as the tail; each tail
    shares the frames of the state it was observed from."""

    __slots__ = ("live", "frames")

    def __init__(self, live: CoList, frames: _Frame):
        self.live, self.frames = live, frames


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
    """Unfold one step: None for the end of the list, else (head, tail).

    A map or append state is observed through its innermost live state
    alone.  Its nesting is descended once, with a loop, into frames
    (`_Frame`); the tail is a `TowerList` that shares those frames and
    replaces only the live state, so each later step costs O(1) after one
    O(nesting) descent.  When the live state ends, the frames pop
    (`_pop`).  The heads and tails are those of the one-step equations of
    map and append, applied layer by layer.
    """
    frames = None
    if isinstance(l, TowerList):
        l, frames = l.live, l.frames
    while True:
        if isinstance(l, _Tower):
            l, frames = _descend(l, frames)
        if isinstance(l, ConsList):
            obs = l.head, l.tail
        elif isinstance(l, ConstList):
            obs = l.sym, l
        elif isinstance(l, IterList):
            obs = l.sym, IterList(l.fn, l.fn(l.sym))
        elif isinstance(l, MachineList):
            act = l.machine.step(l.seed)
            obs = None if act is None else (act[0], MachineList(l.machine, act[1]))
        elif isinstance(l, NilList):
            obs = None
        else:
            raise TypeError(f"not a CoList state: {l!r}")
        if frames is None:
            return obs
        if obs is not None:
            head, tail = obs
            if frames.maps is not None:
                head = _map_head(frames.maps, head)
            return head, TowerList(tail, frames)
        popped = _pop(frames)
        if popped is None:
            return None
        l, frames = popped


def heads(l: CoList) -> Iterator[str]:
    """The heads of `l`, observed one at a time as they are asked for.

    The same observations as `observe`, in the same order and with the
    same calls and errors, but the live state stays in locals (the cons
    cell, the symbol, the seed) and no tail state is built.  Iterates
    applies its function in the observation that yields the argument.
    """
    frames = None
    if isinstance(l, TowerList):
        l, frames = l.live, l.frames
    while True:
        if isinstance(l, _Tower):
            l, frames = _descend(l, frames)
        m = None if frames is None else frames.maps
        if isinstance(l, ConsList):
            while isinstance(l, ConsList):
                yield l.head if m is None else _map_head(m, l.head)
                l = l.tail
            continue
        if isinstance(l, ConstList):
            sym = l.sym
            while True:
                yield sym if m is None else _map_head(m, sym)
        elif isinstance(l, IterList):
            fn, sym = l.fn, l.sym
            while True:
                after = fn(sym)
                yield sym if m is None else _map_head(m, sym)
                sym = after
        elif isinstance(l, MachineList):
            step = l.machine.step
            act = step(l.seed)
            while act is not None:
                yield act[0] if m is None else _map_head(m, act[0])
                act = step(act[1])
        elif not isinstance(l, NilList):
            raise TypeError(f"not a CoList state: {l!r}")
        if frames is None:
            return
        popped = _pop(frames)
        if popped is None:
            return
        l, frames = popped


def _pop(frames: _Frame) -> Optional[tuple[CoList, _Frame]]:
    """The live state and frames once the live state inside `frames` has
    ended: the innermost APP([],right) becomes APP(NIL,[]) around
    `right`.  None when no such frame is left, as the tower has ended."""
    while frames is not None and frames.right is None:
        frames = frames.up
    if frames is None:
        return None
    return frames.right, _Frame(None, None, frames.up)


def _descend(live: _Tower, frames: Optional[_Frame]) -> tuple[CoList, _Frame]:
    """Push the layers of `live` onto `frames` until a non-tower state is
    live; a zipper met on the way has its frames copied onto `frames`."""
    while isinstance(live, _Tower):
        if isinstance(live, MapList):
            frames, live = _Frame(live.fn, None, frames), live.source
        elif isinstance(live, AppendList):
            frames, live = _Frame(None, live.right, frames), live.left
        else:
            outer, frames, live = frames, live.frames, live.live
            if outer is not None:
                chain = []
                while frames is not None:
                    chain.append(frames)
                    frames = frames.up
                frames = outer
                for f in reversed(chain):
                    frames = _Frame(f.fn, f.right, frames)
    return live, frames


def _map_head(m: _Frame, sym: str) -> str:
    """Map a head through the map frame `m` and every map above it.

    A lone map calls its `AtomFun` once per element.  A stacked map
    applies the functions one by one, innermost first, the first time a
    head arrives, and memoizes the image in its `table`; a missing entry
    raises the `UnknownAtom` of the first function without one and
    memoizes nothing.
    """
    table = m.table
    if table is None:
        return m.fn(sym)
    out = table.get(sym)
    if out is None:
        out, f = sym, m
        while f is not None:
            out = f.fn(out)
            f = None if f.up is None else f.up.maps
        table[sym] = out
    return out


def state_key(l: CoList) -> str:
    """Canonical, injective serialization of a state.

    A cons cell memoizes its key on itself the first time it is asked
    for, and `observe` hands back that very cell as the tail, so walking
    down a shared cons chain of length n costs O(n) steps for the first
    key and O(1) steps for each suffix after it.  A zipper's key is the
    key of its live state inside the text of its frames, which the
    innermost frame memoizes, so a tower's key costs O(1) string
    operations per step after the first, plus copying its text.  Keys
    are written with loops, never recursion, and name the nested state:
    memoizing and zippers change no key.
    """
    if isinstance(l, TowerList):
        f = l.frames
        if f.suffix is None:
            pre, post = _frame_text(f)
            f.prefix, f.suffix = "".join(pre), _join(post)
        return f.prefix + _join([l.live]) + f.suffix
    return _join([l])


def _machine_key(machine: StepFn, seed: str) -> str:
    """The key of a machine state, also used for bare seeds by `bisim`."""
    return f"M({machine.name},{seed})"


def _leaf_key(l: CoList) -> Optional[str]:
    """The key of a state that holds no other state, or of a cons cell
    that memoizes its key; else None."""
    if isinstance(l, ConsList):
        return l._key
    if isinstance(l, ConstList):
        return f"CONST({l.sym})"
    if isinstance(l, IterList):
        return f"ITER({l.fn.name},{l.sym})"
    if isinstance(l, MachineList):
        return _machine_key(l.machine, l.seed)
    if isinstance(l, NilList):
        return "NIL"
    return None


def _frame_text(f: _Frame) -> tuple[list[str], list]:
    """The key text before and after the hole of `f`: the prefix as
    strings, the suffix as strings and the states of APP([],right)
    frames, gathered up to the first frame that memoizes its text."""
    pre, post = [], []
    while f is not None and f.suffix is None:
        if f.fn is not None:
            pre.append(f"MAP({f.fn.name},")
            post.append(")")
        elif f.right is not None:
            pre.append("APP(")
            post += (",", f.right, ")")
        else:
            pre.append("APP(NIL,")
            post.append(")")
        f = f.up
    if f is not None:
        pre.append(f.prefix)
        post.append(f.suffix)
    pre.reverse()
    return pre, post


def _join(items: list) -> str:
    """The text of `items`, strings and states, in order.  States are
    written with an explicit stack; each cons cell written without its
    key memoizes it."""
    if len(items) == 1:
        key = _leaf_key(items[0])
        if key is not None:
            return key
    parts: list[str] = []
    todo = items[::-1]
    while todo:
        x = todo.pop()
        if isinstance(x, str):
            parts.append(x)
            continue
        if isinstance(x, MapList):
            parts.append(f"MAP({x.fn.name},")
            todo += (")", x.source)
            continue
        if isinstance(x, AppendList):
            parts.append("APP(")
            todo += (")", x.right, ",", x.left)
            continue
        key = _leaf_key(x)
        if key is not None:
            parts.append(key)
        elif isinstance(x, TowerList):
            pre, post = _frame_text(x.frames)
            parts += pre
            todo += post[::-1]
            todo.append(x.live)
        elif isinstance(x, ConsList):
            todo += ((x, len(parts)), ")", x.tail)
            parts.append(f"CONS({x.head},")
        elif isinstance(x, tuple):  # a cons cell whose key starts at parts[start]
            cell, start = x
            key = "".join(parts[start:])
            parts[start:] = [key]
            cell._key = key
        else:
            raise TypeError(f"not a CoList state: {x!r}")
    return "".join(parts)


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
    elems = list(islice(heads(l), max(k, 0)))
    return elems, len(elems) < k


def reachable_states(l: CoList, limit: int) -> dict[str, CoList]:
    """The states of `l`'s chain indexed by canonical key, `l`'s own key
    first: observation is deterministic, so the chain is walked until it
    ends, reaches its first repeated key, or has made `limit`
    observations."""
    index: dict[str, CoList] = {state_key(l): l}
    for _, state in islice(unfold(l), limit):
        key = state_key(state)
        if key in index:
            break
        index[key] = state
    return index


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
    for i, head in enumerate(islice(heads(l), max(k, 0))):
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
                if not isinstance(out, str) or out not in alphabet:
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
