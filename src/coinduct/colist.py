"""Lazy lists as corecursive machines.

A lazy list is a state that can be observed exactly one step at a time:
an observation is either None (the list ends here) or a pair
(head symbol, tail state).  Primitive machine states pair a seed with a
declared step function; the derived combinators (cons, const, iterates,
map, append) are states in their own right, each unfolding by its own
one-step equation.

A cons, map or append state stands for a run of nested layers of its
kind: a cons state holds a tuple of heads and an offset into it, a map
state a nonempty tuple of functions, an `append(nil, .)` state its
number of layers (a run that names no list is refused with ValueError).
The expression reader (`dsl.read_states`) builds one state per run;
the library constructors (`cons`, `lmap`, `lappend`) build a run of
one.  Observing a cons run at offset i gives head i and the run at
offset i + 1.

`steps`, which walks chains for `bisim`, names states by ids from a
hash-cons table (`Interner`) and writes no cons key: a chain's leading
cons cells, as one run or cell by cell, are interned as (head, tail id)
in one backward pass, and only the states past them are keyed by text.
A zipper over a long live cons run is keyed by text at every step.

A map/append tower is observed as a zipper (`TowerList`): its live state
inside a shared stack of frames, so one step touches the live state
alone.  A frame stands for a whole run of maps or of `append(nil, .)`
layers, however many states built it, so a tower's descent builds, its
key text writes and a head's mapping walks O(runs) frames; within a
run, the text is one join.  One descent (`_descend`) reads a tower's
nesting, for observations and keys alike, and one writer
(`_frame_text`) writes its frames' key text.  Loops that read only
heads (`read_lasso`, and through it `take` and the CLI's `eval` and
`trunc`; `check_llist_upto`; `bisim.eq_upto`) read them with
`lasso`, which keeps the live state in locals, reads a cons run's heads
from its tuple, builds no tail states, and stops once the list's cycle
closes: a list built from finitely many symbols, seeds and constants
ends, or is a finite prefix and then one cycle, repeated.

Every state is a frozen dataclass, so assigning or deleting any of its
attributes raises `FrozenInstanceError`.  A state that holds no other
state compares, hashes and prints by its fields; a cons run or a tower
by its key (`_Keyed`), written afresh each time.  A state holds its
fields and nothing else; a tower's key and map memos live in its
frames.  A chain of cons runs copies and pickles with loops
(`ConsList.__reduce__`), at any length.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat, takewhile
from threading import Lock
from typing import Iterable, Iterator, Optional

from .errors import DefsError, UnknownAtom, UnknownSeed, Verdict, read_json
from .syntax import WORD, all_words
from .trees import FiniteTree, NIL_TREE, ONE_ATOM, branch_union, EMPTY_TREE, leaf, ntrunc


@dataclass(frozen=True)
class Alphabet:
    """The finite, nonempty set of atom symbols lists may carry."""

    symbols: tuple[str, ...]

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        try:
            members = frozenset(syms)
        except TypeError:  # an unhashable symbol, which the loop below names
            members = None
        if not syms:
            raise DefsError("alphabet: must be nonempty")
        if members is not None and len(members) != len(syms):
            raise DefsError("alphabet: duplicate symbol")
        if members is None or not all_words(syms):
            for s in syms:
                if not isinstance(s, str) or not WORD.fullmatch(s):
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


@dataclass(init=False, repr=False)
class AtomFun:
    """A named total function on the alphabet, given by a finite table."""

    name: str
    table: dict[str, str]

    def __init__(self, name: str, table: dict[str, str]):
        self.name = name
        self.table = dict(table)

    def __call__(self, sym: str) -> str:
        try:
            return self.table[sym]
        except KeyError:
            raise UnknownAtom(f"{self.name}: no entry for {sym!r}") from None

    def __hash__(self) -> int:
        return hash(("fn", self.name))

    def __repr__(self) -> str:
        return f"AtomFun({self.name})"


@dataclass(init=False, repr=False)
class StepFn:
    """A named machine: a finite seed space and a total step table.

    Seeds are distinct strings.  Each seed steps to None (stop) or to a
    pair of strings (emitted symbol, next seed).  The table must step
    exactly the declared seeds into declared seeds; one ordered pass
    (`_check_steps`) checks it and builds the stored table, and errors
    name the offending key as a definitions-file path.
    """

    name: str
    seeds: tuple[str, ...]
    table: dict[str, Optional[tuple[str, str]]]

    def __init__(
        self,
        name: str,
        seeds: Iterable[str],
        table: dict[str, Optional[tuple[str, str]]],
    ):
        self.name = name
        self.seeds = tuple(seeds)
        self.table = _check_steps(name, self.seeds, table)

    def step(self, seed: str) -> Optional[tuple[str, str]]:
        if seed not in self.table:
            raise UnknownSeed(f"{self.name}: unknown seed {seed!r}")
        return self.table[seed]

    def __hash__(self) -> int:
        return hash(("machine", self.name))

    def __repr__(self) -> str:
        return f"StepFn({self.name}, {len(self.seeds)} seeds)"


def _check_steps(name: str, seeds: tuple, table: dict) -> dict:
    """`StepFn`'s table, with its acts as tuples, checked and built in
    one pass in order.  Raises the DefsError of the first fault: a seed
    that is no string, a duplicate seed, then the table's entries, then
    a seed with no entry."""
    for s in seeds:
        if not isinstance(s, str):
            raise DefsError(f"machines.{name}.seeds: bad seed {s!r}")
    declared = frozenset(seeds)
    if len(declared) != len(seeds):
        raise DefsError(f"machines.{name}.seeds: duplicate seed")
    steps = {}
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
            act = tuple(act)
        steps[s] = act
    if len(steps) != len(seeds):  # every entry is a declared seed, so one has none
        missing = next(s for s in seeds if s not in steps)
        raise DefsError(f"machines.{name}.step: missing entry for {missing!r}")
    return steps


class CoList:
    """Base class for lazy-list states."""


class _Keyed(CoList):
    """A state that holds other states: a cons run or a tower.  Its
    subclasses are frozen dataclasses declared with `eq=False,
    repr=False`, so they are compared, hashed and shown by their key, not
    by their fields: `state_key` writes the key at each call, with
    loops, so any depth works at the default recursion limit, and a
    nested tower equals the zipper that names the same state.  `repr` is
    the class name around the key, e.g. `ConsList(CONS(a,CONST(a)))`."""

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


@dataclass(frozen=True)
class NilList(CoList):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class ConsList(_Keyed):
    """A run of cons cells as one state: the symbols `heads[at:]`, in
    order, then `rest`.  Its head is `heads[at]` and its tail the same
    run at `at + 1`, or `rest` after the last symbol; `cons` builds a run
    of one.  It holds only these three fields."""

    heads: tuple[str, ...]
    at: int
    rest: CoList
    __match_args__ = ("head", "tail")

    @property
    def head(self) -> str:
        return self.heads[self.at]

    @property
    def tail(self) -> CoList:
        at = self.at + 1
        return self.rest if at == len(self.heads) else ConsList(self.heads, at, self.rest)

    def __reduce__(self):
        """Copy and pickle a chain of cons runs with loops: its runs are
        listed outermost first and rebuilt innermost first (`_cons_chain`),
        so a chain built cell by cell copies at any length."""
        runs, l = [], self
        while isinstance(l, ConsList):
            runs.append((l.heads, l.at))
            l = l.rest
        return _cons_chain, (runs, l)


def _cons_chain(runs: list, rest: CoList) -> CoList:
    """The chain that `ConsList.__reduce__` lists: each run around `rest`,
    the last one innermost."""
    for heads, at in reversed(runs):
        rest = ConsList(heads, at, rest)
    return rest


@dataclass(frozen=True)
class ConstList(CoList):
    sym: str


@dataclass(frozen=True)
class IterList(CoList):
    fn: AtomFun
    sym: str


@dataclass(frozen=True)
class MachineList(CoList):
    machine: StepFn
    seed: str


@dataclass(frozen=True, eq=False, repr=False)
class MapList(_Tower):
    """A run of maps as one state: the functions `fns`, outermost first,
    applied to `source`; `lmap` builds a run of one.  No function is a
    ValueError."""

    fns: tuple[AtomFun, ...]
    source: CoList

    def __post_init__(self):
        if not self.fns:
            raise ValueError("a map run needs at least one function")


@dataclass(frozen=True, eq=False, repr=False)
class AppendList(_Tower):
    """`layers` appends as one state: append(nil, .) taken `layers` - 1
    times around append(left, right).  `lappend` builds one layer; more
    than one has nil on the left, a run of `append(nil, .)` layers, and
    any other count is a ValueError."""

    left: CoList
    right: CoList
    layers: int

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"an append run needs at least one layer, got {self.layers}")
        if self.layers > 1 and not isinstance(self.left, NilList):
            raise ValueError(f"an append run of {self.layers} layers needs nil on the left")


_NIL = NilList()


class _Frame:
    """One run of same-shaped layers of a tower around its hole, linked
    toward the root.

    A run of maps, MAP(f1,MAP(f2,...[]...)), sets `fns` to its functions,
    outermost first; a run of APP(NIL,[]) layers sets `nils` to their
    number; APP([],right) is one layer and sets `right`.  Descent pushes
    one frame per maximal run, so a frame stands for any number of
    layers.  `maps` is the innermost map frame at or above this one: it
    maps the heads that come out of the hole.  A map frame with more than
    one function at or above it keeps in `table` the image of each head
    that has come through it under the composition of those functions,
    filled on demand by `_map_head` from `tables`, the functions' own
    tables, innermost first, listed once.  `prefix` and `suffix` memoize
    the key text around the hole, filled by the first key asked for with
    this frame innermost; `suffix` is stored last, so a frame that has
    one has both.
    """

    __slots__ = ("fns", "nils", "right", "up", "maps", "table", "tables", "prefix", "suffix")

    def __init__(self, fns: Optional[list], nils: int, right: Optional[CoList],
                 up: Optional["_Frame"]):
        self.fns, self.nils, self.right, self.up = fns, nils, right, up
        self.table = self.tables = self.prefix = self.suffix = None
        outer = None if up is None else up.maps
        if fns is None:
            self.maps = outer
            return
        self.maps = self
        if outer is not None or len(fns) > 1:
            self.table = {}


@dataclass(frozen=True, eq=False, repr=False)
class TowerList(_Tower):
    """A map/append tower in zipper form (Huet, *The Zipper*, 1997): the
    live state and the frames around it, innermost first.  Observing a
    map or append state returns one of these as the tail; each tail
    shares the frames of the state it was observed from."""

    live: CoList
    frames: _Frame


Observation = Optional[tuple[str, CoList]]
Step = Optional[tuple[str, int]]  # None at the end of the list, else (head, tail id)


class Interner:
    """A hash-cons table for the states one search or replay reads
    (Filliatre & Conchon, *Type-safe Modular Hash-consing*, ML 2006):
    each state gets a small int id, equal exactly when the keys are.

    A cons state is interned as (head, id of its tail), so a chain of n
    cells takes n entries and writes no key text; any other state by its
    key text.  The two never meet, as only cons states have keys that
    begin `CONS(`.  `sizes` holds each key's length; `texts` writes the
    keys of ids, and `resolver` names the states of walks by their keys,
    so key text is written only where it is read.
    Lookups read the table as it is; a new entry is added under a lock,
    so walks in several threads may share one table.
    """

    __slots__ = ("ids", "entries", "sizes", "_adding")

    def __init__(self):
        self.ids: dict = {}  # key text, or (head, tail id) -> id
        self.entries: list = []  # id -> key text, or (head, tail id)
        self.sizes: list[int] = []  # id -> length of its key text
        self._adding = Lock()

    def text_id(self, key: str) -> int:
        """The id of the state keyed `key`, which is no cons key."""
        i = self.ids.get(key)
        if i is None:
            with self._adding:
                i = self.ids.get(key)
                if i is None:
                    i = self.ids[key] = len(self.entries)
                    self.entries.append(key)
                    self.sizes.append(len(key))
        return i

    def cons_ids(self, heads: list[str], tail: int) -> list[int]:
        """The ids of the states along a chain of cons cells with `heads`
        around the state `tail`: the first cell's, each next cell's, then
        `tail`; folded from the last cell in one pass that writes no
        text."""
        ids, entries, sizes = self.ids, self.entries, self.sizes
        out = [tail]
        with self._adding:
            for head in reversed(heads):
                cell = head, tail
                tail = ids.get(cell)
                if tail is None:
                    tail = ids[cell] = len(entries)
                    entries.append(cell)
                    sizes.append(len(head) + 7 + sizes[cell[1]])
                out.append(tail)
        out.reverse()
        return out

    def texts(self, ids: Iterable[int]) -> list[str]:
        """The key text of each of `ids`.  A cons cell's key is a slice of
        the first text written that holds it, so each cell is visited
        once however many of `ids` lie on one chain."""
        where: dict = {}
        return [self._text(i, where) for i in ids]

    def _text(self, i: int, where: dict) -> str:
        """The key text of `i`.  `where` maps each cons id whose key a text
        written before holds to that text and the key's offset in it, and
        takes in the cells of the text written now."""
        entries, sizes = self.entries, self.sizes
        heads, cells, j = [], [], i
        entry = entries[j]
        while type(entry) is tuple and j not in where:
            heads.append(entry[0])
            cells.append(j)
            j = entry[1]
            entry = entries[j]
        if type(entry) is tuple:
            text, at = where[j]
            entry = text[at:at + sizes[j]]
        if heads:
            entry = "CONS(" + ",CONS(".join(heads) + "," + entry + ")" * len(heads)
            at = 0
            for j, head in zip(cells, heads):
                where[j] = entry, at
                at += len(head) + 6
        return entry

    def resolver(self, walks: list[dict]):
        """A function from a list of keys to the id of the state each names
        on one of the two `walks`, or None; a walk lists its ids in chain
        order.  A walk's cons states are its leading cons cells, whose key
        lengths differ, so a cons key is matched by its length and one
        in-place `startswith` against the text of that run, written once;
        any other key is looked up in the table.  A list of keys that are
        all cons keys of one run, or all others, is named by C-level
        passes."""
        ids, sizes, runs = self.ids, self.sizes, []
        w0, w1 = walks
        for walk in walks:
            where: dict = {}
            text = self._text(next(iter(walk)), where)
            if where:
                runs.append((text, {sizes[i]: (i, where[i][1])
                                    for i in takewhile(where.__contains__, walk)}))

        def one(key: str) -> Optional[int]:
            if not key.startswith("CONS("):
                i = ids.get(key)
                return i if i in w0 or i in w1 else None
            for text, cells in runs:
                cell = cells.get(len(key))
                if cell is not None and text.startswith(key, cell[1]):
                    return cell[0]
            return None

        def resolve(keys: list[str]) -> list[Optional[int]]:
            if not runs or not any(map(str.startswith, keys, repeat("CONS("))):
                return [i if i in w0 or i in w1 else None for i in map(ids.get, keys)]
            if len(runs) == 1:
                text, cells = runs[0]
                hits = list(map(cells.get, map(len, keys)))
                if None not in hits and all(map(text.startswith, keys, [at for _, at in hits])):
                    return [i for i, _ in hits]
            return list(map(one, keys))

        return resolve


def nil() -> CoList:
    """The empty list: one shared state."""
    return _NIL


def cons(sym: str, tail: CoList, alphabet: Alphabet) -> CoList:
    if sym not in alphabet:
        raise UnknownAtom(f"symbol {sym!r} not in alphabet")
    return ConsList((sym,), 0, tail)


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
    return MapList((fn,), source)


def lappend(left: CoList, right: CoList) -> CoList:
    """Concatenation; copies the right list once the left one ends."""
    return AppendList(left, right, 1)


def corec(seed: str, machine: StepFn) -> CoList:
    """The list unfolded from a seed by a declared step function."""
    if seed not in machine.seeds:
        raise UnknownSeed(f"{machine.name}: unknown seed {seed!r}")
    return MachineList(machine, seed)


def observe(l: CoList) -> Observation:
    """Unfold one step: None for the end of the list, else (head, tail).

    A map or append state is observed through its innermost live state
    alone.  Its nesting is descended once, with a loop (`_descend`), into
    frames (`_Frame`), one per run of maps or of `append(nil, .)` layers
    and one per other append, or a zipper's frames taken as they are; the
    tail is a `TowerList` that shares those frames and replaces only the
    live state, so each later step costs O(1) after one descent of
    O(runs) frames.  When the live state ends, the frames pop (`_pop`).  The heads and tails are those of the one-step
    equations of map and append, applied layer by layer.
    """
    frames = None
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


def steps(l: CoList, table: Interner, key) -> Iterator:
    """`l`'s id in `table`, then the step of each state along `l`'s chain:
    (head, tail id), then None where the list ends.

    The chain's leading cons cells, one run or many, cell by cell or
    not, are read at once: their heads are gathered with a loop and
    their ids folded back from the first state past them
    (`Interner.cons_ids`), so no cons key is written.  Any other state
    holds no cons state ahead of it on the chain; it is observed, and
    its tail keyed by `key` and interned by that text (`_Observed`).
    The steps are C-level iterators and one plain object, with no frame
    to close, so dropping them allocates nothing, even while an
    out-of-memory error unwinds.
    """
    heads: list[str] = []
    while isinstance(l, ConsList):
        heads += l.heads[l.at:]
        l = l.rest
    state = table.text_id(key(l))
    if not heads:
        return chain((state,), _Observed(l, table, key))
    ids = table.cons_ids(heads, state)
    return chain((ids[0],), zip(heads, islice(ids, 1, None)), _Observed(l, table, key))


class _Observed:
    """The steps of `steps` from the state `l` on, one observation each."""

    __slots__ = ("l", "table", "key")

    def __init__(self, l: Optional[CoList], table: Interner, key):
        self.l, self.table, self.key = l, table, key

    def __iter__(self):
        return self

    def __next__(self) -> Step:
        if self.l is None:
            raise StopIteration
        obs = observe(self.l)
        if obs is None:
            self.l = None
            return None
        self.l = obs[1]
        return obs[0], self.table.text_id(self.key(obs[1]))


def lasso(l: CoList, period: list[int]) -> Iterator[str]:
    """The heads of `l`, observed one at a time as they are asked for,
    until they start to repeat.

    The same observations as `observe`, in the same order and with the
    same calls and errors, but the live state stays in locals (the cons
    cell, the symbol, the seed) and no tail state is built.  Iterates
    applies its function in the observation that yields the argument.

    A constant, iterates or machine state that is live never ends, so
    the frames around it never change again; the reader stops at the
    first repeat of its symbol or seed, before that repeat is observed,
    and appends to `period` the number of heads read since the repeated
    state was first live.  The rest of the list is then its last
    `period[0]` heads repeated.  A list that ends leaves `period` empty.
    """
    frames = None
    while True:
        if isinstance(l, _Tower):
            l, frames = _descend(l, frames)
        m = None if frames is None else frames.maps
        if isinstance(l, ConsList):
            while isinstance(l, ConsList):
                heads = l.heads[l.at:]
                yield from heads if m is None else map(_map_head, repeat(m), heads)
                l = l.rest
            continue
        if isinstance(l, ConstList):
            yield l.sym if m is None else _map_head(m, l.sym)
            period.append(1)
            return
        if isinstance(l, IterList):
            fn, sym, seen = l.fn, l.sym, {}
            while sym not in seen:
                seen[sym] = len(seen)
                after = fn(sym)
                yield sym if m is None else _map_head(m, sym)
                sym = after
            period.append(len(seen) - seen[sym])
            return
        if isinstance(l, MachineList):
            step, seed, seen = l.machine.step, l.seed, {}
            act = step(seed)
            while act is not None:
                seen[seed] = len(seen)
                yield act[0] if m is None else _map_head(m, act[0])
                seed = act[1]
                if seed in seen:
                    period.append(len(seen) - seen[seed])
                    return
                act = step(seed)
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
    return frames.right, _Frame(None, 1, None, frames.up)


def _descend(live: _Tower, frames: Optional[_Frame]) -> tuple[CoList, _Frame]:
    """Push the layers of `live` onto `frames` until a non-tower state is
    live, one frame per run of maps or of `append(nil, .)` layers: a
    run state's frame takes in the adjacent run states, as `lmap` and
    `lappend` build one per layer.  A zipper met on the way has its
    frames copied onto `frames`, run for run, or taken as they are when
    `frames` is empty.  `append(nil, X)` observes as X does inside
    APP(NIL,[]), so the APP([],X) frame and the pop of the nil are
    skipped."""
    while isinstance(live, _Tower):
        if isinstance(live, MapList):
            fns = []
            while isinstance(live, MapList):
                fns += live.fns
                live = live.source
            frames = _Frame(fns, 0, None, frames)
        elif isinstance(live, AppendList):
            if isinstance(live.left, NilList):
                k = 0
                while isinstance(live, AppendList) and isinstance(live.left, NilList):
                    k += live.layers
                    live = live.right
                frames = _Frame(None, k, None, frames)
            else:
                frames, live = _Frame(None, 0, live.right, frames), live.left
        else:
            outer, frames, live = frames, live.frames, live.live
            if outer is not None:
                chain = []
                while frames is not None:
                    chain.append(frames)
                    frames = frames.up
                frames = outer
                for f in reversed(chain):
                    frames = _Frame(f.fns, f.nils, f.right, frames)
    return live, frames


def _map_head(m: _Frame, sym: str) -> str:
    """Map a head through the map frame `m` and every map above it.

    A lone map calls its `AtomFun` once per element.  Otherwise the
    first time a head arrives it is looked up in the functions' tables
    in one loop, innermost first, and `m.table` memoizes the image; a
    missing entry maps the head again one call at a time, so it raises
    the `UnknownAtom` of the first function without one, and memoizes
    nothing.
    """
    table = m.table
    if table is None:
        return m.fns[0](sym)
    out = table.get(sym)
    if out is None:
        tables = m.tables
        if tables is None:
            tables = m.tables = [fn.table for fn in _frame_fns(m)]
        out = sym
        try:
            for t in tables:
                out = t[out]
        except KeyError:
            for fn in _frame_fns(m):
                sym = fn(sym)
            return sym
        table[sym] = out
    return out


def _frame_fns(m: _Frame) -> Iterator[AtomFun]:
    """The functions that map the heads coming out of map frame `m`,
    innermost first."""
    while m is not None:
        yield from reversed(m.fns)
        m = None if m.up is None else m.up.maps


def state_key(l: CoList) -> str:
    """Canonical, injective serialization of a state.

    A cons state's key costs O(n) for its n cells, each time it is
    asked for: no list state keeps its key.
    A tower is keyed as `observe` reads it, by `_descend`: the key of
    its live state inside the text of its frames (`_frame_text`), which
    the innermost frame memoizes.  A zipper keeps its frames, so its key
    costs O(1) string operations per step after the first, plus copying
    its text; a tower as built is descended afresh, one frame per run.
    The first text pushes O(runs) items on an explicit stack, as a run
    of maps, of `append(nil, .)` layers or of cons cells is written with
    one join or multiplication.  Keys are written with loops, never
    recursion, and name the nested state: memoizing and zippers change
    no key.
    """
    pre = post = ""
    if isinstance(l, _Tower):
        l, f = _descend(l, None)
        if f.suffix is None:
            text, rest = _frame_text(f)
            f.prefix, f.suffix = "".join(text), _join(rest)
        pre, post = f.prefix, f.suffix
    return pre + _join([l]) + post


def _machine_key(machine: StepFn, seed: str) -> str:
    """The key of a machine state, also used for bare seeds by `bisim`."""
    return f"M({machine.name},{seed})"


def _leaf_key(l: CoList) -> Optional[str]:
    """The key of a state that holds no other state; else None."""
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
    frames, gathered up to the first frame that memoizes its text; the
    one writer of a tower's MAP( and APP( key text."""
    pre, post = [], []
    while f is not None and f.suffix is None:
        if f.fns is not None:
            pre.append("MAP(" + ",MAP(".join([fn.name for fn in f.fns]) + ",")
            post.append(")" * len(f.fns))
        elif f.right is not None:
            pre.append("APP(")
            post += (",", f.right, ")")
        else:
            pre.append("APP(NIL," * f.nils)
            post.append(")" * f.nils)
        f = f.up
    if f is not None:
        pre.append(f.prefix)
        post.append(f.suffix)
    pre.reverse()
    return pre, post


def _join(items: list) -> str:
    """The text of `items`, strings and states, in order, written with an
    explicit stack: a tower pushes its frames' text (`_frame_text`) once
    `_descend` has read it, and a chain of cons runs is gathered one run
    at a time and pushed once."""
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
        if isinstance(x, _Tower):
            x, f = _descend(x, None)
            pre, post = _frame_text(f)
            parts += pre
            todo += post[::-1]
            todo.append(x)
            continue
        key = _leaf_key(x)
        if key is not None:
            parts.append(key)
        elif isinstance(x, ConsList):
            heads = []
            while isinstance(x, ConsList):
                heads += x.heads[x.at:]
                x = x.rest
            parts.append("CONS(" + ",CONS(".join(heads) + ",")
            todo += (")" * len(heads), x)
        else:
            raise TypeError(f"not a CoList state: {x!r}")
    return "".join(parts)


def read_lasso(k: int, l: CoList) -> tuple[list[str], int]:
    """The heads `lasso` reads, at most k of them, and the period of the
    cycle they close, or 0 when the list ended or k heads came first.

    With a period p, the first k heads of `l` are these heads, then their
    last p repeated (`unroll`), and fewer than k heads were read."""
    period: list[int] = []
    heads = list(islice(lasso(l, period), max(k, 0)))
    return heads, period[0] if period else 0


def take(k: int, l: CoList) -> tuple[list[str], bool]:
    """First k elements and whether the list was seen to end.

    Observes at most k heads, and none past the point where the list's
    cycle closes (`read_lasso`): the elements after it repeat that cycle.
    In particular take(0, .) observes nothing and reports ended=False
    even on nil().
    """
    elems, period = read_lasso(k, l)
    if period:
        elems = unroll(elems, period, k)
    return elems, len(elems) < k


def unroll(heads: list[str], period: int, n: int) -> list[str]:
    """The first n heads of a lasso: `heads`, then their last `period`
    repeated."""
    if n <= len(heads):
        return heads[:n]
    cycle = heads[-period:]
    reps, rest = divmod(n - len(heads), period)
    return heads + cycle * reps + cycle[:rest]


def _fold(elems: list[str], ended: bool) -> FiniteTree:
    """The tree of a list's first observations, built innermost cell
    first: on the nil tree if the list ended, else on the empty tree."""
    tree = NIL_TREE if ended else EMPTY_TREE
    for sym in reversed(elems):
        tree = branch_union(ONE_ATOM, branch_union(leaf(sym), tree))
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
    """Depth-k membership check: every head within `atoms` until Nil.

    Only the heads `lasso` reads are checked: past the point where the
    list's cycle closes, every head repeats one of them."""
    allowed = frozenset(atoms)
    for i, head in enumerate(islice(lasso(l, []), max(k, 0))):
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
        if not isinstance(alpha_raw, list) or not all(map(isinstance, alpha_raw, repeat(str))):
            raise DefsError("alphabet: must be an array of strings")
        alphabet = Alphabet(alpha_raw)

        members = alphabet._members
        functions: dict[str, AtomFun] = {}
        for name, table in _section(doc, "functions").items():
            if not WORD.fullmatch(name):
                raise DefsError(f"functions.{name}: bad name")
            if not isinstance(table, dict):
                raise DefsError(f"functions.{name}: must be an object")
            if table.keys() != members or not _within(table.values(), members):
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
            if not all_words(seeds):
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
            machine = machines[name] = StepFn(name, seeds, table)
            # StepFn checked the table, so its entries are None or pairs
            for seed, act in machine.table.items():
                if act is not None and act[0] not in members:
                    raise DefsError(
                        f"machines.{name}.step.{seed}: emit symbol {act[0]!r} not in alphabet"
                    )

        return cls(alphabet, functions, machines)

    @classmethod
    def load(cls, path: str) -> "Definitions":
        return cls.from_dict(read_json(path, DefsError, "definitions"))


def _within(values, members: frozenset) -> bool:
    """Whether every one of `values` is in `members`."""
    try:
        return members.issuperset(values)
    except TypeError:  # an unhashable value
        return False


def _section(doc: dict, key: str) -> dict:
    """An optional object-valued section of a definitions document."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise DefsError(f"{key}: must be an object")
    return section
