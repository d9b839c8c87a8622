"""Lazy-list equality by coinduction: certificates, search, and the gfp view.

A certificate is a finite relation on canonical state keys submitted as a
bisimulation witness.  Verification replays one observation step per
pair; the weak rule demands the tails be related again, the strong rule
additionally accepts tails with equal keys.  `find_bisimulation` builds
such witnesses for eventually-periodic lists.  Each list is one chain
of states, which search and replay record (`_Chain`, `reachable_states`)
as `colist.steps` steps them, once each.  Both lists' states are named
by small ints from one hash-cons table per search or replay
(`colist.Interner`), so pairs are stored and compared as ints, and a
chain of n cons cells is walked with no cons key written; the key text
a walk does write, a tower's or a leaf's, is counted and refused past
`KEY_TEXT_BOUND` characters.  Key text is written only at the edge: a
search certificate's pairs when first read, a counterexample's keys,
and the CLI report, which the ids can refuse before writing; a file
certificate's keys are named without hashing a cons key (`_resolver`).
Search, replay and `closure_check` check each pair
by one closure rule (`_closes`), which names the fault or none, and
build a `Verdict` or `Counterexample` only for the outcome
they return.  `bisimilarity_gfp` computes the largest bisimulation
between two machines, the greatest fixedpoint of the one-step operator
`llistd_fun` on the seed-pair lattice, by partition refinement of the
two seed sets with prefix doubling, and returns it as a read-only view
of the blocks (`wf.PairView`), never as the n1 * n2 seed pairs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd
from typing import Optional, Union

from . import lattice  # noqa: F401  bench/tracing.py wraps bisim.lattice
from .colist import (
    CoList,
    Interner,
    Step,
    StepFn,
    _machine_key,
    lasso,
    observe,  # noqa: F401  bench/tracing.py wraps bisim.observe
    state_key,
    steps,
    unroll,
)
from .errors import (
    CertificateError,
    RootMissing,
    SizeExceeded,
    UnresolvableKey,
    Verdict,
    read_json,
)
from .trees import in0, in1, scons
from .wf import PairView

KeyPair = tuple[str, str]

Relation = frozenset  # of KeyPair

TreePairRelation = frozenset  # of (FiniteTree, FiniteTree)

_ESCAPES = "tail pair escapes the relation"  # the closure failure that search steps past


def diag_rel(trees) -> TreePairRelation:
    """The diagonal relation {(t, t)} over a set of trees."""
    return frozenset((t, t) for t in trees)


def rel_combine(kind: str, r: TreePairRelation, s: TreePairRelation) -> TreePairRelation:
    """Lift the tree product/sum to relations, componentwise.

    kind "product" pairs scons images; kind "sum" injects the two
    relations disjointly.
    """
    if kind == "product":
        return frozenset(
            (scons(x, y), scons(x2, y2)) for (x, x2) in r for (y, y2) in s
        )
    if kind == "sum":
        return frozenset((in0(x), in0(x2)) for (x, x2) in r) | frozenset(
            (in1(y), in1(y2)) for (y, y2) in s
        )
    raise ValueError("kind must be 'product' or 'sum'")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Certificate:
    """A bisimulation witness: a relation of state-key pairs with a root.

    `pairs` reads as a frozenset of key-text pairs and `root` as one
    pair; certificates compare, hash and print by (kind, pairs, root).
    Pairs given to the constructor are shape-checked by C-level passes
    and kept as given, unhashed, until `pairs` is first read; replay
    names their keys without hashing a cons key (`_resolver`).  A
    certificate that `find_bisimulation` returns keeps its pairs as ids
    in search order, with the search's table, and writes their text
    when `pairs` is first read; replay reads the ids.
    """

    kind: str  # "weak" | "strong"
    _root: Optional[KeyPair]  # `root`, once written
    _given: Optional[tuple]  # the pairs as given, as tuples
    _ids: Optional[dict]  # or a search's id pairs, in search order
    _table: Optional[Interner]  # the table that names those ids
    _pairs: Optional[Relation]  # `pairs`, once read

    def __init__(self, kind: str, pairs, root):
        """Check the shape (root, pairs, kind, root among the pairs), in
        that order."""
        if not _is_key_pair(root):
            raise CertificateError("root: must be a pair of keys")
        root = tuple(root)
        if not isinstance(pairs, (list, tuple, AbstractSet)):
            raise CertificateError("pairs: must be an array of key pairs")
        if not _all_key_pairs(pairs):
            i = next(i for i, p in enumerate(pairs) if not _is_key_pair(p))
            raise CertificateError(f"pairs[{i}]: must be a pair of keys")
        given = tuple(map(tuple, pairs))
        if kind not in ("weak", "strong"):
            raise CertificateError(f"kind: must be \"weak\" or \"strong\", got {kind!r}")
        if root not in given:
            raise CertificateError("root: must be among the certificate pairs")
        self._fill(kind, root, given, None, None)

    @classmethod
    def _found(cls, kind: str, table: Interner, ids: dict) -> "Certificate":
        """The certificate of a search whose pairs are `ids`, root first."""
        cert = cls.__new__(cls)
        cert._fill(kind, None, None, ids, table)
        return cert

    def _fill(self, kind, root, given, ids, table) -> None:
        # past the frozen `__setattr__`, which refuses every assignment
        self.__dict__.update(kind=kind, _root=root, _given=given, _ids=ids, _table=table, _pairs=None)

    @property
    def root(self) -> KeyPair:
        if self._root is None:
            self.__dict__["_root"] = _written(self._table, [next(iter(self._ids))])[0]
        return self._root

    @property
    def pairs(self) -> Relation:
        if self._pairs is None:
            self.__dict__["_pairs"] = frozenset(self._given or self._text())
        return self._pairs

    def _text(self) -> list[KeyPair]:
        """A search certificate's pairs as text, in search order.  Raises
        `SizeExceeded` when one side's text would pass `KEY_TEXT_BOUND`
        characters, which the ids tell before any text is written."""
        sizes = self._table.sizes
        if len(self._ids) * max(sizes) > KEY_TEXT_BOUND:
            for side in zip(*self._ids):
                if sum(map(sizes.__getitem__, side)) > KEY_TEXT_BOUND:
                    raise SizeExceeded(_TOO_MUCH_TEXT.format(KEY_TEXT_BOUND))
        written = _written(self._table, self._ids)
        self.__dict__["_root"] = written[0]
        return written

    def __eq__(self, other) -> bool:
        if not isinstance(other, Certificate):
            return NotImplemented
        return (self.kind, self.pairs, self.root) == (other.kind, other.pairs, other.root)

    def __hash__(self) -> int:
        return hash((self.kind, self.pairs, self.root))

    def __repr__(self) -> str:
        return f"Certificate(kind={self.kind!r}, pairs={self.pairs!r}, root={self.root!r})"

    def __reduce__(self):
        """Copies and pickles are certificates of the pairs as text."""
        return Certificate, (self.kind, self.pairs, self.root)

    def to_dict(self) -> dict:
        """The certificate as a document: the root pair first, then the
        others sorted.  A search certificate's pairs are written and
        sorted once, never hashed."""
        ordered = sorted(self.pairs if self._ids is None else self._text())
        ordered.remove(self.root)
        return {
            "kind": self.kind,
            "root": list(self.root),
            "pairs": [list(self.root)] + [list(p) for p in ordered],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Certificate":
        if not isinstance(doc, dict):
            raise CertificateError("certificate: top level must be an object")
        return cls(doc.get("kind"), doc.get("pairs"), doc.get("root"))

    @classmethod
    def load(cls, path: str) -> "Certificate":
        return cls.from_dict(read_json(path, CertificateError, "certificate"))


def _is_key_pair(p) -> bool:
    return (isinstance(p, (list, tuple)) and len(p) == 2
            and isinstance(p[0], str) and isinstance(p[1], str))


def _all_key_pairs(pairs) -> bool:
    """`all(map(_is_key_pair, pairs))`, in three C-level passes."""
    return (all(map(isinstance, pairs, repeat((list, tuple))))
            and all(map((2).__eq__, map(len, pairs)))
            and all(map(isinstance, chain.from_iterable(pairs), repeat(str))))


def _written(table: Interner, pairs) -> list[KeyPair]:
    """The key text of each of the id `pairs`."""
    texts = table.texts(chain.from_iterable(pairs))
    return list(zip(texts[::2], texts[1::2]))


def _distinct(pairs: tuple) -> int:
    """How many distinct pairs `pairs` holds, hashing only the pairs whose
    two key lengths another pair shares."""
    sizes = list(zip(*[map(len, side) for side in zip(*pairs)]))
    if len(set(sizes)) == len(pairs):
        return len(pairs)
    counts = Counter(sizes)
    shared = [p for p, size in zip(pairs, sizes) if counts[size] > 1]
    return len(pairs) - len(shared) + len(set(shared))


@dataclass(frozen=True)
class Counterexample:
    """The two lists differ; `index` is the first disagreeing prefix position.

    `keys` are the state keys of the two lists at that position, the
    pair whose observations disagree.
    """

    index: int
    reason: str
    keys: Optional[KeyPair] = None


@dataclass(frozen=True)
class BoundExceeded:
    """The search ran out of its pair budget before closing or refuting."""

    limit: int


SearchOutcome = Union[Certificate, Counterexample, BoundExceeded]


# characters of key text one list's walk may write, and one side of a
# certificate's pairs when they are written out
KEY_TEXT_BOUND = 10**8
_TOO_MUCH_TEXT = "state keys of one list hold more than {} characters"


class _Chain(dict):
    """A list's states as read so far, id -> step, from `root`, the list's
    id in the walk's table.  Ids are asked for in chain order, so a
    missing id is the next state's, whose step `colist.steps` yields,
    keying states with `_bounded_keys`."""

    def __init__(self, l: CoList, table: Interner):
        self.steps = steps(l, table, _bounded_keys())
        self.root = next(self.steps)

    def __missing__(self, state: int) -> Step:
        step = self[state] = next(self.steps)
        return step


def _bounded_keys():
    """`state_key` for one list's walk, which writes the key of each state
    outside the list's leading cons cells: it counts the characters it
    writes and raises `SizeExceeded` once they pass `KEY_TEXT_BOUND`."""
    held = 0

    def key(l: CoList) -> str:
        nonlocal held
        text = state_key(l)
        held += len(text)
        if held > KEY_TEXT_BOUND:
            raise SizeExceeded(_TOO_MUCH_TEXT.format(KEY_TEXT_BOUND))
        return text

    return key


def _closes(s1: Step, s2: Step, rel, kind: str) -> Optional[str]:
    """Why a pair whose states step to `s1`, `s2` fails `closure_check`
    against `rel`, a relation of id pairs, or None when it closes."""
    if s1 is None or s2 is None:
        return None if s1 is s2 else "nil/cons mismatch"
    if s1[0] != s2[0]:
        return "heads differ"
    if (s1[1], s2[1]) in rel or kind == "strong" and s1[1] == s2[1]:
        return None
    return _ESCAPES


def _verdict(reason: Optional[str], s1: Step, s2: Step, keys: KeyPair, table: Interner) -> Verdict:
    """The verdict on the pair `keys` that `_closes` gave `reason`: the
    escaping tail pair is the witness of an escape, else the pair."""
    if reason is None:
        return Verdict(True)
    return Verdict(False, reason, _written(table, [(s1[1], s2[1])])[0] if reason is _ESCAPES else keys)


def closure_check(pair: tuple[CoList, CoList], rel: Relation, kind: str) -> Verdict:
    """One-step closure condition for a related pair.

    Both sides must end together, or produce equal heads with tails
    related by `rel`; under the strong kind, tails with equal keys are
    accepted as well.
    """
    table = Interner()
    left, right = _Chain(pair[0], table), _Chain(pair[1], table)
    s1, s2 = left[left.root], right[right.root]
    tails = [] if s1 is None or s2 is None else [(s1[1], s2[1])]
    related = [t for t, text in zip(tails, _written(table, tails)) if text in rel]
    keys = _written(table, [(left.root, right.root)])[0]
    return _verdict(_closes(s1, s2, related, kind), s1, s2, keys, table)


def reachable_states(l: CoList, limit: int, table: Optional[Interner] = None) -> dict:
    """The step of each state on `l`'s chain, `l`'s own first, read until
    the list ends, repeats a state, or has `limit` + 1 states.  States
    are named by their ids in `table`; with no table, by their key text,
    written once the walk is done, and refused with `SizeExceeded` past
    `KEY_TEXT_BOUND` characters."""
    ids = Interner() if table is None else table
    stepper = steps(l, ids, _bounded_keys())
    walk, state = {}, next(stepper)
    for step in stepper:
        walk[state] = step
        if step is None or len(walk) > limit or step[1] in walk:
            break
        state = step[1]
    return walk if table is not None else _keyed(ids, walk)


def _keyed(table: Interner, walk: dict) -> dict:
    """A walk by ids, by key text instead, each key written once."""
    ids = list(walk)
    last = walk[ids[-1]]
    if last is not None and last[1] not in walk:
        ids.append(last[1])
    if sum(map(table.sizes.__getitem__, ids)) > KEY_TEXT_BOUND:
        raise SizeExceeded(_TOO_MUCH_TEXT.format(KEY_TEXT_BOUND))
    text = dict(zip(ids, table.texts(ids)))
    return {text[i]: None if step is None else (step[0], text[step[1]]) for i, step in walk.items()}


def _resolver(table: Interner, walks: list[dict]):
    """A function from a list of keys to the id of the state each names
    on one of `walks`, or None.  A walk's cons states are its leading
    cons cells, whose key lengths differ, so a cons key is matched by its
    length and one in-place `startswith` against the text of that run,
    written once; any other key is looked up in `table`.  A list of keys
    that are all cons keys of one run, or all others, is resolved by
    C-level passes."""
    entries, sizes, ids, runs = table.entries, table.sizes, table.ids, []
    w0, w1 = walks
    for walk in walks:
        cells, at = {}, 0
        for i in walk:
            entry = entries[i]
            if type(entry) is not tuple:
                break
            cells[sizes[i]] = i, at
            at += len(entry[0]) + 6
        if cells:
            runs.append((table.texts([next(iter(walk))])[0], cells))

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


def verify_certificate(cert: Certificate, l1: CoList, l2: CoList) -> Verdict:
    """Replay every certificate pair against one observation step.

    The root must be the queried pair and belong to the relation.  A pair
    the relation links to the root lies at most len(pairs) observations
    from the queried lists, so each list is walked (`reachable_states`)
    to at most len(pairs) + 1 states, stopping at its own first repeated
    state; the walks' first states are the queried pair, every key must
    name a state on a walk, and its recorded step is the one replayed.
    A pass certifies that the two lists are equal; of several faults,
    the one in the smallest pair is reported.

    The walks share one table: a search certificate's, whose ids its
    pairs are, or a fresh one, which names the given keys (`_resolver`).
    """
    ids = cert._ids
    table = Interner() if ids is None else cert._table
    limit = _distinct(cert._given) if ids is None else len(ids)
    walks = [reachable_states(l, limit, table) for l in (l1, l2)]
    root = tuple(next(iter(walk)) for walk in walks)
    if ids is None:
        resolve = _resolver(table, walks)
        sides = list(map(resolve, zip(*cert._given)))
        at = cert._given.index(cert.root)
        found = sides[0][at], sides[1][at]
    else:
        found = next(iter(ids))
    if found != root:
        raise RootMissing(f"certificate root {cert.root} does not match queried pair "
                          f"{_written(table, [root])[0]}")
    steps = walks[0]
    steps.update(walks[1])  # both walks' steps, once `_resolver` has read each walk
    if ids is None:
        if None in sides[0] or None in sides[1]:
            pair = min(p for p, a, b in zip(cert._given, *sides) if a is None or b is None)
            key = pair[resolve(pair)[0] is not None]
            raise UnresolvableKey(f"key {key} names no reachable state")
        rel = named = dict(zip(zip(*sides), cert._given))
    else:
        rel = ids
        unresolved = [p for p in ids if p[0] not in steps or p[1] not in steps]
        if unresolved:
            named = dict(zip(unresolved, _written(table, unresolved)))
            pair = min(unresolved, key=named.__getitem__)
            raise UnresolvableKey(f"key {named[pair][pair[0] in steps]} names no reachable state")

    kind = cert.kind
    failed = [p for p in rel if _closes(steps[p[0]], steps[p[1]], rel, kind) is not None]
    if not failed:
        return Verdict(True)
    if ids is not None:
        named = dict(zip(failed, _written(table, failed)))
    pair = min(failed, key=named.__getitem__)
    s1, s2 = steps[pair[0]], steps[pair[1]]
    return _verdict(_closes(s1, s2, rel, kind), s1, s2, named[pair], table)


def find_bisimulation(
    l1: CoList, l2: CoList, max_pairs: int = 10_000, kind: str = "weak"
) -> SearchOutcome:
    """Search for a bisimulation by synchronized unfolding.

    Observation is deterministic, so the search walks the single chain
    of tail pairs, adding each pair to a relation and checking it by
    replay's closure rule against that relation: a pair that closes
    ends the chain with a certificate that passes `verify_certificate`,
    a mismatch refutes equality with its prefix index, a tail pair that
    escapes is the next pair, and more than `max_pairs` pairs gives up.
    Pairs are ids in one table for both lists, so key text is written
    for the outcome alone: a counterexample's keys, a certificate's
    root, and its other pairs when they are read.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be at least 1")
    if kind not in ("weak", "strong"):
        raise ValueError(f"kind must be 'weak' or 'strong', got {kind!r}")
    table = Interner()
    left, right = _Chain(l1, table), _Chain(l2, table)
    keys = left.root, right.root
    seen: dict = {}  # the pairs in search order, the root first
    while len(seen) < max_pairs:
        seen[keys] = None
        s1, s2 = left[keys[0]], right[keys[1]]
        reason = _closes(s1, s2, seen, kind)
        if reason is None:
            return Certificate._found(kind, table, seen)
        if reason is not _ESCAPES:
            return Counterexample(len(seen) - 1, reason, _written(table, [keys])[0])
        keys = s1[1], s2[1]
    return BoundExceeded(max_pairs)


def eq_upto(k: int, l1: CoList, l2: CoList) -> Verdict:
    """Bounded take-lemma equality: k synchronized observations agree.

    Both lists are read in lockstep with `lasso`: each position reads the
    next head of `l1`, then of `l2`, and the first disagreement stops the
    walk.  A side whose cycle has closed is not read again, as its heads
    repeat from then on; once both have closed, the rest is decided from
    the two lassos alone (`_lassos_differ`).
    """
    p1: list[int] = []
    p2: list[int] = []
    side1, side2 = [lasso(l1, p1), [], p1], [lasso(l2, p2), [], p2]
    for i in range(k):
        h1 = _head(side1, i)
        h2 = _head(side2, i)
        if h1 != h2:
            ended = h1 is None or h2 is None
            return Verdict(False, "nil/cons mismatch" if ended else "heads differ", i)
        if h1 is None:
            break
        if side1[0] is None and side2[0] is None:
            index = _lassos_differ(side1[1], p1[0], side2[1], p2[0], i + 1, k)
            return Verdict(True) if index is None else Verdict(False, "heads differ", index)
    return Verdict(True)


def _head(side: list, i: int) -> Optional[str]:
    """Head i of one side of `eq_upto`, `[lasso, seen, period]`: the
    lasso's next head, kept in `seen`, while it reads; once it stops, the
    lasso is dropped and the head is None if the list ended, else the
    head its cycle of `period[0]` repeats."""
    heads, seen, period = side
    if heads is not None:
        head = next(heads, None)
        if head is not None:
            seen.append(head)
            return head
        side[0] = None
    if not period:
        return None
    n = len(seen)
    return seen[n - period[0] + (i - n) % period[0]]


def _lassos_differ(seen1: list[str], c1: int, seen2: list[str], c2: int,
                   start: int, k: int) -> Optional[int]:
    """The first position in [start, k) at which two lassos differ, or
    None.  A lasso is the heads `seen`, then their last c repeated, so
    its cycle starts at m = len(seen) - c.  From max(m1, m2) on both are
    purely periodic, and two words of periods c1 and c2 that agree on
    c1 + c2 - gcd(c1, c2) positions agree everywhere (Fine and Wilf
    1965), so no position past max(m1, m2) + c1 + c2 - gcd(c1, c2)
    needs a look."""
    m = max(len(seen1) - c1, len(seen2) - c2)
    n = min(k, m + c1 + c2 - gcd(c1, c2))
    if n <= start:
        return None
    a, b = unroll(seen1, c1, n), unroll(seen2, c2, n)
    if a[start:] == b[start:]:
        return None
    return next(i for i in range(start, n) if a[i] != b[i])


def bisimilarity_gfp(m1: StepFn, m2: StepFn) -> AbstractSet:
    """The largest bisimulation between two machines: the gfp of `llistd_fun`.

    `llistd_fun` is the one-step closure operator on seed pairs: it keeps
    a pair when both seeds stop, or when they emit the same symbol into a
    pair still in the subset.  Its gfp is computed by partition
    refinement of the two seed sets (`_refine`), not by iteration, and
    returned as a read-only set of key pairs (a `wf.PairView`) in which
    each key of `m1` maps to the frozenset of `m2`'s keys in its block:
    memory linear in the seeds, however many pairs are related.
    """
    keys: list[str] = []
    outputs: list[Optional[str]] = []
    succ: list[Optional[int]] = []
    for m in (m1, m2):
        state = {s: len(keys) + i for i, s in enumerate(m.seeds)}
        for s in m.seeds:
            act = m.step(s)
            keys.append(_machine_key(m, s))
            outputs.append(None if act is None else act[0])
            succ.append(None if act is None else state[act[1]])
    n1 = len(m1.seeds)
    groups = []
    for block in _refine(outputs, succ):
        left = [keys[i] for i in block if i < n1]
        right = frozenset(keys[j] for j in block if j >= n1)
        if left and right:
            groups.append((left, right))
    return PairView(groups)


def _refine(outputs: list, succ: list) -> list[set[int]]:
    """The coarsest partition of the states 0..n-1 that respects `outputs`
    and is stable under the partial successor function `succ` (None where
    a state stops), as a list of blocks.

    A stopped state outputs None forever, so it steps to itself; then the
    blocks are the classes of equal output words, and unequal words differ
    within n outputs (Moore 1956).  Each round doubles the compared prefix
    by interning (class, class `span` steps on), as one int since both are
    below `count`, and squaring the jump table; a round that splits no
    class has reached the stable partition.
    """
    jump = [i if j is None else j for i, j in enumerate(succ)]
    ids: dict = {}
    cls = [ids.setdefault(out, len(ids)) for out in outputs]
    count, span = len(ids), 1
    while span < len(succ):
        ids = {}
        cls = [ids.setdefault(c * count + cls[j], len(ids)) for c, j in zip(cls, jump)]
        if len(ids) == count:
            break
        count, span = len(ids), 2 * span
        jump = [jump[j] for j in jump]
    blocks: list[set[int]] = [set() for _ in range(count)]
    for i, c in enumerate(cls):
        blocks[c].add(i)
    return blocks
