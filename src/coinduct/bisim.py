"""Lazy-list equality by coinduction: certificates, search, and the gfp view.

A certificate is a finite relation on canonical state keys submitted as a
bisimulation witness.  Verification replays one observation step per
pair; the weak rule demands the tails be related again, the strong rule
additionally accepts tails with equal keys.  `find_bisimulation` builds
such witnesses for eventually-periodic lists.  Each list is one chain of
states, which search and replay record as they read it (`_Chain`),
stepping each state once and holding its key, up to `KEY_TEXT_BOUND`
characters.  A bare cons run is stepped from a cursor into its tuple of
heads, each tail keyed by a slice of the state's key, its rest's too,
so the run's states are never built, observed or keyed one by one; any
other state is observed and its tail keyed.  Search, replay and `closure_check`
check each pair by one closure rule (`_closes`), which names the fault
or none, and build a `Verdict` or `Counterexample` only for the outcome
they return.  `bisimilarity_gfp` computes the largest bisimulation
between two machines, the greatest fixedpoint of the one-step operator
`llistd_fun` on the seed-pair lattice, by partition refinement of the
two seed sets with prefix doubling, and returns it as a read-only view
of the blocks (`wf.PairView`), never as the n1 * n2 seed pairs.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from math import gcd
from typing import Optional, Union

from . import lattice  # noqa: F401  bench/tracing.py wraps bisim.lattice
from .colist import (
    CoList,
    ConsList,
    StepFn,
    _cons_tail_key,
    _machine_key,
    lasso,
    observe,
    state_key,
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
Step = Optional[tuple[str, str]]  # None at the end of the list, else (head, tail key)

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


@dataclass(frozen=True)
class Certificate:
    """A bisimulation witness: a relation of state-key pairs with a root."""

    kind: str  # "weak" | "strong"
    pairs: Relation
    root: KeyPair

    def __post_init__(self):
        """Check the shape (root, pairs, kind, root among the pairs) and
        store `pairs` as a frozenset of key-string tuples."""
        if not _is_key_pair(self.root):
            raise CertificateError("root: must be a pair of keys")
        root = tuple(self.root)
        if not isinstance(self.pairs, (list, tuple, AbstractSet)):
            raise CertificateError("pairs: must be an array of key pairs")
        if not all(map(_is_key_pair, self.pairs)):
            i = next(i for i, p in enumerate(self.pairs) if not _is_key_pair(p))
            raise CertificateError(f"pairs[{i}]: must be a pair of keys")
        pairs = frozenset(map(tuple, self.pairs))
        if self.kind not in ("weak", "strong"):
            raise CertificateError(f"kind: must be \"weak\" or \"strong\", got {self.kind!r}")
        if root not in pairs:
            raise CertificateError("root: must be among the certificate pairs")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "pairs", pairs)

    def to_dict(self) -> dict:
        ordered = sorted(self.pairs)
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


KEY_TEXT_BOUND = 10**8  # characters of state keys one `_Chain` may hold


class _Chain(dict):
    """A list's states as read so far, state key -> step, from `root`, the
    list's key.  Keys are asked for in chain order, so a missing key is
    the next state's, which `__missing__` steps, once.  A bare cons run
    is stepped from a cursor, its tuple of heads and an offset into it:
    the head is read from the tuple and the tail's key is a slice of the
    missing key (`_cons_tail_key`), so no state is built, observed or
    keyed inside the run; its last tail, the run's `rest`, is keyed by
    that slice too.  Any other state is observed and its tail keyed.
    The chain counts the characters of the keys it holds, the root's and
    each tail's, and raises `SizeExceeded` once they pass
    `KEY_TEXT_BOUND`."""

    def __init__(self, l: CoList):
        super().__init__()
        self._held = 0
        self._enter(l)
        self.root = self._hold(state_key(l))

    def _enter(self, l: CoList) -> None:
        """Make `l` the next state to step: a cursor on it if it is a cons
        run, with `_next` the run's rest, else `l` itself as `_next`."""
        if isinstance(l, ConsList):
            self._heads, self._at, self._next = l.heads, l.at, l.rest
        else:
            self._heads, self._next = None, l

    def __missing__(self, key: str) -> Step:
        heads = self._heads
        if heads is None:
            obs = observe(self._next)
            if obs is not None:
                self._next = obs[1]
                obs = obs[0], self._hold(state_key(obs[1]))
        else:
            head = heads[self._at]
            self._at += 1
            if self._at == len(heads):
                self._enter(self._next)
            obs = head, self._hold(_cons_tail_key(key, head))
        self[key] = obs
        return obs

    def _hold(self, key: str) -> str:
        self._held += len(key)
        if self._held > KEY_TEXT_BOUND:
            raise SizeExceeded(f"state keys of one list hold more than {KEY_TEXT_BOUND} characters")
        return key


def _closes(s1: Step, s2: Step, rel, kind: str) -> Optional[str]:
    """Why a pair whose states step to `s1`, `s2` fails `closure_check`
    against `rel`, or None when it closes."""
    if s1 is None or s2 is None:
        return None if s1 is s2 else "nil/cons mismatch"
    if s1[0] != s2[0]:
        return "heads differ"
    if (s1[1], s2[1]) in rel or kind == "strong" and s1[1] == s2[1]:
        return None
    return _ESCAPES


def _verdict(reason: Optional[str], s1: Step, s2: Step, keys: KeyPair) -> Verdict:
    """The verdict on the pair `keys` that `_closes` gave `reason`: the
    escaping tail pair is the witness of an escape, else the pair."""
    if reason is None:
        return Verdict(True)
    return Verdict(False, reason, (s1[1], s2[1]) if reason is _ESCAPES else keys)


def closure_check(pair: tuple[CoList, CoList], rel: Relation, kind: str) -> Verdict:
    """One-step closure condition for a related pair.

    Both sides must end together, or produce equal heads with tails
    related by `rel`; under the strong kind, tails with equal keys are
    accepted as well.
    """
    left, right = _Chain(pair[0]), _Chain(pair[1])
    s1, s2 = left[left.root], right[right.root]
    return _verdict(_closes(s1, s2, rel, kind), s1, s2, (left.root, right.root))


def reachable_states(l: CoList, limit: int) -> dict[str, Step]:
    """The step of each state on `l`'s chain by key, `l`'s own key first,
    read until the list ends, repeats a key, or has `limit` + 1 states."""
    chain = _Chain(l)
    key = chain.root
    while key is not None and key not in chain and len(chain) <= limit:
        step = chain[key]
        key = None if step is None else step[1]
    return dict(chain)


def verify_certificate(cert: Certificate, l1: CoList, l2: CoList) -> Verdict:
    """Replay every certificate pair against one observation step.

    The root must be the queried pair and belong to the relation.  A pair
    the relation links to the root lies at most len(pairs) observations
    from the queried lists, so each list is walked (`reachable_states`)
    to at most len(pairs) + 1 states, stopping at its own first repeated
    key; the walks' first keys are the queried pair, every key must name
    a state on a walk, and its recorded step is the one replayed.  A pass
    certifies that the two lists are equal; of several faults, the one in
    the smallest pair is reported.
    """
    walks = [reachable_states(l, len(cert.pairs)) for l in (l1, l2)]
    root = tuple(next(iter(walk)) for walk in walks)
    if cert.root != root:
        raise RootMissing(
            f"certificate root {cert.root} does not match queried pair {root}"
        )
    steps = walks[0] | walks[1]
    unresolved = [p for p in cert.pairs if p[0] not in steps or p[1] not in steps]
    if unresolved:
        key = next(k for k in min(unresolved) if k not in steps)
        raise UnresolvableKey(f"key {key} names no reachable state")

    rel, kind = cert.pairs, cert.kind
    failed = [p for p in rel if _closes(steps[p[0]], steps[p[1]], rel, kind) is not None]
    if not failed:
        return Verdict(True)
    pair = min(failed)
    s1, s2 = steps[pair[0]], steps[pair[1]]
    return _verdict(_closes(s1, s2, rel, kind), s1, s2, pair)


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
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be at least 1")
    if kind not in ("weak", "strong"):
        raise ValueError(f"kind must be 'weak' or 'strong', got {kind!r}")
    left, right = _Chain(l1), _Chain(l2)
    root = keys = left.root, right.root
    seen: set[KeyPair] = set()
    while len(seen) < max_pairs:
        seen.add(keys)
        s1, s2 = left[keys[0]], right[keys[1]]
        reason = _closes(s1, s2, seen, kind)
        if reason is None:
            return Certificate(kind, frozenset(seen), root)
        if reason is not _ESCAPES:
            return Counterexample(len(seen) - 1, reason, keys)
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
