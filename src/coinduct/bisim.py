"""Lazy-list equality by coinduction: certificates, search, and the gfp view.

A certificate is a finite relation on canonical state keys submitted as a
bisimulation witness.  Verification replays one observation step per
pair; the weak rule demands the tails be related again, the strong rule
additionally accepts tails with equal keys.  `find_bisimulation` builds
such witnesses automatically for eventually-periodic lists, and
`bisimilarity_gfp` computes the largest bisimulation between two machines.
That relation is the greatest fixedpoint of the one-step operator
`llistd_fun` on the seed-pair lattice; it is computed by partition
refinement of the two seed sets with prefix doubling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Optional, Union

from . import lattice  # noqa: F401  bench/tracing.py wraps bisim.lattice
from .colist import CoList, StepFn, _machine_key, observe, state_key, unfold
from .colist import reachable_states  # noqa: F401  bench/tracing.py wraps bisim.reachable_states
from .errors import (
    CertificateError,
    RootMissing,
    UnresolvableKey,
    Verdict,
    read_json,
)
from .trees import in0, in1, scons

KeyPair = tuple[str, str]

Relation = frozenset  # of KeyPair

TreePairRelation = frozenset  # of (FiniteTree, FiniteTree)


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
        root = _key_pair(self.root, "root")
        if not isinstance(self.pairs, (list, tuple, set, frozenset)):
            raise CertificateError("pairs: must be an array of key pairs")
        pairs = frozenset(_key_pair(p, f"pairs[{i}]") for i, p in enumerate(self.pairs))
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


def _key_pair(p, where: str) -> KeyPair:
    if not isinstance(p, (list, tuple)) or len(p) != 2 or not all(isinstance(k, str) for k in p):
        raise CertificateError(f"{where}: must be a pair of keys")
    return tuple(p)


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


def _step(l1: CoList, l2: CoList) -> Union[None, str, tuple[CoList, CoList]]:
    """Observe both lists once: None when both end, the reason when the
    observations disagree, else the pair of tails."""
    o1, o2 = observe(l1), observe(l2)
    if o1 is None and o2 is None:
        return None
    if o1 is None or o2 is None:
        return "nil/cons mismatch"
    if o1[0] != o2[0]:
        return "heads differ"
    return o1[1], o2[1]


def closure_check(pair: tuple[CoList, CoList], rel: Relation, kind: str) -> Verdict:
    """One-step closure condition for a related pair.

    Both sides must end together, or produce equal heads with tails
    related by `rel`; under the strong kind, tails with equal keys are
    accepted as well.
    """
    tails = _step(*pair)
    if tails is None:
        return Verdict(True)
    if isinstance(tails, str):
        return Verdict(False, tails, (state_key(pair[0]), state_key(pair[1])))
    k1, k2 = state_key(tails[0]), state_key(tails[1])
    if (k1, k2) in rel:
        return Verdict(True)
    if kind == "strong" and k1 == k2:
        return Verdict(True)
    return Verdict(False, "tail pair escapes the relation", (k1, k2))


def verify_certificate(cert: Certificate, l1: CoList, l2: CoList) -> Verdict:
    """Replay every certificate pair against one observation step.

    The root must be the queried pair and belong to the relation.  A pair
    the relation links to the root lies at most len(pairs) observations
    from the queried lists, so each list is walked for at most
    len(pairs) + 1 states, stopping at its own first repeated key; every
    key must name a state on one of the two walks.  A pass certifies
    that the two lists are equal.
    """
    root = (state_key(l1), state_key(l2))
    if cert.root != root:
        raise RootMissing(
            f"certificate root {cert.root} does not match queried pair {root}"
        )
    index: dict[str, CoList] = {}
    for l, start in zip((l1, l2), root):
        walk = {start: l}
        for _, state in islice(unfold(l), len(cert.pairs)):
            key = state_key(state)
            if key in walk:
                break
            walk[key] = state
        index.update(walk)
    resolved = []
    for ka, kb in sorted(cert.pairs):
        if ka not in index:
            raise UnresolvableKey(f"key {ka} names no reachable state")
        if kb not in index:
            raise UnresolvableKey(f"key {kb} names no reachable state")
        resolved.append((index[ka], index[kb]))
    for pair in resolved:
        verdict = closure_check(pair, cert.pairs, cert.kind)
        if not verdict:
            return verdict
    return Verdict(True)


def find_bisimulation(
    l1: CoList, l2: CoList, max_pairs: int = 10_000, kind: str = "weak"
) -> SearchOutcome:
    """Search for a bisimulation by synchronized unfolding.

    Observation is deterministic, so the search walks the single chain
    of tail pairs, memoizing on key pairs; a revisited pair closes the
    chain, a mismatch refutes equality with its prefix index, and more
    than `max_pairs` distinct pairs gives up.  Under the strong kind a
    pair of identical keys closes immediately.  A returned certificate
    always passes `verify_certificate`.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be at least 1")
    root = (state_key(l1), state_key(l2))
    seen: set[KeyPair] = set()
    cur = (l1, l2)
    idx = 0
    while True:
        keys = (state_key(cur[0]), state_key(cur[1]))
        if keys in seen:
            break
        if kind == "strong" and keys[0] == keys[1] and idx > 0:
            break
        if len(seen) >= max_pairs:
            return BoundExceeded(max_pairs)
        seen.add(keys)
        tails = _step(*cur)
        if tails is None:
            break
        if isinstance(tails, str):
            return Counterexample(idx, tails, keys)
        cur = tails
        idx += 1
    return Certificate(kind, frozenset(seen), root)


def eq_upto(k: int, l1: CoList, l2: CoList) -> Verdict:
    """Bounded take-lemma equality: k synchronized observations agree."""
    pair = (l1, l2)
    for i in range(k):
        pair = _step(*pair)
        if pair is None:
            return Verdict(True)
        if isinstance(pair, str):
            return Verdict(False, pair, i)
    return Verdict(True)


def bisimilarity_gfp(m1: StepFn, m2: StepFn) -> Relation:
    """The largest bisimulation between two machines: the gfp of `llistd_fun`.

    `llistd_fun` is the one-step closure operator on seed pairs: it keeps
    a pair when both seeds stop, or when they emit the same symbol into a
    pair still in the subset.  Its gfp is computed by partition
    refinement of the two seed sets (`_refine`), not by iteration.
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
    related: set[KeyPair] = set()
    for block in _refine(outputs, succ):
        left = [keys[i] for i in block if i < n1]
        related.update(product(left, [keys[j] for j in block if j >= n1]))
    return frozenset(related)


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
