"""Least and greatest fixedpoints of monotone operators on finite subset lattices.

The lattice is always the powerset of a finite carrier, with subsets held
as bitmasks.  Fixedpoints are computed by Kleene iteration; the defining
intersection/union characterizations are kept as the verification oracle
(`verify_extremal`), not as the algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .errors import (
    CarrierTooLarge,
    LatticeFileError,
    Malformed,
    NotMonotone,
    ParseError,
    Verdict,
)

EXHAUSTIVE_BOUND = 12


@dataclass(frozen=True)
class Carrier:
    """A finite, ordered, duplicate-free collection of opaque elements."""

    elements: tuple[Hashable, ...]

    def __init__(self, elements: Iterable[Hashable]):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise ValueError("carrier elements must be duplicate-free")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_index", {x: i for i, x in enumerate(elems)})

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def index(self, x) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise KeyError(f"{x!r} not in carrier") from None


@dataclass(frozen=True)
class Subset:
    """A subset of a carrier, stored as a bitmask."""

    carrier: Carrier
    bits: int

    @classmethod
    def empty(cls, carrier: Carrier) -> "Subset":
        return cls(carrier, 0)

    @classmethod
    def full(cls, carrier: Carrier) -> "Subset":
        return cls(carrier, (1 << len(carrier)) - 1)

    @classmethod
    def of(cls, carrier: Carrier, members: Iterable[Hashable]) -> "Subset":
        bits = 0
        for x in members:
            bits |= 1 << carrier.index(x)
        return cls(carrier, bits)

    def members(self) -> tuple:
        return tuple(
            x for i, x in enumerate(self.carrier.elements) if self.bits >> i & 1
        )

    def __contains__(self, x) -> bool:
        return bool(self.bits >> self.carrier.index(x) & 1)

    def __iter__(self) -> Iterator:
        return iter(self.members())

    def __len__(self) -> int:
        return bin(self.bits).count("1")

    def __le__(self, other: "Subset") -> bool:
        return self.bits & ~other.bits == 0

    def __or__(self, other: "Subset") -> "Subset":
        return Subset(self.carrier, self.bits | other.bits)

    def __and__(self, other: "Subset") -> "Subset":
        return Subset(self.carrier, self.bits & other.bits)

    def complement(self) -> "Subset":
        return Subset(self.carrier, ~self.bits & (1 << len(self.carrier)) - 1)

    def __repr__(self) -> str:
        return "{" + ",".join(str(x) for x in self.members()) + "}"


class SubsetOperator:
    """A total map on the powerset of a carrier, from a callable or a table."""

    def __init__(self, fn: Callable[[Subset], Subset], name: str = ""):
        self.fn = fn
        self.name = name

    def __call__(self, s: Subset) -> Subset:
        return self.fn(s)

    @classmethod
    def from_table(cls, carrier: Carrier, table: dict[int, int], name: str = "table"):
        """Exhaustive bits-to-bits table; must cover the whole powerset."""
        for bits in range(1 << len(carrier)):
            if bits not in table:
                members = Subset(carrier, bits).members()
                raise LatticeFileError(
                    f"operator table missing entry for subset {{{','.join(map(str, members))}}}"
                )
        return cls(lambda s: Subset(carrier, table[s.bits]), name)

    def dual(self) -> "SubsetOperator":
        """The de Morgan dual: complement, apply, complement."""
        return SubsetOperator(
            lambda s: self.fn(s.complement()).complement(),
            name=f"dual({self.name})" if self.name else "dual",
        )


def _value_table(op: SubsetOperator, carrier: Carrier) -> list[int]:
    return [op(Subset(carrier, bits)).bits for bits in range(1 << len(carrier))]


def is_monotone(
    op: SubsetOperator,
    carrier: Carrier,
    samples: Optional[int] = None,
    rng: Optional[random.Random] = None,
) -> Verdict:
    """Check A <= B implies op(A) <= op(B).

    With `samples=None` the check is exhaustive and the carrier must not
    exceed the exhaustive bound: it tries every covering pair (B less one
    element, B), which suffices since every A <= B is joined to B by a
    chain of covers and <= is transitive.  Otherwise `samples` random
    comparable pairs are tried.  A failing verdict carries the witness
    pair (A, B).
    """
    n = len(carrier)
    if samples is None:
        if n > EXHAUSTIVE_BOUND:
            raise CarrierTooLarge(
                f"exhaustive monotonicity check limited to {EXHAUSTIVE_BOUND} elements"
            )
        values = _value_table(op, carrier)
        for b in range(1 << n):
            for i in range(n):
                a = b ^ 1 << i
                if b >> i & 1 and values[a] & ~values[b]:
                    return Verdict(
                        False,
                        "operator not monotone",
                        (Subset(carrier, a), Subset(carrier, b)),
                    )
        return Verdict(True)
    rng = rng or random.Random()
    full = (1 << n) - 1
    for _ in range(samples):
        b = rng.randint(0, full)
        a = b & rng.randint(0, full)
        sa, sb = Subset(carrier, a), Subset(carrier, b)
        if not op(sa) <= op(sb):
            return Verdict(False, "operator not monotone", (sa, sb))
    return Verdict(True)


def _iterate(op: SubsetOperator, start: Subset, ascending: bool) -> Subset:
    cur = start
    for _ in range(len(start.carrier) + 2):
        nxt = op(cur)
        if nxt.carrier is not cur.carrier and nxt.carrier != cur.carrier:
            raise NotMonotone("operator changed carrier")
        if ascending and not cur <= nxt:
            raise NotMonotone(f"iteration shrank at {cur!r}")
        if not ascending and not nxt <= cur:
            raise NotMonotone(f"iteration grew at {cur!r}")
        if nxt.bits == cur.bits:
            return cur
        cur = nxt
    raise NotMonotone("iteration failed to stabilize within the chain bound")


def lfp(op: SubsetOperator, carrier: Carrier) -> Subset:
    """Least fixedpoint by Kleene iteration upward from the empty set."""
    return _iterate(op, Subset.empty(carrier), ascending=True)


def gfp(op: SubsetOperator, carrier: Carrier) -> Subset:
    """Greatest fixedpoint by Kleene iteration downward from the full carrier."""
    return _iterate(op, Subset.full(carrier), ascending=False)


def verify_extremal(
    op: SubsetOperator, carrier: Carrier, candidate: Subset, kind: str
) -> Verdict:
    """Confirm by scanning the whole powerset that `candidate` is extremal.

    kind "least": candidate is a fixedpoint lying below every
    pre-fixedpoint (op(A) <= A).  kind "greatest": a fixedpoint lying
    above every post-fixedpoint (A <= op(A)).
    """
    if kind not in ("least", "greatest"):
        raise ValueError("kind must be 'least' or 'greatest'")
    n = len(carrier)
    if n > EXHAUSTIVE_BOUND:
        raise CarrierTooLarge(
            f"exhaustive extremality check limited to {EXHAUSTIVE_BOUND} elements"
        )
    if op(candidate).bits != candidate.bits:
        return Verdict(False, "candidate is not a fixedpoint", candidate)
    for bits in range(1 << n):
        a = Subset(carrier, bits)
        fa = op(a)
        if kind == "least" and fa <= a and not candidate <= a:
            return Verdict(False, "pre-fixedpoint below candidate", a)
        if kind == "greatest" and a <= fa and not a <= candidate:
            return Verdict(False, "post-fixedpoint above candidate", a)
    return Verdict(True)


def _union_operator(carrier: Carrier, base: int, succ: list[int], name: str) -> SubsetOperator:
    """Z |-> base | union of succ[i] for the i-th carrier element in Z, with
    `base` and each succ[i] given as carrier bitmasks."""

    def apply(z: Subset) -> Subset:
        bits = base
        for i, m in enumerate(succ):
            if z.bits >> i & 1:
                bits |= m
        return Subset(carrier, bits)

    return SubsetOperator(apply, name)


def _fin_operator(carrier: Carrier, base: list) -> SubsetOperator:
    """The finite-subsets operator Z |-> {{}} | {y + {x} : y in Z, x in base}.

    Each member symbol gets a bit and each carrier set key the mask of its
    members, so y + {x} is found by its mask.  A base symbol with a comma
    is no member: it reaches only the keys its text spells, which are
    found by writing those keys out.  (An empty symbol, which no member
    is, spells only {} from {}, and {} is in the base anyway.)
    """
    bit: dict = {}
    sets, masks = [], []
    for key in carrier.elements:
        if not (key.startswith("{") and key.endswith("}")):
            raise LatticeFileError(f"carrier: element {key!r} is not a set key")
        members = key[1:-1].split(",") if key != "{}" else []
        as_set = frozenset(members)
        if "" in as_set or sorted(as_set) != members:
            canonical = "{" + ",".join(sorted(as_set - {""})) + "}"
            raise LatticeFileError(f"carrier: element {key!r} is not written as {canonical!r}")
        sets.append(as_set)
        mask = 0
        for x in members:
            mask |= bit.setdefault(x, 1 << len(bit))
        masks.append(mask)
    by_mask = {mask: 1 << i for i, mask in enumerate(masks)}
    by_key = {key: 1 << i for i, key in enumerate(carrier.elements)}
    symbols = [bit.setdefault(x, 1 << len(bit)) for x in base if "," not in x]
    written = [x for x in base if "," in x]
    succ = []
    for as_set, mask in zip(sets, masks):
        bits = 0
        for b in symbols:
            bits |= by_mask.get(mask | b, 0)
        for x in written:
            bits |= by_key.get("{" + ",".join(sorted(as_set | {x})) + "}", 0)
        succ.append(bits)
    return _union_operator(carrier, by_mask.get(0, 0), succ, "fin")


def _list_fun_operator(carrier: Carrier, atoms: list) -> SubsetOperator:
    """The list operator Z |-> {nil} | {cons(leaf(a), t) : t in Z, a in atoms}.

    Each carrier tree is taken apart once by `list_case`: nil goes into
    the base, and cons(h, t), with h an atom leaf and t in the carrier,
    into the successors of t.  No tree is built.
    """
    from .trees import list_case, leaf, parse_tree_term

    trees = []
    for x in carrier.elements:
        try:
            trees.append(parse_tree_term(x))
        except ParseError as exc:
            raise LatticeFileError(
                f"carrier: element {x!r} is not a tree term ({exc})"
            ) from None
    by_tree: dict = {}  # tree -> its carrier position
    for i, (x, t) in enumerate(zip(carrier.elements, trees)):
        if t in by_tree:
            raise LatticeFileError(
                f"carrier: element {x!r} is the same tree as {carrier.elements[by_tree[t]]!r}"
            )
        by_tree[t] = i
    heads = {leaf(s) for s in atoms}
    base, succ = 0, [0] * len(trees)
    for i, t in enumerate(trees):
        try:
            cell = list_case(t)
        except Malformed:
            continue
        if cell is None:
            base |= 1 << i
        elif cell[0] in heads and cell[1] in by_tree:
            succ[by_tree[cell[1]]] |= 1 << i
    return _union_operator(carrier, base, succ, "list_fun")


_UNION_DEMOS = {"fin": ("base", _fin_operator), "list_fun": ("atoms", _list_fun_operator)}


def load_demo(doc: dict) -> tuple[Carrier, SubsetOperator, str]:
    """Interpret a lattice demo document: carrier, operator and mode.

    The operator is either the name of a builtin ("identity", or "fin" /
    "list_fun" given with their parameters) or an exhaustive table keyed
    by sorted member lists.
    """
    if not isinstance(doc, dict):
        raise LatticeFileError("demo: top level must be an object")
    elems = doc.get("carrier")
    if not isinstance(elems, list) or not all(isinstance(x, str) for x in elems):
        raise LatticeFileError("carrier: must be an array of strings")
    if len(set(elems)) != len(elems):
        raise LatticeFileError("carrier: duplicate element")
    carrier = Carrier(elems)

    mode = doc.get("mode")
    if mode not in ("lfp", "gfp"):
        raise LatticeFileError("mode: must be \"lfp\" or \"gfp\"")

    spec = doc.get("operator")
    if spec == "identity" or spec == {"name": "identity"}:
        op = SubsetOperator(lambda s: s, "identity")
    elif isinstance(spec, dict) and spec.get("name") in ("fin", "list_fun"):
        param, build = _UNION_DEMOS[spec["name"]]
        value = spec.get(param)
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise LatticeFileError(f"operator.{param}: must be an array of strings")
        op = build(carrier, value)
    elif isinstance(spec, dict) and spec.get("name") == "table":
        raw = spec.get("map")
        if not isinstance(raw, dict):
            raise LatticeFileError("operator.map: must be an object")
        table: dict[int, int] = {}
        for key, members in raw.items():
            names = [s for s in key.split(",") if s]
            if not isinstance(members, list) or not all(isinstance(x, str) for x in members):
                raise LatticeFileError(f"operator.map.{key!r}: must be an array of strings")
            try:
                table[Subset.of(carrier, names).bits] = Subset.of(carrier, members).bits
            except KeyError as exc:
                raise LatticeFileError(f"operator.map.{key!r}: {exc.args[0]}") from None
        op = SubsetOperator.from_table(carrier, table)
    else:
        raise LatticeFileError("operator: unknown operator specification")
    return carrier, op, mode
