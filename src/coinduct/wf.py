"""The well-founded side: finite-list encodings, symbolic-expression
spaces, transitive closure, and recursion along a well-founded relation.

Relations that follow from a structure are returned as views of it
(`PairView`), not as materialised pair sets: the transitive closure as
one reach bitset per strongly connected component, and, in `bisim`, the
gfp of `llistd_fun` as one set of right keys per block of bisimilar
seeds.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Callable, Hashable, Iterable, Iterator, Optional

from . import lattice  # noqa: F401  bench/tracing.py wraps wf.lattice
from .colist import Alphabet
from .errors import IllFoundedCall, Malformed, NotAList, SizeExceeded, UnknownAtom
from .trees import (
    FiniteTree,
    NIL_TREE,
    UserAtom,
    _case,
    case_tree,  # noqa: F401  bench/tracing.py wraps wf.case_tree
    cons_tree,
    enumerate_trees,
    leaf,
    list_case,
    scons,  # noqa: F401  bench/tracing.py wraps wf.scons
)


@dataclass(frozen=True)
class FinList:
    """A finite list of atoms together with its tree encoding."""

    tree: FiniteTree
    elems: tuple[str, ...]


def list_encode(xs: Iterable[str], alphabet: Alphabet) -> FinList:
    """Right-nested cell/leaf/nil encoding of a finite atom list."""
    elems = tuple(xs)
    for x in elems:
        if x not in alphabet:
            raise UnknownAtom(f"symbol {x!r} not in alphabet")
    tree = NIL_TREE
    for x in reversed(elems):
        tree = cons_tree(leaf(x), tree)
    return FinList(tree, elems)


def list_decode(t: FiniteTree) -> list[str]:
    """Inverse of list_encode on its image; NotAList elsewhere."""
    elems: list[str] = []
    cur = t
    while True:
        try:
            cell = list_case(cur)
        except Malformed as exc:
            raise NotAList(str(exc)) from None
        if cell is None:
            return elems
        head, cur = cell
        label = _case(head)
        if not isinstance(label, UserAtom):
            raise NotAList("list head is not a leaf atom")
        elems.append(label.symbol)


class PairView(AbstractSet):
    """A read-only set of pairs (x, y), kept as one row of ys per x.

    `groups` lists (xs, row) once for the xs that share a row; a row is a
    frozenset of ys, or, when `index` is given, an int bitset with bit j
    for the y at position j of `index`.  `in` is one row lookup and one
    membership test, `len` is arithmetic on the rows, and iteration
    yields (x, y) tuples row by row, decoding each bitset once.  It
    answers `in`, `len`, iteration and comparisons as the frozenset of
    the same pairs does, and `&`, `|`, `-` and `^` return frozensets;
    unlike a frozenset it cannot be hashed.
    """

    __slots__ = ("_groups", "_rows", "_index", "_cols", "_len")

    def __init__(self, groups: list, index: Optional[dict] = None):
        self._groups = groups
        self._rows = {x: row for xs, row in groups for x in xs}
        self._index = index
        self._cols = None if index is None else tuple(index)
        size = len if index is None else int.bit_count
        self._len = sum(len(xs) * size(row) for xs, row in groups)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __contains__(self, pair) -> bool:
        hash(pair)  # an unhashable pair raises TypeError, as with a frozenset
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        x, y = pair
        row = self._rows.get(x)
        if row is None:
            return False
        if self._index is None:
            return y in row
        j = self._index.get(y)
        return j is not None and row >> j & 1 == 1

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        for xs, row in self._groups:
            if self._cols is not None:
                row = list(compress(self._cols, format(row, "b")[::-1].encode().translate(_BITS)))
            for x in xs:
                yield from zip(repeat(x), row)


_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress selectors


def _bits(positions: list[int]) -> int:
    """The int whose bit j is set for each j in `positions`, in time linear
    in the largest one."""
    digits = bytearray(b"0") * (max(positions) + 1)
    for j in positions:
        digits[j] = 49  # "1"
    return int(digits[::-1], 2)


def transitive_closure(pairs: Iterable[tuple[Hashable, Hashable]]) -> AbstractSet:
    """Least transitive relation containing `pairs`, as a read-only set
    of (x, y) tuples (a `PairView`).

    The paper defines it as a least fixedpoint; here (x, y) is in it when
    y is reachable from x by one edge or more.  Tarjan's algorithm
    (1972), run from an explicit stack, finds the strongly connected
    components successors first, so one pass gives each component its
    reach as an int bitset over the mentioned elements: for each edge
    leaving the component, the target and the target's reach, and the
    members themselves when the component is cyclic (several members or
    a self-loop), as in Purdom (1970) and Nuutila (1995).  All members
    share that bitset.  O(V + E) for the components plus one bitset OR
    per edge leaving one, O(E * V / 64) word operations at worst; no pair
    is built until the result is iterated.  A cycle through x yields
    (x, x).
    """
    index: dict = {}  # element -> position, in order of first mention
    edges = [(index.setdefault(a, len(index)), index.setdefault(b, len(index))) for a, b in pairs]
    elems = tuple(index)
    succ: list[list[int]] = [[] for _ in elems]
    for i, j in edges:
        succ[i].append(j)
    num = [0] * len(elems)  # visiting order from 1; 0 while unvisited
    low = [0] * len(elems)  # least num reachable through the search and one more edge
    comp = [-1] * len(elems)  # component number; -1 until assigned
    reach: list[int] = []  # component number -> bitset of the positions it reaches
    stack: list[int] = []  # visited positions not yet in a component
    groups: list = []  # (members, reach) of each component that reaches some element
    visited = 0
    for root in range(len(elems)):
        if num[root]:
            continue
        work = [(root, iter(succ[root]))]  # the search path, with each step's unread edges
        while work:
            v, out = work[-1]
            if not num[v]:
                visited += 1
                num[v] = low[v] = visited
                stack.append(v)
            for w in out:
                if not num[w]:
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and num[w] < low[v]:  # w is on the stack
                    low[v] = num[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == num[v]:  # v roots a component: the stack down to v
                    c, members, w = len(reach), [], -1
                    while w != v:
                        w = stack.pop()
                        comp[w] = c
                        members.append(w)
                    row, cyclic = 0, len(members) > 1
                    for w in members:
                        for u in succ[w]:
                            if comp[u] == c:
                                cyclic = True
                            else:
                                row |= reach[comp[u]] | 1 << u
                    if cyclic:
                        row |= _bits(members)
                    reach.append(row)
                    if row:
                        groups.append(([elems[w] for w in members], row))
    return PairView(groups, index)


@dataclass(frozen=True)
class WFRelation:
    """An acyclic relation over an explicit finite carrier.

    Construction checks acyclicity by Kahn's topological sort, O(V + E),
    and keeps each element's rank in that sort, so every element ranks
    after all those below it.  `below` answers a direct pair at once;
    otherwise it finds everything below its second argument in one
    search and keeps that set.  `closure` is built when first read.
    """

    carrier: tuple
    pairs: frozenset

    def __init__(self, carrier: Iterable[Hashable], pairs: Iterable[tuple]):
        elems = tuple(carrier)
        rel = frozenset(pairs)
        index = {x: i for i, x in enumerate(elems)}  # the work below is on positions
        if len(index) != len(elems):
            raise ValueError("carrier must be duplicate-free")
        preds: list = [[] for _ in elems]
        succ: list = [[] for _ in elems]
        for a, b in rel:
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise ValueError(f"pair ({a!r}, {b!r}) leaves the carrier")
            preds[j].append(i)
            succ[i].append(j)
        # Kahn (1962): an element is sorted once all its predecessors are;
        # waiting[i] counts the predecessors of element i still unsorted.
        waiting = [len(p) for p in preds]
        ready = [i for i, n in enumerate(waiting) if not n]
        for i in ready:  # grows as elements are sorted
            for j in succ[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    ready.append(j)
        if len(ready) < len(elems):
            # Every unsorted element has an unsorted predecessor, so walking
            # back along them must repeat, and what repeats is on a cycle.
            i, seen = next(i for i, n in enumerate(waiting) if n), set()
            while i not in seen:
                seen.add(i)
                i = next(j for j in preds[i] if waiting[j])
            raise ValueError(f"relation is cyclic at {elems[i]!r}")
        rank = [0] * len(elems)
        for r, i in enumerate(ready):
            rank[i] = r
        object.__setattr__(self, "carrier", elems)
        object.__setattr__(self, "pairs", rel)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_below", {})  # i -> positions below elems[i]

    @cached_property
    def closure(self) -> AbstractSet:
        """The transitive closure of `pairs`, a read-only set of pairs
        built by `transitive_closure` when first read."""
        return transitive_closure(self.pairs)

    def below(self, y, x) -> bool:
        """True when y is strictly below x in the transitive closure."""
        if (y, x) in self.pairs:
            return True
        i, j = self._index.get(x), self._index.get(y)
        return i is not None and j is not None and j in self._reach(i)

    def _reach(self, i: int) -> set:
        """Positions strictly below position i, found by one search over
        predecessors and kept for the next question about i."""
        reached = self._below.get(i)
        if reached is None:
            reached, stack = set(), list(self._preds[i])
            while stack:
                k = stack.pop()
                if k not in reached:
                    reached.add(k)
                    stack.extend(self._preds[k])
            self._below[i] = reached  # threads that race here store equal sets
        return reached


@dataclass(frozen=True)
class RecSpec:
    """A well-founded recursion: a relation plus a body.

    The body receives the argument and a getter for recursive values;
    the getter only answers for elements strictly below the argument.
    `wfrec` runs the body at every element below its argument, so bodies
    must be pure, and total there: an error raised at an element no body
    asks for is kept and never seen.
    """

    relation: WFRelation
    body: Callable


def wfrec(spec: RecSpec, arg):
    """Evaluate the recursion at `arg`.

    Runs bottom-up: the body runs once at each element strictly below
    `arg`, in the relation's Kahn order, and then once at `arg`.  So every
    value a body asks for is computed before the body runs, and no input
    depth can exhaust Python's stack.  Finding and ordering the elements
    below `arg` takes one search over predecessors and one sort by rank.
    An exception raised by the body at y is kept and raised again by each
    `rec(y)`, so it reaches the bodies that ask for y as it would in a
    recursive evaluation; one raised at `arg` propagates.  The body's
    recursive access is guarded, raising IllFoundedCall on any request
    that is not strictly below the current argument.
    """
    rel = spec.relation
    i = rel._index.get(arg)
    if i is None:
        raise ValueError(f"argument {arg!r} not in carrier")

    results: dict = {}
    errors: dict = {}  # element -> the exception its body raised

    def getter(x):
        def rec(y):
            if not rel.below(y, x):
                raise IllFoundedCall(f"requested {y!r}, not strictly below {x!r}")
            if y in results:
                return results[y]
            raise errors[y]  # y is below arg, so its body has run

        return rec

    for k in sorted(rel._reach(i), key=rel._rank.__getitem__):
        x = rel.carrier[k]
        try:
            results[x] = spec.body(x, getter(x))
        except Exception as exc:
            errors[x] = exc
    return spec.body(arg, getter(arg))


def subexpression_space(roots: Iterable[FiniteTree]) -> tuple[list[FiniteTree], WFRelation]:
    """Close trees under branch decomposition.

    Returns the closure carrier together with the immediate-subexpression
    relation {(branch, tree)} on it; atoms decompose no further.  The
    carrier lists each tree once, in the order it is first reached: the
    roots in the order given, then branches breadth-first.
    """
    carrier = list(dict.fromkeys(roots))
    seen = set(carrier)
    pairs: set[tuple[FiniteTree, FiniteTree]] = set()
    for t in carrier:  # the carrier grows as new branches are reached
        if _case(t) is None:
            for branch in (t._left, t._right):
                pairs.add((branch, t))
                if branch not in seen:
                    seen.add(branch)
                    carrier.append(branch)
    return carrier, WFRelation(carrier, pairs)


SEXP_SPACE_BUDGET = 10_000  # largest carrier sexp_space enumerates, in trees


def sexp_space(
    d: int, alphabet: Alphabet, numeral_bound: int
) -> tuple[list[FiniteTree], WFRelation]:
    """All symbolic-expression trees with every node at depth below d,
    together with the immediate-subexpression relation on them.

    Atoms are the alphabet leaves plus numerals below `numeral_bound`;
    deeper trees are branch pairs of shallower ones: the trees of
    `enumerate_trees`, which are closed under branch decomposition, so
    `subexpression_space` adds none and keeps their order.  The one size
    rule is the carrier, predicted before enumerating and refused with
    SizeExceeded over SEXP_SPACE_BUDGET (10^4) trees: with k atoms the
    trees of depth below i number L(i), where L(0) = 0, L(1) = k and
    L(i+1) = L(i) + L(i)^2 - L(i-1)^2 (the new trees are the pairs not
    already formed one layer down).  The prediction stops at the first
    layer over the budget, so the refusal names that layer's count.
    """
    prev, count = 0, (len(alphabet) + max(numeral_bound, 0) if d > 0 else 0)
    for _ in range(d - 1):
        if count > SEXP_SPACE_BUDGET:
            break
        prev, count = count, count + count * count - prev * prev
    if count > SEXP_SPACE_BUDGET:
        raise SizeExceeded(
            f"sexp_space guard: predicted {count} trees, over the budget of {SEXP_SPACE_BUDGET}"
        )
    return subexpression_space(enumerate_trees(d, alphabet, numeral_bound))


def is_sexp(t: FiniteTree, alphabet: Alphabet, numeral_bound: int) -> bool:
    """Shape check for symbolic expressions, without enumerating a carrier.

    True when every atom is an alphabet leaf or an in-bound numeral and
    every non-atom decomposes into two symbolic expressions.
    """
    if t.is_empty:
        return False
    stack = [t]
    while stack:
        cur = stack.pop()
        try:
            lbl = _case(cur)
        except Malformed:
            return False
        if lbl is None:
            stack.append(cur._left)
            stack.append(cur._right)
        elif isinstance(lbl, UserAtom):
            if lbl.symbol not in alphabet:
                return False
        elif not 0 <= lbl.value < numeral_bound:
            return False
    return True
