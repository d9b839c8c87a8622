"""The well-founded side: finite-list encodings, symbolic-expression
spaces, transitive closure, and recursion along a well-founded relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from . import lattice  # noqa: F401  bench/tracing.py wraps wf.lattice
from .colist import Alphabet
from .errors import IllFoundedCall, Malformed, NotAList, SizeExceeded, UnknownAtom
from .trees import (
    AtomShape,
    FiniteTree,
    NIL_TREE,
    SconsShape,
    UserAtom,
    case_tree,
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
        head, tail = cell
        shape = case_tree(head) if head else None
        if not isinstance(shape, AtomShape) or not isinstance(shape.label, UserAtom):
            raise NotAList("list head is not a leaf atom")
        elems.append(shape.label.symbol)
        cur = tail


def transitive_closure(pairs: Iterable[tuple[Hashable, Hashable]]) -> frozenset:
    """Least transitive relation containing `pairs`.

    The paper defines it as a least fixedpoint; here (x, y) is in it when
    y is reachable from x by one edge or more, found by one graph search
    from each source: O(V * E) time, and no carrier of all pairs.  A
    cycle through x yields (x, x).
    """
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    closure = set()
    for src, direct in succ.items():
        seen = set()
        stack = list(direct)
        while stack:
            y = stack.pop()
            if y not in seen:
                seen.add(y)
                stack.extend(succ.get(y, ()))
        closure.update((src, y) for y in seen)
    return frozenset(closure)


@dataclass(frozen=True)
class WFRelation:
    """An acyclic relation over an explicit finite carrier."""

    carrier: tuple
    pairs: frozenset

    def __init__(self, carrier: Iterable[Hashable], pairs: Iterable[tuple]):
        elems = tuple(carrier)
        rel = frozenset(pairs)
        index = set(elems)
        if len(index) != len(elems):
            raise ValueError("carrier must be duplicate-free")
        for a, b in rel:
            if a not in index or b not in index:
                raise ValueError(f"pair ({a!r}, {b!r}) leaves the carrier")
        closure = transitive_closure(rel)
        for x in index:
            if (x, x) in closure:
                raise ValueError(f"relation is cyclic at {x!r}")
        object.__setattr__(self, "carrier", elems)
        object.__setattr__(self, "pairs", rel)
        object.__setattr__(self, "closure", closure)

    def below(self, y, x) -> bool:
        """True when y is strictly below x in the transitive closure."""
        return (y, x) in self.closure


@dataclass(frozen=True)
class RecSpec:
    """A well-founded recursion: a relation plus a body.

    The body receives the argument and a getter for recursive values;
    the getter only answers for elements strictly below the argument.
    """

    relation: WFRelation
    body: Callable


def wfrec(spec: RecSpec, arg):
    """Evaluate the recursion at `arg`.

    Values are memoized and computed on demand, so smaller elements are
    always finished before any element depending on them; the body's
    recursive access is guarded, raising IllFoundedCall on any request
    that is not strictly below the current argument.  Only elements the
    body actually demands are evaluated.
    """
    rel = spec.relation
    if arg not in set(rel.carrier):
        raise ValueError(f"argument {arg!r} not in carrier")

    results: dict = {}

    def eval_at(x):
        if x in results:
            return results[x]

        def rec(y, _x=x):
            if not rel.below(y, _x):
                raise IllFoundedCall(f"requested {y!r}, not strictly below {_x!r}")
            return eval_at(y)

        value = spec.body(x, rec)
        results[x] = value
        return value

    return eval_at(arg)


def subexpression_space(roots: Iterable[FiniteTree]) -> tuple[list[FiniteTree], WFRelation]:
    """Close trees under branch decomposition.

    Returns the closure carrier together with the immediate-subexpression
    relation {(branch, tree)} on it; atoms decompose no further.
    """
    carrier: list[FiniteTree] = []
    seen: set[FiniteTree] = set()
    pairs: set[tuple[FiniteTree, FiniteTree]] = set()
    stack = list(roots)
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        carrier.append(t)
        shape = case_tree(t)
        if isinstance(shape, SconsShape):
            pairs.add((shape.left, t))
            pairs.add((shape.right, t))
            stack.append(shape.left)
            stack.append(shape.right)
    carrier.sort(key=FiniteTree.sort_key)
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
    `subexpression_space` adds none.  Guarded to desk scale: d <= 4,
    alphabet size <= 3, numeral_bound <= 2, and a carrier of at most
    SEXP_SPACE_BUDGET (10^4) trees, predicted before enumerating: with
    k atoms the trees of depth below i number L(i), where L(0) = 0,
    L(1) = k and L(i+1) = L(i) + L(i)^2 - L(i-1)^2 (the new trees are
    the pairs not already formed one layer down).
    """
    if d > 4 or len(alphabet) > 3 or numeral_bound > 2:
        raise SizeExceeded("sexp_space guard: d <= 4, |alphabet| <= 3, numerals <= 2")
    prev, count = 0, (len(alphabet) + max(numeral_bound, 0) if d > 0 else 0)
    for _ in range(d - 1):
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
            shape = case_tree(cur)
        except Malformed:
            return False
        if isinstance(shape, AtomShape):
            lbl = shape.label
            if isinstance(lbl, UserAtom):
                if lbl.symbol not in alphabet:
                    return False
            elif not 0 <= lbl.value < numeral_bound:
                return False
        else:
            stack.append(shape.left)
            stack.append(shape.right)
    return True
