"""The binary-tree universe: nodes, finite node-set trees, constructors.

A node is a (position, label) pair; positions are finite words over the
branch digits 0 and 1, so every node has a finite depth equal to its word
length.  A tree is a finite set of nodes held in canonical order, which
makes set equality plain structural equality.  Constructors never accept
the empty node set; empty trees only arise from truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from .errors import EmptyOperand, Malformed
from .syntax import TERM, Grammar

Position = tuple[int, ...]


@dataclass(frozen=True)
class UserAtom:
    """A label drawn from a user-declared alphabet."""

    symbol: str

    def render(self) -> str:
        return f"atom:{self.symbol}"

    def sort_key(self):
        return (1, self.symbol)


@dataclass(frozen=True)
class Num:
    """A natural-number label; always available, whatever the alphabet."""

    value: int

    def render(self) -> str:
        return f"num:{self.value}"

    def sort_key(self):
        return (0, self.value)


Label = Union[UserAtom, Num]


@dataclass(frozen=True)
class Node:
    pos: Position
    label: Label

    def sort_key(self):
        return (self.pos, self.label.sort_key())


def ndepth(node: Node) -> int:
    """Depth of a node: the length of its position word."""
    return len(node.pos)


class FiniteTree:
    """A finite set of nodes with at most one node per position.

    Nodes are stored sorted by position, so two trees are equal exactly
    when their node tuples are equal.
    """

    __slots__ = ("nodes", "_hash")

    def __init__(self, nodes: Iterable[Node]):
        ordered = tuple(sorted(set(nodes), key=Node.sort_key))
        for a, b in zip(ordered, ordered[1:]):
            if a.pos == b.pos:
                raise Malformed(f"two nodes share position {render_position(a.pos)}")
        object.__setattr__(self, "nodes", ordered)
        object.__setattr__(self, "_hash", hash(ordered))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteTree is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteTree) and self.nodes == other.nodes

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.nodes)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def sort_key(self):
        return tuple(n.sort_key() for n in self.nodes)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{render_position(n.pos)} {n.label.render()}" for n in self.nodes
        )
        return "{" + inner + "}"

    @property
    def is_empty(self) -> bool:
        return not self.nodes


EMPTY_TREE = FiniteTree(())

TreeSet = frozenset  # of FiniteTree


def tree_depth(t: FiniteTree) -> int:
    """Largest node depth in t (0 for atoms and for the empty tree)."""
    return max((ndepth(n) for n in t), default=0)


def atom(label: Label) -> FiniteTree:
    """The singleton tree carrying `label` at the root position."""
    return FiniteTree((Node((), label),))


def leaf(symbol: str) -> FiniteTree:
    """Atom tree labelled with an alphabet symbol."""
    return atom(UserAtom(symbol))


def numb(k: int) -> FiniteTree:
    """Atom tree labelled with the natural number k."""
    if k < 0:
        raise ValueError("numeral labels are naturals")
    return atom(Num(k))


def _push(digit: int, t: FiniteTree) -> Iterator[Node]:
    for n in t:
        yield Node((digit,) + n.pos, n.label)


def branch_union(m: FiniteTree, n: FiniteTree) -> FiniteTree:
    """Union of the two push images, with empty branches allowed.

    This is the raw node-level combination underlying scons; truncation
    laws and corecursion approximants need it on possibly-empty operands.
    """
    return FiniteTree(tuple(_push(0, m)) + tuple(_push(1, n)))


def scons(m: FiniteTree, n: FiniteTree) -> FiniteTree:
    """Binary tree with branches m and n; operands must be nonempty."""
    if m.is_empty or n.is_empty:
        raise EmptyOperand("scons operands must be nonempty")
    return branch_union(m, n)


def in0(m: FiniteTree) -> FiniteTree:
    """Left injection: a tree tagged with numeral 0 on branch 0."""
    return scons(numb(0), m)


def in1(m: FiniteTree) -> FiniteTree:
    """Right injection: a tree tagged with numeral 1 on branch 0."""
    return scons(numb(1), m)


def inject(side: int, m: FiniteTree) -> FiniteTree:
    """in0 or in1 by branch digit; side must be 0 or 1."""
    if side == 0:
        return in0(m)
    if side == 1:
        return in1(m)
    raise ValueError("side must be 0 or 1")


NIL_TREE = in0(numb(0))


def cons_tree(m: FiniteTree, n: FiniteTree) -> FiniteTree:
    """List cell: the right injection of the pair (m, n)."""
    return in1(scons(m, n))


@dataclass(frozen=True)
class AtomShape:
    label: Label


@dataclass(frozen=True)
class SconsShape:
    left: FiniteTree
    right: FiniteTree


def case_tree(t: FiniteTree) -> Union[AtomShape, SconsShape]:
    """Decompose a tree into the unique constructor image it came from.

    Raises Malformed when t is neither an atom nor a two-branch tree,
    e.g. for truncations with an empty branch or for node sets mixing a
    root node with deeper ones.
    """
    if t.is_empty:
        raise Malformed("empty tree is not a constructor image")
    if any(not n.pos for n in t):
        if len(t) == 1:
            return AtomShape(t.nodes[0].label)
        raise Malformed("root node mixed with deeper nodes")
    left = FiniteTree(Node(n.pos[1:], n.label) for n in t if n.pos[0] == 0)
    right = FiniteTree(Node(n.pos[1:], n.label) for n in t if n.pos[0] == 1)
    if left.is_empty or right.is_empty:
        raise Malformed("one branch is empty; not a constructor image")
    return SconsShape(left, right)


def split(t: FiniteTree) -> tuple[FiniteTree, FiniteTree]:
    """Recover the two operands of scons; Malformed on atoms."""
    shape = case_tree(t)
    if isinstance(shape, AtomShape):
        raise Malformed("split applied to an atom")
    return shape.left, shape.right


def sum_case(t: FiniteTree) -> tuple[int, FiniteTree]:
    """Recover (side, operand) from an injection image."""
    shape = case_tree(t)
    if isinstance(shape, SconsShape) and shape.left == numb(0):
        return 0, shape.right
    if isinstance(shape, SconsShape) and shape.left == numb(1):
        return 1, shape.right
    raise Malformed("not an injection image")


def list_case(t: FiniteTree):
    """None when t is the nil tree, (head, tail) when t is a list cell."""
    side, body = sum_case(t)
    if side == 0:
        if body == numb(0):
            return None
        raise Malformed("left injection of a non-zero payload is not a list")
    return split(body)


def otimes(a: TreeSet, b: TreeSet) -> TreeSet:
    """Pairwise scons product of two tree sets."""
    return frozenset(scons(x, y) for x in a for y in b)


def oplus(a: TreeSet, b: TreeSet) -> TreeSet:
    """Disjoint sum of two tree sets via the two injections."""
    return frozenset(in0(x) for x in a) | frozenset(in1(y) for y in b)


def ntrunc(k: int, t: FiniteTree) -> FiniteTree:
    """Nodes of t at depth strictly below k; empty input is allowed."""
    return FiniteTree(n for n in t if ndepth(n) < k)


def render_position(pos: Position) -> str:
    return "".join(str(d) for d in pos) if pos else "."


def dump_tree(t: FiniteTree) -> str:
    """Canonical textual dump: one `position label` line per node.

    Positions appear in lexicographic order; the root position renders
    as `.`; labels render as `atom:<symbol>` or `num:<k>`.
    """
    lines = [f"{render_position(n.pos)} {n.label.render()}" for n in t.nodes]
    return "\n".join(lines) + ("\n" if lines else "")


def enumerate_trees(depth: int, symbols: Iterable[str], numeral_bound: int) -> list[FiniteTree]:
    """All constructor-built trees whose nodes sit at depth below `depth`.

    Atoms are the declared leaves plus numerals 0..numeral_bound-1; the
    rest are scons combinations.  Returned in a deterministic order.
    """
    if depth <= 0:
        return []
    layer = [leaf(s) for s in symbols] + [numb(k) for k in range(numeral_bound)]
    for _ in range(depth - 1):
        prev = layer
        layer = list(prev)
        seen = set(prev)
        for m in prev:
            for n in prev:
                t = scons(m, n)
                if t not in seen:
                    seen.add(t)
                    layer.append(t)
    return layer


_TREE_TERM = Grammar("tree term", {
    "nil": (lambda: NIL_TREE, ()),
    "leaf": (leaf, ("symbol",)),
    "numb": (numb, ("numeral",)),
    "scons": (scons, (TERM, TERM)),
    "in0": (in0, (TERM,)),
    "in1": (in1, (TERM,)),
    "cons": (cons_tree, (TERM, TERM)),
})


def parse_tree_term(text: str) -> FiniteTree:
    """Parse the small tree-term syntax used by lattice demo carriers.

    Grammar: term := `nil` | `leaf(sym)` | `numb(k)` | `scons(term,term)`
    | `in0(term)` | `in1(term)` | `cons(term,term)`, read by
    `syntax.Grammar` with the expression language's conventions.
    """
    return _TREE_TERM.read(text)
