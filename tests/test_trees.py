"""Tree universe: constructors, eliminators, truncation, set operators."""

import itertools
import random
import sys

import pytest

from coinduct import trees
from coinduct.errors import EmptyOperand, Malformed, ParseError
from coinduct.trees import (
    EMPTY_TREE,
    AtomShape,
    FiniteTree,
    NIL_TREE,
    Node,
    Num,
    SconsShape,
    UserAtom,
    atom,
    branch_union,
    case_tree,
    cons_tree,
    dump_tree,
    enumerate_trees,
    in0,
    in1,
    inject,
    leaf,
    list_case,
    ndepth,
    ntrunc,
    numb,
    oplus,
    otimes,
    parse_tree_term,
    render_position,
    scons,
    split,
    sum_case,
    tree_depth,
)


def nodes(*pairs):
    """Literal node-set oracle: build a tree straight from (pos, label)."""
    return FiniteTree(Node(tuple(p), l) for p, l in pairs)


def test_atom_constructors():
    assert atom(Num(0)) == nodes(((), Num(0)))
    assert leaf("a") == nodes(((), UserAtom("a")))
    assert numb(1) == nodes(((), Num(1)))


def test_scons_enumerates_push_images():
    assert scons(leaf("a"), numb(0)) == nodes(
        ((0,), UserAtom("a")), ((1,), Num(0))
    )
    assert scons(numb(1), scons(leaf("a"), numb(0))) == nodes(
        ((0,), Num(1)), ((1, 0), UserAtom("a")), ((1, 1), Num(0))
    )
    assert scons(atom(Num(0)), atom(Num(0))) != atom(Num(0))


def test_scons_rejects_empty_operands():
    """So do the constructors built on it, with the same message."""
    for build in (lambda t: scons(t, leaf("a")), lambda t: scons(leaf("a"), t), in0, in1,
                  lambda t: cons_tree(t, leaf("a")), lambda t: cons_tree(leaf("a"), t)):
        with pytest.raises(EmptyOperand) as got:
            build(EMPTY_TREE)
        assert str(got.value) == "scons operands must be nonempty"


def test_injections():
    assert NIL_TREE == nodes(((0,), Num(0)), ((1,), Num(0)))
    assert cons_tree(leaf("a"), NIL_TREE) == nodes(
        ((0,), Num(1)),
        ((1, 0), UserAtom("a")),
        ((1, 1, 0), Num(0)),
        ((1, 1, 1), Num(0)),
    )
    assert inject(0, leaf("a")) != inject(1, leaf("a"))
    assert inject(0, leaf("a")) == in0(leaf("a"))
    with pytest.raises(EmptyOperand):
        in1(EMPTY_TREE)


def test_constructors_build_only_new_nodes_and_share_atoms(monkeypatch):
    m, n = leaf("a"), NIL_TREE
    calls = []
    real = trees._tree
    monkeypatch.setattr(trees, "_tree", lambda *args: calls.append(args) or real(*args))
    cell = cons_tree(m, n)
    assert len(calls) == 2
    calls.clear()
    x = in1(m)
    assert len(calls) == 1
    calls.clear()
    in0(m)
    assert len(calls) == 1
    monkeypatch.undo()
    assert cell._right._left is m and cell._right._right is n
    assert leaf("a") is leaf("a")
    assert x._left is numb(1) is trees.ONE_ATOM
    assert in0(m)._left is numb(0) is trees.ZERO_ATOM
    assert NIL_TREE._left is NIL_TREE._right is numb(0)
    assert numb(1) is numb(1)
    assert dump_tree(numb(True)) == ". num:True\n"
    assert dump_tree(numb(1)) == ". num:1\n"
    assert numb(True) == numb(1)


def test_case_tree_shapes():
    assert case_tree(scons(leaf("a"), numb(0))) == SconsShape(leaf("a"), numb(0))
    assert case_tree(leaf("a")) == AtomShape(UserAtom("a"))
    with pytest.raises(Malformed):
        case_tree(nodes(((1, 0), UserAtom("a"))))
    with pytest.raises(Malformed):
        case_tree(EMPTY_TREE)
    with pytest.raises(Malformed):
        case_tree(nodes(((), UserAtom("a")), ((0,), Num(0))))


def test_eliminators_invert_constructors():
    m, n = scons(leaf("a"), numb(0)), numb(1)
    assert split(scons(m, n)) == (m, n)
    assert sum_case(in0(m)) == (0, m)
    assert sum_case(in1(n)) == (1, n)
    assert list_case(NIL_TREE) is None
    assert list_case(cons_tree(m, NIL_TREE)) == (m, NIL_TREE)
    with pytest.raises(Malformed):
        split(leaf("a"))
    with pytest.raises(Malformed):
        list_case(leaf("a"))


def test_otimes():
    a = frozenset({leaf("a")})
    b = frozenset({numb(0), numb(1)})
    assert otimes(a, b) == frozenset(
        {scons(leaf("a"), numb(0)), scons(leaf("a"), numb(1))}
    )
    assert otimes(frozenset(), b) == frozenset()
    two = frozenset({leaf("a"), numb(0)})
    three = frozenset({leaf("a"), numb(0), numb(1)})
    assert len(otimes(two, three)) == 6


def test_oplus():
    assert oplus(frozenset({numb(0)}), frozenset({leaf("a")})) == frozenset(
        {NIL_TREE, in1(leaf("a"))}
    )
    assert oplus(frozenset(), frozenset()) == frozenset()
    t = scons(leaf("a"), numb(0))
    assert len(oplus(frozenset({t}), frozenset({t}))) == 2


def test_set_operators_monotone():
    pool = [leaf("a"), numb(0), numb(1), scons(leaf("a"), numb(0))]
    subsets = [
        frozenset(c)
        for size in range(4)
        for c in itertools.combinations(pool, size)
    ]
    ordered = [(a, a2) for a in subsets for a2 in subsets if a <= a2]
    for a, a2 in ordered:
        for b, b2 in ordered:
            assert otimes(a, b) <= otimes(a2, b2)
            assert oplus(a, b) <= oplus(a2, b2)


def test_ndepth():
    assert ndepth(Node((), Num(0))) == 0
    assert ndepth(Node((1, 0), UserAtom("a"))) == 2
    c = cons_tree(leaf("a"), NIL_TREE)
    assert sorted(ndepth(n) for n in c) == [1, 2, 3, 3]


def test_ntrunc_examples():
    assert ntrunc(0, leaf("a")) == EMPTY_TREE
    assert ntrunc(1, in0(leaf("a"))) == EMPTY_TREE
    assert ntrunc(3, cons_tree(leaf("a"), NIL_TREE)) == nodes(
        ((0,), Num(1)), ((1, 0), UserAtom("a"))
    )


def all_small_trees(depth, numeral_bound=1):
    return enumerate_trees(depth, ("a",), numeral_bound)


def test_ntrunc_laws():
    trees = all_small_trees(3)
    for t in trees:
        assert ntrunc(0, t) == EMPTY_TREE
        for j in range(6):
            for k in range(6):
                assert ntrunc(j, ntrunc(k, t)) == ntrunc(min(j, k), t)
    for k in range(5):
        assert ntrunc(k + 1, leaf("a")) == leaf("a")
        assert ntrunc(k + 1, numb(0)) == numb(0)
        for m in all_small_trees(2):
            for n in all_small_trees(2):
                assert ntrunc(k + 1, scons(m, n)) == branch_union(
                    ntrunc(k, m), ntrunc(k, n)
                )
    for m in trees:
        assert ntrunc(1, in0(m)) == EMPTY_TREE
        for k in range(5):
            assert ntrunc(k + 2, in0(m)) == branch_union(
                numb(0), ntrunc(k + 1, m)
            )
            assert ntrunc(k + 2, in1(m)) == branch_union(
                numb(1), ntrunc(k + 1, m)
            )


def test_take_lemma_on_finite_trees():
    trees = enumerate_trees(4, ("a",), 0)
    assert len(trees) == 26
    for m in trees:
        for n in trees:
            bound = 1 + max(tree_depth(m), tree_depth(n))
            agree = all(ntrunc(k, m) == ntrunc(k, n) for k in range(bound + 1))
            assert agree == (m == n)


def test_injectivity_and_freeness_small():
    pool = all_small_trees(2)
    images = {}
    for m in pool:
        for n in pool:
            images.setdefault(scons(m, n), (m, n))
    assert len(images) == len(pool) ** 2
    for t in all_small_trees(3):
        assert atom(Num(0)) != scons(t, t)
        assert in0(t) != in1(t)
        assert cons_tree(leaf("a"), t) != NIL_TREE


def test_dump_format():
    assert dump_tree(cons_tree(leaf("a"), NIL_TREE)) == (
        "0 num:1\n10 atom:a\n110 num:0\n111 num:0\n"
    )
    assert dump_tree(leaf("a")) == ". atom:a\n"
    assert dump_tree(EMPTY_TREE) == ""


def test_tree_duplicate_positions_rejected():
    with pytest.raises(Malformed):
        nodes(((0,), Num(0)), ((0,), Num(1)))


def test_parse_tree_term():
    assert parse_tree_term("nil") == NIL_TREE
    assert parse_tree_term("cons(leaf(a),nil)") == cons_tree(leaf("a"), NIL_TREE)
    assert parse_tree_term(" scons( numb(0) , numb(1) ) ") == scons(numb(0), numb(1))
    assert parse_tree_term("in1(leaf(b))") == in1(leaf("b"))
    with pytest.raises(ParseError):
        parse_tree_term("cons(leaf(a)")
    with pytest.raises(ParseError):
        parse_tree_term("nil extra")


def test_enumerate_trees_sizes():
    assert len(enumerate_trees(1, ("a",), 2)) == 3
    assert len(enumerate_trees(2, ("a",), 2)) == 12
    assert len(enumerate_trees(0, ("a",), 2)) == 0


# --------------------------------------------------------------------------
# Reference: the node-tuple tree the trie replaced, kept as the oracle.


class RefTree:
    """A finite node set held as a sorted tuple of nodes."""

    def __init__(self, nodes):
        ordered = tuple(sorted(set(nodes), key=Node.sort_key))
        for a, b in zip(ordered, ordered[1:]):
            if a.pos == b.pos:
                raise Malformed(f"two nodes share position {render_position(a.pos)}")
        self.nodes = ordered

    def __eq__(self, other):
        return self.nodes == other.nodes

    def __hash__(self):
        return hash(self.nodes)

    def sort_key(self):
        return tuple(n.sort_key() for n in self.nodes)

    def __repr__(self):
        inner = ", ".join(f"{render_position(n.pos)} {n.label.render()}" for n in self.nodes)
        return "{" + inner + "}"

    def dump(self):
        lines = [f"{render_position(n.pos)} {n.label.render()}" for n in self.nodes]
        return "\n".join(lines) + ("\n" if lines else "")


def ref_branch_union(m, n):
    return RefTree([Node((0,) + x.pos, x.label) for x in m.nodes]
                   + [Node((1,) + x.pos, x.label) for x in n.nodes])


def ref_ntrunc(k, t):
    return RefTree(n for n in t.nodes if ndepth(n) < k)


def ref_case_tree(t):
    """The parent's case_tree on node tuples, with RefTree branches."""
    if not t.nodes:
        raise Malformed("empty tree is not a constructor image")
    if any(not n.pos for n in t.nodes):
        if len(t.nodes) == 1:
            return AtomShape(t.nodes[0].label)
        raise Malformed("root node mixed with deeper nodes")
    left = RefTree(Node(n.pos[1:], n.label) for n in t.nodes if n.pos[0] == 0)
    right = RefTree(Node(n.pos[1:], n.label) for n in t.nodes if n.pos[0] == 1)
    if not left.nodes or not right.nodes:
        raise Malformed("one branch is empty; not a constructor image")
    return SconsShape(left, right)


REF_ZERO, REF_ONE = RefTree([Node((), Num(0))]), RefTree([Node((), Num(1))])


def ref_split(t):
    shape = ref_case_tree(t)
    if isinstance(shape, AtomShape):
        raise Malformed("split applied to an atom")
    return shape.left, shape.right


def ref_sum_case(t):
    shape = ref_case_tree(t)
    if isinstance(shape, SconsShape) and shape.left == REF_ZERO:
        return 0, shape.right
    if isinstance(shape, SconsShape) and shape.left == REF_ONE:
        return 1, shape.right
    raise Malformed("not an injection image")


def ref_list_case(t):
    side, body = ref_sum_case(t)
    if side == 0:
        if body == REF_ZERO:
            return None
        raise Malformed("left injection of a non-zero payload is not a list")
    return ref_split(body)


def parts(fn, t):
    """fn(t) with each tree in it replaced by its nodes, or the Malformed
    message it raised."""
    try:
        got = fn(t)
    except Malformed as exc:
        return "Malformed", str(exc)
    if got is None:
        return None
    return tuple(x if isinstance(x, int) else x.nodes for x in got)


ELIMINATORS = ((split, ref_split), (sum_case, ref_sum_case), (list_case, ref_list_case))


def outcome(fn, t):
    try:
        shape = fn(t)
    except Malformed as exc:
        return "Malformed", str(exc)
    if isinstance(shape, AtomShape):
        return "atom", shape.label
    return "scons", shape.left.nodes, shape.right.nodes


def assert_agree(pairs):
    """Trie trees against their reference node tuples, one by one and
    pairwise: node views, texts, case analysis, equality, hash, order."""
    for t, ref in pairs:
        assert t.nodes == tuple(t) == ref.nodes
        assert len(t) == len(ref.nodes) and bool(t) == bool(ref.nodes)
        assert dump_tree(t) == ref.dump() and repr(t) == repr(ref)
        assert t.sort_key() == ref.sort_key()
        assert tree_depth(t) == max((ndepth(n) for n in ref.nodes), default=0)
        assert outcome(case_tree, t) == outcome(ref_case_tree, ref)
        for fn, ref_fn in ELIMINATORS:
            assert parts(fn, t) == parts(ref_fn, ref)
        rebuilt = FiniteTree(ref.nodes)
        assert rebuilt == t and hash(rebuilt) == hash(t)
    for t, ref in pairs:
        for u, ref_u in pairs:
            assert (t == u) == (ref == ref_u)
            if t == u:
                assert hash(t) == hash(u)
    by_trie = sorted(range(len(pairs)), key=lambda i: pairs[i][0].sort_key())
    by_ref = sorted(range(len(pairs)), key=lambda i: pairs[i][1].sort_key())
    assert by_trie == by_ref


def test_trie_agrees_with_node_tuples_on_enumerated_trees():
    trees = enumerate_trees(3, ("a",), 2)
    assert_agree([(t, RefTree(t.nodes)) for t in trees])
    for t in trees:
        ref = RefTree(t.nodes)
        for k in range(5):
            assert ntrunc(k, t).nodes == ref_ntrunc(k, ref).nodes


def random_atom(rng, labels):
    """A shared atom (leaf or numb) or a fresh one (atom), and its reference."""
    label = rng.choice(labels)
    if rng.random() < 0.5:
        t = atom(label)
    else:
        t = leaf(label.symbol) if isinstance(label, UserAtom) else numb(label.value)
    return t, RefTree([Node((), label)])


def random_pair(rng, budget):
    """A trie tree and its reference, built side by side from atoms,
    empty trees, branch unions (empty branches allowed), injection- and
    list-shaped node sets (a numeral tag on branch 0) and truncations."""
    roll = rng.random()
    if budget <= 0 or roll < 0.2:
        return random_atom(rng, [UserAtom("a"), UserAtom("b"), Num(0), Num(1)])
    if roll < 0.25:
        return EMPTY_TREE, RefTree(())
    if roll < 0.5:
        tag, ref_tag = random_atom(rng, [Num(0), Num(1), Num(1), Num(2), UserAtom("a")])
        if rng.random() < 0.3:  # nil, or a near miss: payload 1 or a leaf
            m, ref_m = random_atom(rng, [Num(0), Num(0), Num(1), UserAtom("a")])
        elif rng.random() < 0.6:  # a list cell: (head, tail) under the tag
            m, ref_m = random_pair(rng, 0)
            n, ref_n = random_pair(rng, budget - 1)
            m, ref_m = branch_union(m, n), ref_branch_union(ref_m, ref_n)
        else:
            m, ref_m = random_pair(rng, budget - 1)
        return branch_union(tag, m), ref_branch_union(ref_tag, ref_m)
    if roll < 0.85:
        m, ref_m = random_pair(rng, budget - 1)
        n, ref_n = random_pair(rng, budget - 1)
        return branch_union(m, n), ref_branch_union(ref_m, ref_n)
    k = rng.randint(-1, 6)
    t, ref = random_pair(rng, budget - 1)
    return ntrunc(k, t), ref_ntrunc(k, ref)


def test_trie_agrees_with_node_tuples_on_random_trees():
    rng = random.Random(41)
    pairs = [random_pair(rng, rng.randint(0, 7)) for _ in range(300)]
    assert any(not ref.nodes for _, ref in pairs)
    assert any(outcome(ref_case_tree, ref)[0] == "Malformed" and ref.nodes for _, ref in pairs)
    seen = {o if o is None or o[0] == "Malformed" else "cell"
            for o in (parts(ref_list_case, ref) for _, ref in pairs)}
    assert seen >= {None, "cell", ("Malformed", "not an injection image"),
                    ("Malformed", "split applied to an atom"),
                    ("Malformed", "left injection of a non-zero payload is not a list")}
    assert_agree(pairs)
    # root nodes mixed with deeper ones only come from literal node sets
    for t, ref in pairs[:60]:
        label = rng.choice([UserAtom("a"), Num(2)])
        mixed = ref.nodes + (Node((), label),)
        if not any(n.pos == () for n in ref.nodes):
            assert_agree([(FiniteTree(mixed), RefTree(mixed))])


def test_literal_node_sets_report_clashes_like_the_reference():
    rng = random.Random(43)
    positions = [(), (0,), (1,), (0, 1), (1, 1, 0)]
    for _ in range(200):
        nodes = [Node(rng.choice(positions), rng.choice([Num(0), Num(1), UserAtom("a")]))
                 for _ in range(rng.randint(0, 6))]
        try:
            expected = RefTree(nodes)
        except Malformed as exc:
            with pytest.raises(Malformed) as got:
                FiniteTree(nodes)
            assert str(got.value) == str(exc)
        else:
            assert FiniteTree(nodes).nodes == expected.nodes


def test_deep_trees_without_recursion():
    """Trees far deeper than the recursion limit: a 10^4-atom list
    (depth 20001) and a 3000-deep truncation of a lazy list."""
    from coinduct.colist import Alphabet, lconst, tree_trunc
    from coinduct.wf import list_decode, list_encode

    assert sys.getrecursionlimit() <= 10**4
    alphabet = Alphabet(("a", "b"))
    xs = ["a", "b"] * 5000
    t, u = list_encode(xs, alphabet).tree, list_encode(xs, alphabet).tree
    assert tree_depth(t) == 2 * 10**4 + 1
    assert list_decode(t) == xs
    assert t is not u and t == u and hash(t) == hash(u)
    assert t != list_encode(xs[:-1] + ["a"], alphabet).tree
    assert ntrunc(2 * 10**4 + 2, t) == t
    assert len(ntrunc(2 * 10**4, t)) == len(t) - 3  # last head, both nil nodes
    deep = tree_trunc(3000, lconst("a", alphabet))
    lines = dump_tree(deep).splitlines()
    assert len(lines) == 2999  # heads at depths 2i+2 < 3000, tags at 2i+1
    assert lines[-1] == "1" * 2998 + "0 num:1"
    assert FiniteTree(deep.nodes) == deep
