"""Well-founded side: list encodings, closure, recursion, sexp spaces."""

import random

import pytest

from coinduct.bisim import eq_upto
from coinduct.colist import Alphabet, cons, lconst
from coinduct.errors import IllFoundedCall, NotAList, SizeExceeded, UnknownAtom
from coinduct.lattice import Carrier, Subset, SubsetOperator, lfp
from coinduct.trees import (
    NIL_TREE,
    cons_tree,
    leaf,
    numb,
    otimes,
    scons,
    tree_depth,
)
from coinduct import wf
from coinduct.wf import (
    RecSpec,
    WFRelation,
    is_sexp,
    list_decode,
    list_encode,
    sexp_space,
    subexpression_space,
    transitive_closure,
    wfrec,
)

AB = Alphabet(("a", "b"))


def test_list_encode():
    assert list_encode([], AB).tree == NIL_TREE
    assert list_encode(["a"], AB).tree == cons_tree(leaf("a"), NIL_TREE)
    assert tree_depth(list_encode(["a", "b"], AB).tree) == 5
    assert tree_depth(list_encode([], AB).tree) == 1
    with pytest.raises(UnknownAtom):
        list_encode(["z"], AB)


def test_list_decode():
    for xs in ([], ["a"], ["a", "b"], ["b", "b", "a"]):
        assert list_decode(list_encode(xs, AB).tree) == xs
    with pytest.raises(NotAList):
        list_decode(leaf("a"))
    with pytest.raises(NotAList):
        list_decode(cons_tree(NIL_TREE, NIL_TREE))  # head is not a leaf
    assert list_decode(NIL_TREE) == []


def test_transitive_closure_examples():
    assert transitive_closure({(1, 2), (2, 3)}) == frozenset({(1, 2), (2, 3), (1, 3)})
    assert transitive_closure(set()) == frozenset()
    cyc = transitive_closure({("x", "y"), ("y", "x")})
    assert ("x", "x") in cyc
    with pytest.raises(ValueError):
        WFRelation(("x", "y"), {("x", "y"), ("y", "x")})


def paths_oracle(pairs, carrier):
    """Brute-force reachability by DFS, one edge or more."""
    out = set()
    adj = {}
    for a, b in pairs:
        adj.setdefault(a, set()).add(b)
    for start in carrier:
        seen = set()
        stack = list(adj.get(start, ()))
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(adj.get(x, ()))
        out |= {(start, x) for x in seen}
    return frozenset(out)


def test_transitive_closure_vs_path_oracle():
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(1, 7)
        carrier = [f"v{i}" for i in range(n)]
        pairs = {
            (rng.choice(carrier), rng.choice(carrier))
            for _ in range(rng.randint(0, 10))
        }
        assert transitive_closure(pairs) == paths_oracle(pairs, carrier)


def lfp_closure(pairs):
    """The paper's definition: the least fixedpoint of
    Z -> pairs | (Z ; Z) on the lattice of subsets of all pairs over the
    mentioned elements."""
    base = frozenset(pairs)
    elems = sorted({x for p in base for x in p}, key=repr)
    carrier = Carrier([(x, y) for x in elems for y in elems])

    def step(z):
        have = set(z.members()) | base
        succ = {}
        for a, b in have:
            succ.setdefault(a, set()).add(b)
        return Subset.of(carrier, have | {(a, d) for a, b in have for d in succ.get(b, ())})

    return frozenset(lfp(SubsetOperator(step, "closure"), carrier).members())


def test_transitive_closure_vs_lfp_definition():
    rng = random.Random(23)
    assert transitive_closure(()) == lfp_closure(()) == frozenset()
    for _ in range(60):
        n = rng.randint(1, 7)
        elems = list(range(n)) if rng.random() < 0.5 else [f"v{i}" for i in range(n)]
        pairs = {(rng.choice(elems), rng.choice(elems)) for _ in range(rng.randint(0, 12))}
        if rng.random() < 0.3:
            x = rng.choice(elems)
            pairs.add((x, x))
        assert transitive_closure(iter(pairs)) == lfp_closure(pairs)


def test_closure_preserves_acyclicity():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 7)
        carrier = [f"v{i}" for i in range(n)]
        pairs = set()
        for _ in range(rng.randint(0, 10)):
            i, j = rng.sample(range(n), 2)
            if i < j:
                pairs.add((carrier[i], carrier[j]))  # ordered, hence acyclic
        closure = transitive_closure(pairs)
        assert all((x, x) not in closure for x in carrier)
        WFRelation(carrier, pairs)  # validates


def length_body(t, rec):
    from coinduct.trees import list_case

    cell = list_case(t)
    if cell is None:
        return 0
    _, tail = cell
    return 1 + rec(tail)


def test_wfrec_list_length():
    tree = list_encode(["a", "b"], AB).tree
    carrier, rel = subexpression_space([tree])
    assert wfrec(RecSpec(rel, length_body), tree) == 2
    assert wfrec(RecSpec(rel, length_body), NIL_TREE) == 0


def test_wfrec_list_append():
    ys = list_encode(["b"], AB).tree

    def append_body(t, rec):
        from coinduct.trees import list_case

        cell = list_case(t)
        if cell is None:
            return ys
        head, tail = cell
        return cons_tree(head, rec(tail))

    xs = list_encode(["a"], AB).tree
    carrier, rel = subexpression_space([xs])
    result = wfrec(RecSpec(rel, append_body), xs)
    assert list_decode(result) == ["a", "b"]


def test_wfrec_guards_ill_founded_calls():
    tree = list_encode(["a"], AB).tree
    carrier, rel = subexpression_space([tree])

    def cheat(t, rec):
        return rec(t)

    with pytest.raises(IllFoundedCall):
        wfrec(RecSpec(rel, cheat), tree)


def test_wfrec_deterministic_and_guarded():
    tree = list_encode(["a", "b", "a"], AB).tree
    carrier, rel = subexpression_space([tree])
    consulted = []

    def body(t, rec):
        def tracked(y):
            consulted.append((y, t))
            return rec(y)

        return length_body(t, tracked)

    spec = RecSpec(rel, body)
    first = wfrec(spec, tree)
    second = wfrec(spec, tree)
    assert first == second == 3
    assert all(rel.below(y, t) for y, t in consulted)


def test_sexp_space_small():
    alpha = Alphabet(("a",))
    carrier, rel = sexp_space(1, alpha, 2)
    assert set(carrier) == {leaf("a"), numb(0), numb(1)}
    assert rel.pairs == frozenset()

    carrier2, rel2 = sexp_space(2, alpha, 2)
    assert len(carrier2) == 12
    for m, n in rel2.pairs:
        assert n == scons(m, _other_branch(n, m)) or _is_branch(m, n)
    with pytest.raises(SizeExceeded):
        sexp_space(5, alpha, 2)
    with pytest.raises(SizeExceeded):
        sexp_space(2, Alphabet(("a", "b", "c", "d")), 2)


def test_sexp_space_guard_predicts_the_carrier(monkeypatch):
    """Trees with every node below depth 4, for k = 1..5 atoms: 26, 1446,
    21612, 163220, 819030.  Over SEXP_SPACE_BUDGET the guard refuses
    before enumerating."""
    def refuse(*args):
        raise AssertionError("sexp_space enumerated past its guard")

    with monkeypatch.context() as patch:
        patch.setattr(wf, "enumerate_trees", refuse)
        for numerals, count in ((0, 21612), (1, 163220), (2, 819030)):
            with pytest.raises(SizeExceeded) as exc:
                sexp_space(4, Alphabet(("a", "b", "c")), numerals)
            assert str(exc.value) == (
                f"sexp_space guard: predicted {count} trees, over the budget of 10000"
            )
        with pytest.raises(SizeExceeded, match="d <= 4"):
            sexp_space(5, Alphabet(("a",)), 0)
    assert wf.SEXP_SPACE_BUDGET == 10**4
    assert len(sexp_space(4, Alphabet(("a",)), 0)[0]) == 26
    assert len(sexp_space(4, Alphabet(("a",)), 1)[0]) == 1446


def _is_branch(m, n):
    from coinduct.trees import SconsShape, case_tree

    shape = case_tree(n)
    return isinstance(shape, SconsShape) and (shape.left == m or shape.right == m)


def _other_branch(n, m):
    from coinduct.trees import case_tree

    shape = case_tree(n)
    return shape.right if shape.left == m else shape.left


def test_sexp_lfp_cross_check():
    alpha = Alphabet(("a",))
    carrier, _ = sexp_space(3, alpha, 1)
    atoms = [leaf("a"), numb(0)]
    lattice_carrier = Carrier(tuple(carrier))
    members = set(carrier)

    def eq6(z: Subset) -> Subset:
        trees = frozenset(z.members())
        grown = set(atoms) | {t for t in otimes(trees, trees) if t in members}
        return Subset.of(lattice_carrier, grown)

    result = lfp(SubsetOperator(eq6, "sexp"), lattice_carrier)
    assert set(result.members()) == members


def test_list_of_sexps_is_sexp():
    alpha = Alphabet(("a", "b"))
    for e in (1, 2):
        elements, _ = sexp_space(e, Alphabet(("a",)), 2)
        for length in (0, 1, 2):
            for elem in elements:
                # fold list cells by hand so element trees may be deep
                t = NIL_TREE
                for _ in range(length):
                    t = cons_tree(elem, t)
                bound = 2 * length + e + 2
                assert is_sexp(t, alpha, 2)
                assert tree_depth(t) < bound


def test_theorem_5_no_cons_fixpoint_on_finite_lists():
    lists = []
    for length in range(3):
        for combo in _tuples(("a", "b"), length):
            lists.append(list_encode(list(combo), AB).tree)
    heads = [leaf("a"), leaf("b"), numb(0)] + lists
    for n in lists:
        assert tree_depth(n) <= 5
        for m in heads:
            assert cons_tree(m, n) != n
    # contrast: the lazy list fixes the corresponding equation observationally
    const = lconst("a", AB)
    assert eq_upto(50, const, cons("a", const, AB))


def _tuples(syms, length):
    if length == 0:
        return [()]
    return [(s,) + rest for s in syms for rest in _tuples(syms, length - 1)]


def test_wfrec_requires_carrier_membership():
    carrier, rel = subexpression_space([NIL_TREE])
    with pytest.raises(ValueError):
        wfrec(RecSpec(rel, length_body), leaf("a"))
