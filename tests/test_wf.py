"""Well-founded side: list encodings, closure, recursion, sexp spaces."""

import operator
import random

import pytest

from coinduct.bisim import bisimilarity_gfp, eq_upto
from coinduct.colist import Alphabet, StepFn, cons, lconst
from coinduct.errors import CoinductError, IllFoundedCall, Malformed, NotAList, SizeExceeded, UnknownAtom
from coinduct.lattice import Carrier, Subset, SubsetOperator, lfp
from coinduct.trees import (
    EMPTY_TREE,
    NIL_TREE,
    AtomShape,
    FiniteTree,
    Node,
    SconsShape,
    UserAtom,
    branch_union,
    case_tree,
    cons_tree,
    enumerate_trees,
    in0,
    in1,
    leaf,
    list_case,
    ntrunc,
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


def search_closure(pairs):
    """The per-source `transitive_closure` that the component pass
    replaced, kept as the oracle: one graph search from each source."""
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


def random_digraph(rng, n):
    """Pairs on n labels: forward edges along a hidden ranking, and cycles
    closed over short runs of it (one label: a self-loop), so the graph
    has several cyclic components, some reaching others; a few pairs
    repeat, and the pairs come in random order."""
    rank = rng.sample(range(10 * n), n)
    pairs = [(rank[i], rank[j]) for i, j in
             (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n)) if n > 1)]
    for _ in range(rng.randint(0, 8)):
        i = rng.randrange(n)
        j = min(n - 1, i + rng.randint(0, max(1, n // 10)))
        pairs += [(rank[k], rank[k + 1]) for k in range(i, j)] + [(rank[j], rank[i])]
    pairs += rng.sample(pairs, min(len(pairs), 5))
    rng.shuffle(pairs)
    return pairs


def test_transitive_closure_vs_path_oracle():
    """Random graphs of up to 200 labels (ints or trees, as a set, a list
    with repeats or an iterator) against the per-source search: equal
    both ways, `len` and membership alike, every pair iterated once.
    Then a 10^5-cycle and a 10^4-chain at the default recursion limit."""
    import sys

    rng = random.Random(19)
    nested = 0  # cases where one cyclic component reaches another
    for case in range(120):
        pairs = random_digraph(rng, rng.choice((1, 2, 7, 30, 200)))
        if case % 3 == 1:
            pairs = [(numb(a), numb(b)) for a, b in pairs]
        expected = search_closure(pairs)
        given = (set(pairs), pairs, iter(pairs))[case % 3]
        closure = transitive_closure(given)
        assert closure == expected and expected == closure, case
        listed = list(closure)
        assert len(listed) == len(set(listed)) == len(closure) == len(expected), case
        labels = list({x for p in pairs for x in p}) or [0]
        for _ in range(50):
            pair = rng.choice(labels), rng.choice(labels)
            assert (pair in closure) == (pair in expected), (case, pair)
        loops = {x for x, y in expected if x == y}
        nested += any((x, y) in expected and (y, x) not in expected for x in loops for y in loops)
    assert nested > 10

    assert sys.getrecursionlimit() <= 10**4
    n = 10**5
    cycle = transitive_closure((i, (i + 1) % n) for i in range(n))
    assert len(cycle) == n * n
    assert (n - 1, 0) in cycle and (7, 7) in cycle and (0, n) not in cycle
    n = 10**4
    chain = transitive_closure((i, i + 1) for i in range(n))
    assert len(chain) == n * (n + 1) // 2
    assert (0, n) in chain and (n - 1, n) in chain and (n, 0) not in chain and (7, 7) not in chain


def _view(kind):
    """A closure view or a gfp view, with the frozenset it stands for.
    The closure holds ("a", "b"), so a view that unpacked any iterable of
    two would find "ab" in it."""
    if kind == "closure":
        pairs = {("a", "b"), ("b", "c"), ("c", "b"), (1, 2), (2, 2)}
        return transitive_closure(pairs), search_closure(pairs)
    one = StepFn("one", ("s",), {"s": ("a", "s")})
    cyc = StepFn("cyc", ("t0", "t1", "u"), {"t0": ("a", "t1"), "t1": ("a", "t0"), "u": None})
    return bisimilarity_gfp(one, cyc), frozenset({("M(one,s)", "M(cyc,t0)"), ("M(one,s)", "M(cyc,t1)")})


@pytest.mark.parametrize("kind", ["closure", "gfp"])
def test_pair_views_answer_as_frozensets(kind):
    """`in`, `len`, iteration, comparisons and set operations agree with
    the frozenset of the same pairs; the view is not hashable."""
    view, expected = _view(kind)
    labels = [x for p in sorted(expected, key=repr) for x in p] + ["zz", 9]
    for x in labels:
        for y in labels:
            assert ((x, y) in view) == ((x, y) in expected), (x, y)
    x, y = min(expected, key=repr)
    for item in ("ab", (x, y, x), (x,), ((x, y),), 5, None):
        assert item not in view and item not in expected, item
    for item in ([x, y], (x, [y]), {x: y}):
        for rel in (view, expected):
            with pytest.raises(TypeError):
                item in rel
    listed = list(view)
    assert len(listed) == len(set(listed)) == len(view) == len(expected)
    assert view == expected and expected == view and view == set(expected)
    assert not view != expected and not expected != view
    for other in (expected | {("zz", 9)}, expected - {(x, y)}, frozenset()):
        assert view != other and other != view and not view == other
    other = frozenset({(x, y), ("zz", 9)})
    for op in (operator.and_, operator.or_, operator.sub, operator.xor):
        for a, b in ((view, other), (other, view)):
            result = op(a, b)
            assert type(result) is frozenset, op
            assert result == op(frozenset(a), frozenset(b)), op
    assert view <= expected <= view and view.isdisjoint({("zz", 9)})
    with pytest.raises(TypeError):
        hash(view)


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
    assert len(sexp_space(2, Alphabet(("a", "b", "c", "d")), 2)[0]) == 42


def test_sexp_space_guard_predicts_the_carrier(monkeypatch):
    """Trees with every node below depth 4, for k = 1..5 atoms: 26, 1446,
    21612, 163220, 819030.  Over SEXP_SPACE_BUDGET the guard refuses
    before enumerating, and under it nothing else refuses."""
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
    assert wf.SEXP_SPACE_BUDGET == 10**4
    assert len(sexp_space(5, Alphabet(("a",)), 0)[0]) == 677
    assert len(sexp_space(4, Alphabet(("a",)), 0)[0]) == 26
    assert len(sexp_space(4, Alphabet(("a",)), 1)[0]) == 1446


def test_sexp_space_guard_stops_at_the_budget():
    """The prediction stops at the first layer past the budget, so a huge
    d is refused at once and the message names that layer's count."""
    for d in (6, 16, 10**6):
        with pytest.raises(SizeExceeded) as exc:
            sexp_space(d, Alphabet(("a",)), 0)
        assert str(exc.value) == (
            "sexp_space guard: predicted 458330 trees, over the budget of 10000"
        )


def test_subexpression_space_compares_no_trees(monkeypatch):
    """The carrier comes in the order trees are first reached, roots in the
    order given, without sorting; for sexp_space that is the order of
    enumerate_trees."""
    def refuse(self):
        raise AssertionError("subexpression_space sorted its carrier")

    monkeypatch.setattr(FiniteTree, "sort_key", refuse)
    alpha = Alphabet(("a",))
    carrier, rel = sexp_space(3, alpha, 1)
    assert carrier == enumerate_trees(3, alpha, 1)
    shallow = enumerate_trees(2, alpha, 1)
    assert rel.pairs == {
        (b, scons(m, n)) for m in shallow for n in shallow for b in (m, n)
    }

    xs, ys = list_encode(["a", "b"], AB).tree, list_encode(["b"], AB).tree
    carrier, rel = subexpression_space([ys, xs, ys])
    assert carrier[:2] == [ys, xs] and len(set(carrier)) == len(carrier)
    assert rel.below(ys, xs)


def test_wfrec_memoizes_shared_subtrees():
    """Equal subtrees are one carrier element, whose body runs once and
    returns."""
    tree = list_encode(["a", "b", "a", "b"], AB).tree
    _, rel = subexpression_space([tree])
    calls, returns = [], []

    def size(t, rec):
        calls.append(t)
        shape = case_tree(t)
        value = 1
        if isinstance(shape, SconsShape):
            value += rec(shape.left) + rec(shape.right)
        returns.append(t)
        return value

    def plain_size(t):
        shape = case_tree(t)
        if isinstance(shape, SconsShape):
            return 1 + plain_size(shape.left) + plain_size(shape.right)
        return 1

    assert wfrec(RecSpec(rel, size), tree) == plain_size(tree)
    assert sorted(returns, key=rel.carrier.index) == list(rel.carrier)
    assert calls == returns


def test_wfrec_runs_each_body_once():
    """A root over m = 10^4 leaves whose body sums every leaf: m + 1 body
    runs, where re-running the root at each leaf it finds missing made
    2m + 1 and O(m^2) `rec` calls."""
    m = 10**4
    rel = WFRelation(range(m + 1), {(i, m) for i in range(m)})
    runs = []

    def body(x, rec):
        runs.append(x)
        return sum(rec(i) for i in range(m)) if x == m else 1

    assert wfrec(RecSpec(rel, body), m) == m
    assert len(runs) == m + 1


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


class ClosureWFRelation:
    """The closure-first relation that `WFRelation` replaced, kept as the
    oracle: the full transitive closure is built up front, a cycle shows
    as some (x, x) in it, and `below` is closure membership."""

    def __init__(self, carrier, pairs):
        elems = tuple(carrier)
        rel = frozenset(pairs)
        index = set(elems)
        if len(index) != len(elems):
            raise ValueError("carrier must be duplicate-free")
        for a, b in rel:
            if a not in index or b not in index:
                raise ValueError(f"pair ({a!r}, {b!r}) leaves the carrier")
        self.closure = search_closure(rel)
        for x in index:
            if (x, x) in self.closure:
                raise ValueError(f"relation is cyclic at {x!r}")
        self.carrier, self.pairs = elems, rel

    def below(self, y, x) -> bool:
        return (y, x) in self.closure


def oracle_wfrec(spec, arg):
    """The recursive `wfrec`, kept as the oracle for the bottom-up one."""
    rel = spec.relation
    if arg not in set(rel.carrier):
        raise ValueError(f"argument {arg!r} not in carrier")
    results = {}

    def eval_at(x):
        if x in results:
            return results[x]

        def rec(y, _x=x):
            if not rel.below(y, _x):
                raise IllFoundedCall(f"requested {y!r}, not strictly below {_x!r}")
            return eval_at(y)

        results[x] = spec.body(x, rec)
        return results[x]

    return eval_at(arg)


def random_relation(rng, n, cyclic):
    """Random pairs on n labels: ordered by a hidden ranking, hence
    acyclic, plus one back edge or self-loop when `cyclic`.  The carrier
    comes in another order than the ranking."""
    rank = rng.sample(range(10 * n), n)
    pairs = {(rank[i], rank[j]) for i, j in
             (sorted(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n)) if n > 1)}
    if cyclic:
        i, j = sorted(rng.choice(range(n)) for _ in range(2))
        pairs |= {(rank[k], rank[k + 1]) for k in range(i, j)} | {(rank[j], rank[i])}
    return rng.sample(rank, n), pairs


def test_wf_relation_matches_the_closure_oracle():
    """Same verdict; a named element lies on a cycle; `below` is closure
    membership on every pair of carrier elements; `closure` is equal."""
    rng = random.Random(31)
    verdicts = set()
    for case in range(300):
        carrier, pairs = random_relation(rng, rng.randint(1, 12), case % 3 == 0)
        try:
            oracle = ClosureWFRelation(carrier, pairs)
        except ValueError:
            with pytest.raises(ValueError, match=r"^relation is cyclic at (\d+)$") as exc:
                WFRelation(carrier, pairs)
            named = int(exc.value.args[0].rsplit(" ", 1)[1])
            assert (named, named) in transitive_closure(pairs), case
            verdicts.add("cyclic")
            continue
        rel = WFRelation(carrier, pairs)
        order = rng.sample(carrier, len(carrier))
        for x in order:
            for y in [*order, -1]:
                assert rel.below(y, x) == oracle.below(y, x), (case, y, x)
        assert rel.closure == oracle.closure
        verdicts.add("acyclic")
    assert verdicts == {"cyclic", "acyclic"}


def test_wf_relation_checks_the_carrier_first():
    for carrier, pairs, message in (
        ((1, 1), {(1, 1)}, "carrier must be duplicate-free"),
        ((1, 2), {(1, 3)}, "pair (1, 3) leaves the carrier"),
        ((1,), {(1, 1)}, "relation is cyclic at 1"),
    ):
        with pytest.raises(ValueError) as exc:
            WFRelation(carrier, pairs)
        assert str(exc.value) == message


def test_wf_relation_builds_its_closure_when_read(monkeypatch):
    """Construction and `below` build no closure; the first read of
    `closure` builds it through the module's `transitive_closure`, once."""
    built = []
    monkeypatch.setattr(wf, "transitive_closure", lambda pairs: built.append(pairs) or frozenset())
    rel = WFRelation(range(3000), {(i, i + 1) for i in range(2999)})
    assert rel.below(0, 2999) and not rel.below(2999, 0) and built == []
    assert rel.closure == rel.closure == frozenset() and built == [rel.pairs]


def test_wfrec_matches_the_recursive_oracle():
    """Bodies that ask for random elements, some not below their argument,
    some raising KeyError after they ask, and some catching what `rec`
    raises (KeyError only, or everything as a bare `except:` would): the
    same value, or the same exception, as the recursive wfrec."""
    rng = random.Random(37)
    outcomes = set()
    for case in range(300):
        carrier, pairs = random_relation(rng, rng.randint(1, 10), False)
        rel = WFRelation(carrier, pairs)
        asks = {x: rng.sample(carrier, rng.randint(0, min(3, len(carrier)))) for x in carrier}
        guarded = case % 4 != 0
        raises = {x for x in carrier if rng.random() < 0.2}
        catches = {x: rng.choice(((), KeyError, BaseException)) for x in carrier}

        def body(x, rec):
            total = x
            for y in asks[x]:
                if guarded and not rel.below(y, x):
                    continue
                try:
                    total += 3 * rec(y)
                except catches[x]:
                    total += 1
            if x in raises:
                raise KeyError(x)
            return total

        arg = rng.choice(carrier)
        results = []
        for run in (wfrec, oracle_wfrec):
            try:
                results.append(run(RecSpec(rel, body), arg))
            except (IllFoundedCall, KeyError) as exc:
                results.append((type(exc), str(exc)))
        assert results[0] == results[1], case
        outcomes.add(results[0][0] if isinstance(results[0], tuple) else int)
    assert outcomes == {int, IllFoundedCall, KeyError}


def test_wfrec_deep_chain_at_the_default_recursion_limit():
    """10^5 levels, each asking for the one below: no Python recursion."""
    import sys

    assert sys.getrecursionlimit() <= 10**4
    n = 10**5
    rel = WFRelation(range(n), {(i, i + 1) for i in range(n - 1)})
    spec = RecSpec(rel, lambda x, rec: 0 if x == 0 else 1 + rec(x - 1))
    assert wfrec(spec, n - 1) == n - 1


def test_wfrec_inside_a_body_keeps_each_recursion_apart():
    """A body that runs a second recursion, asking the outer `rec` from
    inside it, gets the outer values."""
    outer = WFRelation(range(5), {(i, i + 1) for i in range(4)})
    inner = WFRelation(("top",), ())

    def body(x, rec):
        if x == 0:
            return 1
        return wfrec(RecSpec(inner, lambda _, __: 2 * rec(x - 1)), "top")

    assert wfrec(RecSpec(outer, body), 4) == 16


def test_below_from_many_threads():
    """Threads that race on the same first searches get the closure's
    answers.  Tree elements hash and compare in Python, so a thread can be
    switched out in the middle of a search."""
    import sys
    import threading

    carrier, rel = subexpression_space([list_encode(["a", "b"] * 150, AB).tree])
    oracle = ClosureWFRelation(carrier, rel.pairs)
    wrong = []

    def ask(seed):
        rng = random.Random(seed)
        for _ in range(1000):
            y, x = rng.choice(carrier), rng.choice(carrier)
            if rel.below(y, x) != oracle.below(y, x):
                wrong.append((y, x))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# --------------------------------------------------------------------------
# The readers that took trees apart through case_tree's shape objects,
# kept as oracles for the ones that read the trie fields.


def shape_list_decode(t):
    elems = []
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


def shape_subexpression_space(roots):
    carrier = list(dict.fromkeys(roots))
    seen = set(carrier)
    pairs = set()
    for t in carrier:
        shape = case_tree(t)
        if isinstance(shape, SconsShape):
            for branch in (shape.left, shape.right):
                pairs.add((branch, t))
                if branch not in seen:
                    seen.add(branch)
                    carrier.append(branch)
    return carrier, frozenset(pairs)


def shape_is_sexp(t, alphabet, numeral_bound):
    if t.is_empty:
        return False
    stack = [t]
    while stack:
        try:
            shape = case_tree(stack.pop())
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


def random_wf_tree(rng, budget):
    """List encodings and near misses: cells whose heads are leaves,
    numerals or deeper trees, odd tags and nil payloads, cut and empty
    branches, and node sets mixing a root node with deeper ones."""
    roll = rng.random()
    if budget <= 0 or roll < 0.2:
        shared = rng.choice([leaf("a"), leaf("b"), leaf("z"), numb(0), numb(1), numb(2)])
        return shared if rng.random() < 0.5 else FiniteTree(shared.nodes)  # an equal copy
    if roll < 0.45:
        t = rng.choice([NIL_TREE, in0(numb(1)), in1(leaf("a")), numb(0)])
        for _ in range(rng.randint(0, 4)):
            head = leaf(rng.choice("abz")) if rng.random() < 0.7 else random_wf_tree(rng, budget - 1)
            t = cons_tree(head, t)
        return t
    if roll < 0.6:
        return in0(random_wf_tree(rng, budget - 1)) if rng.random() < 0.5 else in1(
            random_wf_tree(rng, budget - 1))
    if roll < 0.8:
        m = random_wf_tree(rng, budget - 1) if rng.random() < 0.9 else EMPTY_TREE
        n = random_wf_tree(rng, budget - 1) if rng.random() < 0.9 else EMPTY_TREE
        return branch_union(m, n)
    if roll < 0.9:
        return ntrunc(rng.randint(1, 8), random_wf_tree(rng, budget - 1))
    t = random_wf_tree(rng, budget - 1)
    if any(not n.pos for n in t):
        return t
    return FiniteTree(t.nodes + (Node((), UserAtom("a")),))


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except CoinductError as exc:
        return type(exc), str(exc)


def test_trie_readers_match_the_shape_readers():
    """list_decode, subexpression_space and is_sexp give the value, or the
    exception type and message, of their case_tree-based versions."""
    rng = random.Random(53)
    decoded = []
    for case in range(600):
        t = random_wf_tree(rng, rng.randint(0, 5))
        got = outcome_of(list_decode, t)
        assert got == outcome_of(shape_list_decode, t), case
        decoded.append(got if isinstance(got, tuple) else list)
        for alphabet, bound in ((AB, 2), (Alphabet(("a", "b", "z")), 1)):
            assert is_sexp(t, alphabet, bound) == shape_is_sexp(t, alphabet, bound), case
        roots = [t, random_wf_tree(rng, 2)]
        space = outcome_of(subexpression_space, roots)
        if isinstance(space, tuple) and isinstance(space[1], WFRelation):
            space = space[0], space[1].pairs
        assert space == outcome_of(shape_subexpression_space, roots), case
    kinds = set(decoded)
    assert list in kinds and (NotAList, "list head is not a leaf atom") in kinds
    assert (NotAList, "not an injection image") in kinds
    assert (NotAList, "left injection of a non-zero payload is not a list") in kinds
    assert (Malformed, "one branch is empty; not a constructor image") in kinds  # from a head
