"""Fixedpoint machinery: monotonicity, lfp/gfp, extremality, demo files."""

import random

import pytest

from conftest import random_monotone_operator
from coinduct.errors import CarrierTooLarge, LatticeFileError, NotMonotone
from coinduct.lattice import (
    Carrier,
    Subset,
    SubsetOperator,
    gfp,
    is_monotone,
    lfp,
    load_demo,
    verify_extremal,
)
from coinduct.trees import NIL_TREE, cons_tree, leaf, parse_tree_term

IDENTITY = SubsetOperator(lambda s: s, "identity")


def test_is_monotone_identity():
    carrier = Carrier(("x", "y", "z"))
    assert is_monotone(IDENTITY, carrier)


def test_is_monotone_complement_witness():
    carrier = Carrier(("x", "y"))
    comp = SubsetOperator(lambda s: s.complement(), "complement")
    verdict = is_monotone(comp, carrier)
    assert not verdict
    a, b = verdict.witness
    assert a <= b and not comp(a) <= comp(b)
    assert a.members() == () and b.members() == ("x",)


def test_is_monotone_sampled():
    carrier = Carrier(tuple(range(20)))
    rng = random.Random(7)
    assert is_monotone(IDENTITY, carrier, samples=50, rng=rng)
    comp = SubsetOperator(lambda s: s.complement(), "complement")
    assert not is_monotone(comp, carrier, samples=200, rng=rng)


def _monotone_all_pairs(values, n):
    """The definition, kept as the oracle: values[A] <= values[B] for every
    A <= B, each B walking all of its submasks A."""
    for b in range(1 << n):
        a = b
        while True:
            if values[a] & ~values[b]:
                return False
            if a == 0:
                break
            a = (a - 1) & b
    return True


def test_is_monotone_covering_pairs_match_all_pairs():
    """Raw random tables, random monotone tables, and monotone tables
    with one bit flipped, on carriers of 0 to 6 elements."""
    rng = random.Random(59)
    for case in range(400):
        carrier = Carrier(tuple(range(rng.randint(0, 6))))
        n = len(carrier)
        if case % 3 == 0:
            values = [rng.getrandbits(n) for _ in range(1 << n)]
        else:
            mono = random_monotone_operator(rng, carrier)
            values = [mono(Subset(carrier, bits)).bits for bits in range(1 << n)]
            if case % 3 == 2 and n:
                values[rng.randrange(1 << n)] ^= 1 << rng.randrange(n)
        op = SubsetOperator(lambda s, c=carrier, v=values: Subset(c, v[s.bits]))
        verdict = is_monotone(op, carrier)
        assert bool(verdict) == _monotone_all_pairs(values, n), case
        if not verdict:
            a, b = verdict.witness
            assert a <= b and not op(a) <= op(b), case


def test_is_monotone_carrier_bound():
    carrier = Carrier(tuple(range(13)))
    with pytest.raises(CarrierTooLarge):
        is_monotone(IDENTITY, carrier)


def test_lfp_identity_is_empty():
    carrier = Carrier(("x", "y", "z"))
    assert lfp(IDENTITY, carrier).members() == ()


def fin_hand_iteration(base):
    """Independent oracle: iterate the finite-subsets operator on raw sets."""
    current = set()
    while True:
        new = {frozenset()} | {y | {x} for y in current for x in base}
        if new == current:
            return current
        current = new


def test_lfp_fin_operator():
    elems = ("{}", "{a}", "{b}", "{a,b}")
    carrier = Carrier(elems)
    doc = {
        "carrier": list(elems),
        "operator": {"name": "fin", "base": ["a", "b"]},
        "mode": "lfp",
    }
    _, op, _ = load_demo(doc)
    result = lfp(op, carrier)
    expected = fin_hand_iteration({"a", "b"})
    as_keys = {"{" + ",".join(sorted(s)) + "}" for s in expected}
    assert set(result.members()) == as_keys == set(elems)
    assert verify_extremal(op, carrier, result, "least")


def test_lfp_list_fun_restricted():
    lists = [NIL_TREE]
    for _ in range(2):
        lists.append(cons_tree(leaf("a"), lists[-1]))
    junk = leaf("a")
    elems = ["nil", "cons(leaf(a),nil)", "cons(leaf(a),cons(leaf(a),nil))", "leaf(a)", "numb(0)"]
    doc = {
        "carrier": elems,
        "operator": {"name": "list_fun", "atoms": ["a"]},
        "mode": "lfp",
    }
    carrier, op, _ = load_demo(doc)
    assert is_monotone(op, carrier)
    result = lfp(op, carrier)
    assert set(result.members()) == set(elems[:3])
    assert verify_extremal(op, carrier, result, "least")


def test_gfp_identity_is_full():
    carrier = Carrier(("x", "y", "z"))
    assert set(gfp(IDENTITY, carrier).members()) == {"x", "y", "z"}


def test_gfp_intersection_operator():
    carrier = Carrier(("x", "y"))
    keep_x = SubsetOperator(lambda s: s & Subset.of(carrier, ("x",)), "keep-x")
    result = gfp(keep_x, carrier)
    assert result.members() == ("x",)
    assert verify_extremal(keep_x, carrier, result, "greatest")


def test_verify_extremal_examples():
    carrier = Carrier(("x",))
    empty = Subset.empty(carrier)
    assert verify_extremal(IDENTITY, carrier, empty, "least")
    verdict = verify_extremal(IDENTITY, carrier, Subset.full(carrier), "least")
    assert not verdict
    assert verdict.witness.members() == ()
    with pytest.raises(CarrierTooLarge):
        verify_extremal(IDENTITY, Carrier(tuple(range(13))), empty, "least")


def test_non_monotone_rejected_at_runtime():
    carrier = Carrier(("x", "y"))
    comp = SubsetOperator(lambda s: s.complement(), "complement")
    with pytest.raises(NotMonotone):
        lfp(comp, carrier)
    with pytest.raises(NotMonotone):
        gfp(comp, carrier)


def test_fixedpoint_property_random_operators():
    rng = random.Random(42)
    for size in (1, 2, 3, 4, 5):
        carrier = Carrier(tuple(f"e{i}" for i in range(size)))
        for _ in range(20):
            op = random_monotone_operator(rng, carrier)
            lo, hi = lfp(op, carrier), gfp(op, carrier)
            assert op(lo).bits == lo.bits
            assert op(hi).bits == hi.bits
            assert lo <= hi
            assert verify_extremal(op, carrier, lo, "least")
            assert verify_extremal(op, carrier, hi, "greatest")


def test_duality():
    rng = random.Random(9)
    for size in (1, 2, 3, 4):
        carrier = Carrier(tuple(f"e{i}" for i in range(size)))
        for _ in range(25):
            op = random_monotone_operator(rng, carrier)
            assert gfp(op, carrier) == lfp(op.dual(), carrier).complement()
            assert lfp(op, carrier) == gfp(op.dual(), carrier).complement()


def test_weak_and_strong_coinduction_soundness():
    rng = random.Random(11)
    carrier = Carrier(tuple(f"e{i}" for i in range(5)))
    for _ in range(40):
        op = random_monotone_operator(rng, carrier)
        hi = gfp(op, carrier)
        for bits in range(1 << 5):
            x = Subset(carrier, bits)
            if x <= op(x):
                assert x <= hi
            if x <= op(x | hi):
                assert x <= hi


def test_lfp_induction_rule():
    rng = random.Random(13)
    carrier = Carrier(tuple(f"e{i}" for i in range(4)))
    for _ in range(40):
        op = random_monotone_operator(rng, carrier)
        lo = lfp(op, carrier)
        for bits in range(1 << 4):
            p = Subset(carrier, bits)
            if op(lo & p) <= p:
                assert lo <= p


def test_table_operator():
    carrier = Carrier(("x", "y"))
    doc = {
        "carrier": ["x", "y"],
        "operator": {
            "name": "table",
            "map": {"": ["x"], "x": ["x"], "y": ["x", "y"], "x,y": ["x", "y"]},
        },
        "mode": "lfp",
    }
    carrier2, op, mode = load_demo(doc)
    assert mode == "lfp"
    assert lfp(op, carrier2).members() == ("x",)


def test_load_demo_validation():
    with pytest.raises(LatticeFileError):
        load_demo({"carrier": ["x"], "operator": "nope", "mode": "lfp"})
    with pytest.raises(LatticeFileError):
        load_demo({"carrier": ["x"], "operator": "identity", "mode": "both"})
    with pytest.raises(LatticeFileError):
        load_demo({"carrier": ["x", "x"], "operator": "identity", "mode": "lfp"})
    with pytest.raises(LatticeFileError):
        load_demo(
            {
                "carrier": ["x", "y"],
                "operator": {"name": "table", "map": {"": []}},
                "mode": "lfp",
            }
        )
    with pytest.raises(LatticeFileError):
        load_demo(
            {
                "carrier": ["notaset"],
                "operator": {"name": "fin", "base": ["a"]},
                "mode": "lfp",
            }
        )
    with pytest.raises(LatticeFileError):
        load_demo(
            {
                "carrier": ["nil", "???"],
                "operator": {"name": "list_fun", "atoms": ["a"]},
                "mode": "lfp",
            }
        )
    with pytest.raises(LatticeFileError, match=r"^demo: top level must be an object$"):
        load_demo([{"carrier": ["x"], "operator": "identity", "mode": "lfp"}])
    with pytest.raises(LatticeFileError, match=r"^carrier: must be an array of strings$"):
        load_demo({"carrier": "x", "operator": "identity", "mode": "lfp"})
    for name, param in (("fin", "base"), ("list_fun", "atoms")):
        with pytest.raises(LatticeFileError, match=rf"^operator\.{param}: must be an array of strings$"):
            load_demo({"carrier": ["x"], "operator": {"name": name, param: "a"}, "mode": "lfp"})
    with pytest.raises(LatticeFileError, match=r"^operator\.map: must be an object$"):
        load_demo({"carrier": ["x"], "operator": {"name": "table", "map": [["", []]]}, "mode": "lfp"})
    for table, key in (({"zz": []}, "zz"), ({"": ["zz"], "x": []}, "")):
        with pytest.raises(LatticeFileError,
                           match=rf"^operator\.map\.'{key}': 'zz' not in carrier$"):
            load_demo({"carrier": ["x"], "operator": {"name": "table", "map": table}, "mode": "lfp"})


@pytest.mark.parametrize("key, canonical", [("{b,a}", "{a,b}"), ("{a,a}", "{a}"), ("{,a}", "{a}")])
def test_load_demo_rejects_non_canonical_fin_element(key, canonical):
    """`fin` only ever produces sorted keys, so any other spelling would
    silently drop out of every fixedpoint."""
    doc = {"carrier": ["{}", "{a}", key], "operator": {"name": "fin", "base": ["a", "b"]},
           "mode": "lfp"}
    with pytest.raises(LatticeFileError) as exc:
        load_demo(doc)
    assert str(exc.value) == f"carrier: element {key!r} is not written as {canonical!r}"


def test_load_demo_rejects_second_term_for_one_tree():
    """Two `list_fun` terms for one tree would leave only one of them
    reachable by the operator."""
    doc = {"carrier": ["nil", "cons(leaf(a),nil)", "cons( leaf(a) , nil )"],
           "operator": {"name": "list_fun", "atoms": ["a"]}, "mode": "lfp"}
    with pytest.raises(LatticeFileError) as exc:
        load_demo(doc)
    assert str(exc.value) == (
        "carrier: element 'cons( leaf(a) , nil )' is the same tree as 'cons(leaf(a),nil)'"
    )


def oracle_union_operator(carrier, base, succ):
    """Z |-> base | union of succ(y) for y in Z, on carrier elements; what
    the operators produce outside the carrier drops out."""
    def bits(xs):
        return Subset.of(carrier, {x for x in xs if x in carrier}).bits

    base_bits, succ_bits = bits(base), [bits(succ(y)) for y in carrier.elements]
    return lambda z: base_bits | _or(m for i, m in enumerate(succ_bits) if z.bits >> i & 1)


def _or(masks):
    out = 0
    for m in masks:
        out |= m
    return out


def oracle_fin(carrier, base):
    """The string-building `fin` operator: each successor key is written
    out, sorted, and looked up."""
    sets = {key: frozenset(key[1:-1].split(",") if key != "{}" else []) for key in carrier.elements}
    return oracle_union_operator(
        carrier, ["{}"], lambda y: ["{" + ",".join(sorted(sets[y] | {x})) + "}" for x in base])


def oracle_list_fun(carrier, atoms):
    """The tree-building `list_fun` operator: cons(leaf(a), t) is built for
    every carrier tree t and atom a, and looked up."""
    trees = {x: parse_tree_term(x) for x in carrier.elements}
    by_tree = {t: x for x, t in trees.items()}
    return oracle_union_operator(
        carrier, [by_tree.get(NIL_TREE)],
        lambda y: [by_tree.get(cons_tree(leaf(a), trees[y])) for a in atoms])


def _same_operator(doc, oracle, param):
    carrier, op, _ = load_demo(doc)
    expected = oracle(carrier, doc["operator"][param])
    n = len(carrier)
    subsets = range(1 << n) if n <= 8 else [0, (1 << n) - 1] + [random.Random(n).getrandbits(n)
                                                                for _ in range(30)]
    for bits in subsets:
        assert op(Subset(carrier, bits)).bits == expected(Subset(carrier, bits)), (doc, bits)
    oracle_op = SubsetOperator(lambda z: Subset(carrier, expected(z)))
    for fix in (lfp, gfp):
        assert fix(op, carrier) == fix(oracle_op, carrier), doc


def test_fin_operator_matches_the_string_oracle():
    """Random carriers, full powersets or not, in random order, with base
    symbols inside and outside the universe, empty, or holding a comma."""
    rng = random.Random(61)
    for case in range(150):
        universe = rng.sample("abcdef", rng.randint(0, 4))
        sets = [sorted(x for i, x in enumerate(universe) if bits >> i & 1)
                for bits in range(1 << len(universe))]
        if case % 2:
            sets = rng.sample(sets, rng.randint(0, len(sets)))
        rng.shuffle(sets)
        pool = universe + ["z", "", "a,b", "b,c", "a,c,d", ",a"]
        base = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        doc = {"carrier": ["{" + ",".join(s) + "}" for s in sets],
               "operator": {"name": "fin", "base": base}, "mode": "lfp"}
        _same_operator(doc, oracle_fin, "base")


LIST_FUN_JUNK = ["leaf(a)", "leaf(z)", "numb(0)", "numb(1)", "in0(numb(1))", "in1(leaf(a))",
                 "in0(nil)", "scons(leaf(a),nil)", "cons(numb(0),nil)", "cons(nil,nil)",
                 "cons(leaf(a),leaf(b))", "cons(leaf(b),numb(0))", "in1(scons(leaf(a),nil))"]


def test_list_fun_operator_matches_the_tree_oracle():
    """Random carriers of list terms over the atoms and beyond, plus terms
    that are no list, such as leaf(a), or are a list cell with a non-atom
    head or a non-list tail."""
    rng = random.Random(67)
    for case in range(150):
        atoms = rng.sample("abc", rng.randint(0, 2))
        lists = {tuple(rng.choice("abz") for _ in range(rng.randint(0, 4))) for _ in range(12)}
        terms = {_list_term(xs) for xs in lists} | set(rng.sample(LIST_FUN_JUNK, rng.randint(0, 5)))
        terms.discard("in1(scons(leaf(a),nil))" if "cons(leaf(a),nil)" in terms else None)
        carrier = rng.sample(sorted(terms), len(terms))
        doc = {"carrier": carrier, "operator": {"name": "list_fun", "atoms": atoms},
               "mode": "lfp"}
        _same_operator(doc, oracle_list_fun, "atoms")


def _list_term(xs):
    text = "nil"
    for x in reversed(xs):
        text = f"cons(leaf({x}),{text})"
    return text
