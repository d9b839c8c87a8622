"""Bisimulation certificates: checking, search, and the gfp cross-check."""

import json
import random

import pytest

from conftest import CountingFun, random_machine, rename_seeds
from coinduct import bisim, lattice
from coinduct.bisim import (
    BoundExceeded,
    Certificate,
    Counterexample,
    bisimilarity_gfp,
    closure_check,
    diag_rel,
    eq_upto,
    find_bisimulation,
    rel_combine,
    verify_certificate,
)
from coinduct.colist import (
    Alphabet,
    AtomFun,
    StepFn,
    cons,
    corec,
    lconst,
    lmap,
    STATE_BOUND,
    nil,
    state_key,
)
from coinduct.errors import CertificateError, RootMissing, UnresolvableKey, Verdict
from coinduct.trees import in0, leaf, numb, oplus, otimes, scons

AB = Alphabet(("a", "b"))
SWAP = AtomFun("swap", {"a": "b", "b": "a"})


def test_diag_rel():
    trees = frozenset({leaf("a"), numb(0)})
    assert diag_rel(trees) == frozenset({(leaf("a"), leaf("a")), (numb(0), numb(0))})
    assert diag_rel(frozenset()) == frozenset()
    assert frozenset(x for x, _ in diag_rel(trees)) == trees


def test_rel_combine():
    m, m2 = leaf("a"), leaf("b")
    n, n2 = numb(0), numb(1)
    prod = rel_combine("product", frozenset({(m, m2)}), frozenset({(n, n2)}))
    assert prod == frozenset({(scons(m, n), scons(m2, n2))})
    sm = rel_combine("sum", frozenset({(m, m2)}), frozenset())
    assert sm == frozenset({(in0(m), in0(m2))})


def test_rel_combine_fst_projection_laws():
    rng = random.Random(3)
    pool = [leaf("a"), leaf("b"), numb(0), numb(1), scons(leaf("a"), numb(0))]
    for _ in range(25):
        r = frozenset(
            (rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4))
        )
        s = frozenset(
            (rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 4))
        )
        fst_r = frozenset(x for x, _ in r)
        fst_s = frozenset(x for x, _ in s)
        assert frozenset(x for x, _ in rel_combine("product", r, s)) == otimes(
            fst_r, fst_s
        )
        assert frozenset(x for x, _ in rel_combine("sum", r, s)) == oplus(
            fst_r, fst_s
        )


def test_closure_check():
    assert closure_check((nil(), nil()), frozenset(), "weak")
    const = lconst("a", AB)
    r = frozenset({(state_key(const), state_key(const))})
    assert closure_check((const, cons("a", const, AB)), r, "weak")
    verdict = closure_check((const, lconst("b", AB)), frozenset(), "weak")
    assert not verdict and verdict.reason == "heads differ"
    verdict = closure_check((const, cons("a", const, AB)), frozenset(), "strong")
    assert verdict  # tails share the key CONST(a)


def test_verify_certificate():
    const = lconst("a", AB)
    wrapped = cons("a", const, AB)
    root = (state_key(const), state_key(wrapped))
    self_pair = (state_key(const), state_key(const))
    full = Certificate("weak", frozenset({root, self_pair}), root)
    assert verify_certificate(full, const, wrapped)

    reduced_weak = Certificate("weak", frozenset({root}), root)
    verdict = verify_certificate(reduced_weak, const, wrapped)
    assert not verdict and verdict.reason == "tail pair escapes the relation"

    reduced_strong = Certificate("strong", frozenset({root}), root)
    assert verify_certificate(reduced_strong, const, wrapped)

    with pytest.raises(RootMissing):
        verify_certificate(full, wrapped, const)

    bogus = Certificate("weak", frozenset({root, ("CONST(zz)", "CONST(zz)")}), root)
    with pytest.raises(UnresolvableKey):
        verify_certificate(bogus, const, wrapped)


def test_unresolvable_right_key():
    const = lconst("a", AB)
    root = (state_key(const), state_key(const))
    bogus = Certificate("weak", frozenset({root, (root[0], "CONST(zz)")}), root)
    with pytest.raises(UnresolvableKey, match=r"CONST\(zz\)"):
        verify_certificate(bogus, const, const)


def _ring(n):
    seeds = [f"s{i}" for i in range(n)]
    return StepFn("big", seeds, {s: ("a", seeds[(i + 1) % n]) for i, s in enumerate(seeds)})


def test_verify_certificate_beyond_the_state_bound():
    """Replay walks each list only as far as the certificate can reach, so
    the certificates found on a ring larger than STATE_BOUND verify."""
    big, alpha = _ring(12_000), Alphabet(("a",))
    assert len(big.seeds) > STATE_BOUND
    ring = corec("s0", big)
    for left, size in ((ring, 1), (cons("a", cons("a", corec("s2", big), alpha), alpha), 2)):
        cert = find_bisimulation(left, ring, kind="strong")
        assert len(cert.pairs) == size
        assert verify_certificate(cert, left, ring)


def test_verify_certificate_key_past_the_walk():
    """A key further from the queried lists than the certificate has pairs
    cannot take part in the proof, and is unresolvable."""
    ring = corec("s0", _ring(10))
    root = ("M(big,s0)", "M(big,s0)")
    far = Certificate("strong", frozenset({root, ("M(big,s5)", "M(big,s5)")}), root)
    with pytest.raises(UnresolvableKey, match=r"M\(big,s5\)"):
        verify_certificate(far, ring, ring)
    near = Certificate("strong", frozenset({root, ("M(big,s2)", "M(big,s2)")}), root)
    assert verify_certificate(near, ring, ring)


def test_certificate_validation_and_roundtrip(tmp_path):
    root = ("CONST(a)", "CONST(a)")
    with pytest.raises(CertificateError):
        Certificate("weird", frozenset({root}), root)
    with pytest.raises(CertificateError):
        Certificate("weak", frozenset(), root)
    cert = Certificate("strong", frozenset({root}), root)
    doc = cert.to_dict()
    assert Certificate.from_dict(doc) == cert
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    assert Certificate.load(str(path)) == cert
    with pytest.raises(CertificateError):
        Certificate.from_dict({"kind": "weak", "root": ["a"], "pairs": []})
    with pytest.raises(CertificateError, match=r"^kind: must be \"weak\" or \"strong\", got 'x'$"):
        Certificate.from_dict({"kind": "x", "root": list(root), "pairs": [list(root)]})


def test_certificate_from_dict_needs_an_object():
    with pytest.raises(CertificateError, match="^certificate: top level must be an object$"):
        Certificate.from_dict([["CONST(a)", "CONST(a)"]])


def test_find_bisimulation_needs_a_positive_budget():
    const = lconst("a", AB)
    with pytest.raises(ValueError, match="max_pairs must be at least 1"):
        find_bisimulation(const, const, max_pairs=0)


SHAPE_FAULTS = [
    # (kind, pairs, root, message): each fault is reported ahead of those after it
    ("x", 3, ["a"], "root: must be a pair of keys"),
    ("x", 3, [["a"], "b"], "root: must be a pair of keys"),
    ("x", 3, ["a", "b"], "pairs: must be an array of key pairs"),
    ("x", [["a", "b"], ["c", ["d"]]], ["a", "b"], "pairs[1]: must be a pair of keys"),
    ("x", [["a", "c"]], ["a", "b"], "kind: must be \"weak\" or \"strong\", got 'x'"),
    (None, [["a", "b"]], ["a", "b"], "kind: must be \"weak\" or \"strong\", got None"),
    ("weak", [["a", "c"]], ["a", "b"], "root: must be among the certificate pairs"),
]


@pytest.mark.parametrize("kind, pairs, root, message", SHAPE_FAULTS, ids=[
    "short root", "nested root", "pairs not array", "nested pair", "bad kind", "no kind",
    "root outside"])
def test_certificate_shape_checks(tmp_path, kind, pairs, root, message):
    """The constructor owns the shape checks, so a library caller and a
    certificate file get the same error, never a TypeError."""
    with pytest.raises(CertificateError) as direct:
        Certificate(kind, pairs, root)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"kind": kind, "pairs": pairs, "root": root}))
    with pytest.raises(CertificateError) as loaded:
        Certificate.load(str(path))
    assert str(direct.value) == str(loaded.value) == message


def test_certificate_normalises_pairs():
    with pytest.raises(CertificateError, match="^root: must be a pair of keys$"):
        Certificate("weak", frozenset({("a", "b")}), (["a"], "b"))
    with pytest.raises(CertificateError, match=r"^pairs\[0\]: must be a pair of keys$"):
        Certificate("weak", [{"a", "b"}], ("a", "b"))
    cert = Certificate("weak", [["a", "b"], ("c", "d"), ("a", "b")], ["a", "b"])
    assert type(cert.pairs) is frozenset and cert.root == ("a", "b")
    assert cert.pairs == {("a", "b"), ("c", "d")}
    assert cert == Certificate("weak", frozenset({("a", "b"), ("c", "d")}), ("a", "b"))
    assert hash(cert) == hash(Certificate("weak", {("c", "d"), ("a", "b")}, ("a", "b")))


def test_find_bisimulation_outcomes():
    const = lconst("a", AB)
    outcome = find_bisimulation(const, cons("a", const, AB), 10)
    assert isinstance(outcome, Certificate) and len(outcome.pairs) == 2
    assert verify_certificate(outcome, const, cons("a", const, AB))

    outcome = find_bisimulation(const, lconst("b", AB), 10)
    assert outcome == Counterexample(0, "heads differ", ("CONST(a)", "CONST(b)"))

    outcome = find_bisimulation(const, cons("a", const, AB), 1, kind="weak")
    assert outcome == BoundExceeded(1)

    prefix = cons("a", cons("a", lconst("b", AB), AB), AB)
    other = cons("a", cons("a", lconst("a", AB), AB), AB)
    outcome = find_bisimulation(prefix, other, 10)
    assert outcome == Counterexample(2, "heads differ", ("CONST(b)", "CONST(a)"))

    outcome = find_bisimulation(cons("a", nil(), AB), nil(), 10)
    assert outcome == Counterexample(0, "nil/cons mismatch", ("CONS(a,NIL)", "NIL"))


def test_counterexample_carries_diverging_keys():
    const = lconst("a", AB)
    chain = cons("a", cons("a", cons("a", const, AB), AB), AB)
    perturbed = cons("a", cons("a", cons("b", const, AB), AB), AB)
    for kind in ("weak", "strong"):
        outcome = find_bisimulation(chain, perturbed, 10, kind=kind)
        assert outcome == Counterexample(
            2, "heads differ", ("CONS(a,CONST(a))", "CONS(b,CONST(a))")
        )
    outcome = find_bisimulation(lmap(SWAP, perturbed), lmap(SWAP, chain), 10)
    assert outcome.keys == ("MAP(swap,CONS(b,CONST(a)))", "MAP(swap,CONS(a,CONST(a)))")


def test_deep_chain_bisimulation_without_recursion():
    const = lconst("a", AB)
    chain = const
    for _ in range(2000):
        chain = cons("a", chain, AB)
    outcome = find_bisimulation(chain, const, 10_000, kind="weak")
    assert isinstance(outcome, Certificate) and len(outcome.pairs) == 2001
    assert verify_certificate(outcome, chain, const)


def test_find_bisimulation_strong_closes_on_diag():
    const = lconst("a", AB)
    wrapped = cons("a", const, AB)
    strong = find_bisimulation(const, wrapped, 10, kind="strong")
    assert isinstance(strong, Certificate) and len(strong.pairs) == 1
    assert verify_certificate(strong, const, wrapped)


def test_map_composition_example(defs):
    g, h, gh = defs.functions["g"], defs.functions["h"], defs.functions["gh"]
    const = lconst("a", defs.alphabet)
    left = lmap(g, lmap(h, const))
    right = lmap(gh, const)
    outcome = find_bisimulation(left, right, 10)
    assert isinstance(outcome, Certificate)
    assert verify_certificate(outcome, left, right)


def test_eq_upto():
    assert eq_upto(0, lconst("a", AB), lconst("b", AB))
    const = lconst("a", AB)
    assert eq_upto(5, const, cons("a", const, AB))
    verdict = eq_upto(1, cons("a", nil(), AB), nil())
    assert not verdict and verdict.witness == 0


def test_synchronized_observation_counts():
    """Each synchronized step observes both lists once, and no step runs
    past the first disagreement."""
    f = CountingFun(SWAP)
    l, b = lmap(f, lconst("a", AB)), lconst("b", AB)
    assert eq_upto(7, l, b) and f.calls == 7
    f.calls = 0
    assert eq_upto(7, l, lconst("a", AB)) == Verdict(False, "heads differ", 0)
    assert f.calls == 1
    f.calls = 0
    assert eq_upto(7, l, cons("b", nil(), AB)) == Verdict(False, "nil/cons mismatch", 1)
    assert f.calls == 2
    f.calls = 0
    cert = find_bisimulation(l, b)
    assert cert.pairs == {("MAP(swap,CONST(a))", "CONST(b)")} and f.calls == 1
    f.calls = 0
    assert verify_certificate(cert, l, b) and f.calls == 2
    f.calls = 0
    assert closure_check((l, b), cert.pairs, "weak") and f.calls == 1


def test_strong_subsumes_weak():
    rng = random.Random(31)
    for i in range(30):
        m = random_machine(rng, f"m{i}")
        m2 = rename_seeds(m, "r_")
        l1, l2 = corec(m.seeds[0], m), corec(m2.seeds[0], m2)
        outcome = find_bisimulation(l1, l2, 1000, kind="weak")
        assert isinstance(outcome, Certificate)
        strong = Certificate("strong", outcome.pairs, outcome.root)
        assert verify_certificate(strong, l1, l2)


def test_bisimilarity_gfp_examples():
    m1 = StepFn("one", ("s",), {"s": ("a", "s")})
    m2 = StepFn("cyc", ("t0", "t1"), {"t0": ("a", "t1"), "t1": ("a", "t0")})
    rel = bisimilarity_gfp(m1, m2)
    assert rel == _kleene_gfp(m1, m2) == frozenset(
        {("M(one,s)", "M(cyc,t0)"), ("M(one,s)", "M(cyc,t1)")}
    )

    m3 = StepFn("bee", ("t",), {"t": ("b", "t")})
    assert bisimilarity_gfp(m1, m3) == frozenset()


def test_bisimilarity_gfp_verification_carrier_bound():
    from coinduct.errors import CarrierTooLarge

    m1 = StepFn("big", tuple("abcd"), {s: ("a", s) for s in "abcd"})
    m2 = StepFn("big2", tuple("wxyz"), {s: ("a", s) for s in "wxyz"})
    assert len(bisimilarity_gfp(m1, m2)) == 16  # fine without verification
    op, carrier = _llistd_fun(m1, m2)
    with pytest.raises(CarrierTooLarge):
        lattice.verify_extremal(op, carrier, lattice.gfp(op, carrier), "greatest")
    assert _kleene_gfp(m1, m2) == bisimilarity_gfp(m1, m2)


def test_bisimilarity_gfp_agrees_with_search():
    rng = random.Random(37)
    for i in range(20):
        m1 = random_machine(rng, f"p{i}", max_seeds=4)
        m2 = random_machine(rng, f"q{i}", max_seeds=4)
        rel = bisimilarity_gfp(m1, m2)
        for s in m1.seeds:
            for t in m2.seeds:
                found = find_bisimulation(corec(s, m1), corec(t, m2), 10_000)
                in_rel = (f"M({m1.name},{s})", f"M({m2.name},{t})") in rel
                assert in_rel == isinstance(found, Certificate)


def _llistd_fun(m1, m2):
    """The one-step operator `llistd_fun` on the lattice of all seed
    pairs, with that lattice's carrier."""
    pairs = [(s, t) for s in m1.seeds for t in m2.seeds]
    carrier = lattice.Carrier(pairs)

    def close(z):
        kept = []
        for s, t in pairs:
            a1, a2 = m1.step(s), m2.step(t)
            if a1 is None and a2 is None:
                kept.append((s, t))
            elif a1 is not None and a2 is not None and a1[0] == a2[0]:
                if (a1[1], a2[1]) in z:
                    kept.append((s, t))
        return lattice.Subset.of(carrier, kept)

    return lattice.SubsetOperator(close, name="llistd_fun"), carrier


def _kleene_gfp(m1, m2):
    """The Kleene-iteration gfp of `llistd_fun` over all seed pairs: the
    literal definition, kept as the oracle for the refinement.  On
    carriers small enough to enumerate it is checked to be the greatest
    fixedpoint."""
    op, carrier = _llistd_fun(m1, m2)
    result = lattice.gfp(op, carrier)
    if len(carrier) <= lattice.EXHAUSTIVE_BOUND:
        verdict = lattice.verify_extremal(op, carrier, result, "greatest")
        assert verdict, verdict.reason
    return frozenset(
        (f"M({m1.name},{s})", f"M({m2.name},{t})") for s, t in result.members()
    )


def _lasso(name, tail, cycle):
    """Seeds emitting `tail` then `cycle` forever: a lasso, stop-free."""
    emits = list(tail) + list(cycle)
    seeds = [f"{name}{i}" for i in range(len(emits))]
    nxt = list(range(1, len(emits))) + [len(tail)]
    return StepFn(name, seeds, {seeds[i]: (emits[i], seeds[nxt[i]]) for i in range(len(emits))})


def _random_pair(rng, i):
    """Two machines of up to 60 seeds over one or two symbols: random
    step tables with stops (all-stop and stop-free included), lassos, a
    seed-renamed copy, or one machine twice."""
    syms = ("a", "b")[: rng.randint(1, 2)]
    n = rng.choice((4, 12, 30, 60))
    kind = i % 5
    if kind == 3:
        def lasso(name):
            return _lasso(name, rng.choices(syms, k=rng.randint(0, n // 2)),
                          rng.choices(syms, k=rng.randint(1, n // 2)))
        return lasso("p"), lasso("q")
    stop = rng.choice((0.0, 0.05, 0.3, 1.0))
    m1 = random_machine(rng, "p", n, syms, stop)
    if kind == 0:
        return m1, m1
    if kind == 1:
        return m1, rename_seeds(m1, "r_")
    return m1, random_machine(rng, "q", n, syms, stop)


def test_bisimilarity_gfp_matches_kleene_oracle():
    rng = random.Random(43)
    for i in range(600):
        m1, m2 = _random_pair(rng, i)
        assert bisimilarity_gfp(m1, m2) == _kleene_gfp(m1, m2), (i, m1.table, m2.table)


def test_bisimilarity_gfp_at_scale(monkeypatch):
    """The blocks are checked before the relation is built from them, so a
    wrong `_refine` fails here at once instead of pairing up to 10^8 keys:
    chain and ring seeds never share a block, and each lasso seed shares
    its block with its renamed copy alone."""
    refine, paired = bisim._refine, False

    def checked(outputs, succ):
        blocks = refine(outputs, succ)
        half = len(succ) // 2
        for block in blocks:
            left = sum(i < half for i in block)
            if paired:
                assert (left, len(block)) == (1, 2), sorted(block)[:4]
            else:
                assert left in (0, len(block)), sorted(block)[:4]
        return blocks

    monkeypatch.setattr(bisim, "_refine", checked)
    n = 10_000
    chain = [f"c{i}" for i in range(n)]
    ring = [f"r{i}" for i in range(n)]
    m1 = StepFn("chain", chain, {s: ("a", chain[i + 1]) if i + 1 < n else None
                                 for i, s in enumerate(chain)})
    m2 = StepFn("ring", ring, {s: ("a", ring[(i + 1) % n]) for i, s in enumerate(ring)})
    assert bisimilarity_gfp(m1, m2) == frozenset()

    # the tail emits z and the cycle a^(c-1) b, so no two seeds agree
    t = n // 3
    paired = True
    m1 = _lasso("s", "z" * t, "a" * (n - t - 1) + "b")
    m2 = rename_seeds(m1, "r_")
    assert bisimilarity_gfp(m1, m2) == frozenset(
        (f"M(s,{s})", f"M(r_s,r_{s})") for s in m1.seeds
    )


def _moore(outputs, succ):
    """Naive Moore refinement, the oracle for `_refine`: recompute every
    state's signature (its class, its successor's class) until the class
    count stops changing."""
    cls = list(outputs)
    while True:
        sigs = [(cls[i], None if j is None else cls[j]) for i, j in enumerate(succ)]
        ids = {sig: k for k, sig in enumerate(dict.fromkeys(sigs))}
        if len(ids) == len(set(cls)):
            break
        cls = [ids[sig] for sig in sigs]
    blocks = {}
    for i, c in enumerate(cls):
        blocks.setdefault(c, set()).add(i)
    return list(blocks.values())


def _random_functional_graph(rng):
    """Up to 300 states over one or two symbols: stops (down to one in
    the whole graph), self-loops, runs of chain steps (up to one long
    chain), and successors drawn from a few hub states so that many
    states share a tail."""
    n = rng.randint(1, 300)
    syms = ("a", "b")[: rng.randint(1, 2)]
    stop = rng.choice((0.0, 1 / n, 0.02, 0.2))
    loop, chain = rng.choice((0.0, 0.05)), rng.choice((rng.random(), 1.0))
    hubs = rng.randint(1, n)
    outputs, succ = [], []
    for i in range(n):
        r = rng.random()
        if r < stop:
            outputs.append(None)
            succ.append(None)
            continue
        outputs.append(rng.choice(syms))
        if r < stop + loop:
            succ.append(i)
        elif r < stop + loop + chain and i + 1 < n:
            succ.append(i + 1)
        else:
            succ.append(rng.randrange(hubs))
    return outputs, succ


def test_refine_matches_naive_moore():
    rng = random.Random(53)
    for case in range(300):
        outputs, succ = _random_functional_graph(rng)
        blocks = bisim._refine(outputs, succ)
        assert sum(map(len, blocks)) == len(succ), case
        assert {frozenset(b) for b in blocks} == {
            frozenset(b) for b in _moore(outputs, succ)
        }, case


def test_bisimilarity_gfp_chain_against_ring_round_bound():
    """A chain of k seeds ending in a stop and a one-seed `a` ring first
    differ at output k, which is output n - 1 of their n = k + 1 seeds:
    the latest a difference can appear, so every doubling round up to
    span n is needed."""
    ring = StepFn("ring", ("r",), {"r": ("a", "r")})
    for k in range(1, 101):
        seeds = [f"c{i}" for i in range(k)]
        chain = StepFn("chain", seeds, {s: ("a", seeds[i + 1]) if i + 1 < k else None
                                        for i, s in enumerate(seeds)})
        assert bisimilarity_gfp(chain, ring) == frozenset(), k
        assert bisimilarity_gfp(ring, chain) == frozenset(), k


def test_bisimilarity_gfp_verify_checks_refinement(monkeypatch):
    rng = random.Random(47)
    pairs = [_random_pair(rng, i) for i in range(200)]
    small = [(m1, m2) for m1, m2 in pairs if len(m1.seeds) * len(m2.seeds) <= 12]
    small.append((StepFn("one", ("s",), {"s": ("a", "s")}),
                  StepFn("cyc", ("t0", "t1"), {"t0": ("a", "t1"), "t1": ("a", "t0")})))
    for m1, m2 in small:
        assert bisimilarity_gfp(m1, m2) == _kleene_gfp(m1, m2)

    m1, m2 = small[-1]
    monkeypatch.setattr(bisim, "_refine", lambda outputs, succ: [{i} for i in range(len(succ))])
    assert bisimilarity_gfp(m1, m2) == frozenset()
    assert bisimilarity_gfp(m1, m2) != _kleene_gfp(m1, m2)


def test_certificate_soundness_random_machines():
    rng = random.Random(41)
    for i in range(40):
        m1 = random_machine(rng, f"p{i}", max_seeds=5)
        m2 = random_machine(rng, f"q{i}", max_seeds=5)
        l1, l2 = corec(m1.seeds[0], m1), corec(m2.seeds[0], m2)
        outcome = find_bisimulation(l1, l2, 10_000)
        if isinstance(outcome, Certificate):
            assert verify_certificate(outcome, l1, l2)
            assert eq_upto(50, l1, l2)


def test_completeness_pigeonhole_bound():
    rng = random.Random(43)
    for i in range(30):
        m1 = random_machine(rng, f"p{i}", max_seeds=8)
        m2 = random_machine(rng, f"q{i}", max_seeds=8)
        l1, l2 = corec(m1.seeds[0], m1), corec(m2.seeds[0], m2)
        bound = 2 * len(m1.seeds) * len(m2.seeds) + 1
        found = isinstance(find_bisimulation(l1, l2, 10_000), Certificate)
        assert found == bool(eq_upto(bound, l1, l2))
