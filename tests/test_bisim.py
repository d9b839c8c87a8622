"""Bisimulation certificates: checking, search, and the gfp cross-check."""

import json
import random
import tracemalloc
from itertools import accumulate, islice

import pytest

from conftest import (
    ABC,
    FLIP,
    ROT,
    CountingFun,
    random_machine,
    random_state,
    rename_seeds,
    ring_machine,
    step_pair,
    unfold,
    walk_states,
)
from coinduct import bisim, colist, lattice
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
    ConsList,
    Definitions,
    StepFn,
    cons,
    corec,
    lappend,
    lconst,
    lmap,
    nil,
    observe,
    state_key,
)
from coinduct.dsl import read_states
from coinduct.errors import CertificateError, RootMissing, SizeExceeded, UnresolvableKey, Verdict
from coinduct.trees import in0, leaf, numb, oplus, otimes, scons

AB = Alphabet(("a", "b"))
SWAP = AtomFun("swap", {"a": "b", "b": "a"})
RUN_DEFS = Definitions(AB, {"swap": SWAP}, {})  # for reader-built runs


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


def test_certificate_with_two_bad_pairs():
    """Of two malformed pairs the first is named; of two pairs failing
    replay, the smallest is reported; of two pairs with unresolvable
    keys, the first unresolvable key of the smallest."""
    with pytest.raises(CertificateError, match=r"^pairs\[1\]: must be a pair of keys$"):
        Certificate("weak", [["a", "b"], ["c"], 3], ["a", "b"])
    a, b = lconst("a", AB), lconst("b", AB)
    ka, kb, kc = state_key(a), state_key(b), state_key(cons("a", b, AB))
    cert = Certificate("weak", {(ka, kc), (kb, ka), (ka, kb)}, (ka, kc))
    verdict = verify_certificate(cert, a, cons("a", b, AB))
    assert (verdict.reason, verdict.witness) == ("heads differ", (ka, kb))
    assert verdict == _oracle_verify(cert, a, cons("a", b, AB))
    cert = Certificate("weak", {(ka, ka), ("Y(1)", ka), (ka, "Z(2)")}, (ka, ka))
    with pytest.raises(UnresolvableKey, match=r"^key Z\(2\) names no reachable state$"):
        verify_certificate(cert, a, a)


def test_unresolvable_right_key():
    const = lconst("a", AB)
    root = (state_key(const), state_key(const))
    bogus = Certificate("weak", frozenset({root, (root[0], "CONST(zz)")}), root)
    with pytest.raises(UnresolvableKey, match=r"CONST\(zz\)"):
        verify_certificate(bogus, const, const)


def test_verify_certificate_beyond_the_state_bound():
    """Replay walks each list only as far as the certificate can reach, so
    the certificates found on a ring larger than the former 10^4 bound
    verify."""
    big, alpha = ring_machine(12_000), Alphabet(("a",))
    assert len(big.seeds) > 10_000
    ring = corec("s0", big)
    for left, size in ((ring, 1), (cons("a", cons("a", corec("s2", big), alpha), alpha), 2)):
        cert = find_bisimulation(left, ring, kind="strong")
        assert len(cert.pairs) == size
        assert verify_certificate(cert, left, ring)


def test_verify_certificate_key_past_the_walk():
    """A key further from the queried lists than the certificate has pairs
    cannot take part in the proof, and is unresolvable."""
    ring = corec("s0", ring_machine(10))
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


def test_find_bisimulation_rejects_an_unknown_kind_first():
    """An unknown kind is refused before either list is observed, on
    equal lists and on unequal ones alike."""
    f = CountingFun(SWAP)
    mapped = lmap(f, lconst("a", AB))
    for other in (lconst("b", AB), lconst("a", AB)):
        with pytest.raises(ValueError, match=r"^kind must be 'weak' or 'strong', got 'bogus'$"):
            find_bisimulation(mapped, other, kind="bogus")
    assert f.calls == 0


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
    # the order and duplicates of the given pairs change nothing `to_dict` writes
    orders = ([("c", "d"), ["a", "b"], ("e", "f"), ("c", "d")], [("e", "f"), ("a", "b"), ("c", "d")],
              {("a", "b"), ("c", "d"), ("e", "f")})
    docs = [Certificate("weak", pairs, ("c", "d")).to_dict() for pairs in orders]
    assert docs == [{"kind": "weak", "root": ["c", "d"],
                     "pairs": [["c", "d"], ["a", "b"], ["e", "f"]]}] * 3


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


def _chain_of_cells(n):
    """n cells of `a` built one `cons` at a time over `lconst(a)`, and the
    constant."""
    const = lconst("a", AB)
    chain = const
    for _ in range(n):
        chain = cons("a", chain, AB)
    return chain, const


def test_deep_chain_bisimulation_without_recursion():
    chain, const = _chain_of_cells(2000)
    outcome = find_bisimulation(chain, const, 10_000, kind="weak")
    assert isinstance(outcome, Certificate) and len(outcome.pairs) == 2001
    assert verify_certificate(outcome, chain, const)


def test_replay_after_search_reuses_its_keys():
    """Replay run after search on the same 2000-cell chain reads the
    search's ids and writes no cell's key, so its `tracemalloc` peak
    stays within 10% of the search's: writing the keys again held their
    O(n^2) characters twice over.  A ratio, so the check holds on any
    Python."""
    chain, const = _chain_of_cells(2000)
    tracemalloc.start()
    try:
        cert = find_bisimulation(chain, const, 10_000)
        search_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert verify_certificate(cert, chain, const)
        replay_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.pairs) == 2001
    assert replay_peak <= 1.1 * search_peak, (search_peak, replay_peak)


def test_replay_after_search_writes_no_cons_key(monkeypatch):
    """Replay of a search's certificate on the same 2000-cell chain reads
    the search's ids: its walks key only the constant past the chain,
    and no key text is written, for the certificate or the walks."""
    chain, const = _chain_of_cells(2000)
    cert = find_bisimulation(chain, const, 10_000)
    keyed, written = [], []
    monkeypatch.setattr(bisim, "state_key", lambda l: keyed.append(l) or state_key(l))
    real = colist.Interner.texts
    monkeypatch.setattr(colist.Interner, "texts", lambda t, ids: written.append(ids) or real(t, ids))
    assert verify_certificate(cert, chain, const)
    assert keyed == [const] * 4 and not written  # each list's CONST(a) and its tail
    assert cert._pairs is None and len(cert.pairs) == 2001 and written


def test_walks_refuse_key_text_past_the_bound(monkeypatch):
    """Each list's walk counts the characters of the key text it writes,
    a tower's or a leaf's key, never a cons cell's, and raises
    `SizeExceeded` once they pass `KEY_TEXT_BOUND`.  With the bound at
    exactly what the tower's walk writes, search and replay return what
    they return under 10^8; one character less, each raises.  The cons
    chain writes only the key of its end, `NIL`."""
    assert bisim.KEY_TEXT_BOUND == 10**8
    n = 40
    l1 = nil()
    for i in range(n):
        l1 = cons("ab"[i % 2], l1, AB)
    l2 = lmap(SWAP, lmap(SWAP, l1))  # the same list under tower keys
    written = []
    monkeypatch.setattr(bisim, "state_key", lambda l: written.append(l) or state_key(l))
    cert = find_bisimulation(l1, l2, kind="weak")
    assert [x for x in written if x is l1 or isinstance(x, ConsList)] == []
    assert sum(isinstance(x, colist.NilList) for x in written) == 1
    walk = list(bisim.reachable_states(l2, n + 1))
    held = sum(map(len, walk))
    assert len(walk) == n + 1 and cert == Certificate(
        "weak", frozenset(zip(bisim.reachable_states(l1, n + 1), walk)), (state_key(l1), walk[0]))
    assert verify_certificate(cert, l1, l2)

    monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", held)
    assert find_bisimulation(l1, l2, kind="weak") == cert
    assert verify_certificate(cert, l1, l2)
    monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", held - 1)
    message = f"state keys of one list hold more than {held - 1} characters"
    with pytest.raises(SizeExceeded, match=message):
        find_bisimulation(l1, l2, kind="weak")
    with pytest.raises(SizeExceeded, match=message):
        verify_certificate(cert, l1, l2)
    monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", len("NIL"))
    assert isinstance(find_bisimulation(l1, l1, kind="weak"), Certificate)
    monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", len(walk[0]) - 1)
    with pytest.raises(SizeExceeded):
        closure_check((l1, l2), cert.pairs, "weak")


def test_certificate_text_is_refused_past_the_bound(monkeypatch):
    """A search certificate's pairs are written when first read, and
    refused, before any text is written, once one side's keys would pass
    `KEY_TEXT_BOUND` characters: the ids carry the lengths."""
    run = read_states("cons(a,cons(b," * 20 + "nil" + "))" * 20, RUN_DEFS)
    chain = nil()
    for i in range(40):
        chain = cons("ba"[i % 2], chain, AB)
    keys = list(bisim.reachable_states(run, 50))
    held = sum(map(len, keys))
    for bound in (held - 1, held):
        monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", bound)
        cert = find_bisimulation(run, chain, kind="strong")
        assert cert.root == (keys[0], keys[0]) and len(cert._ids) == 1
        cert = find_bisimulation(run, chain, kind="weak")
        assert len(cert._ids) == 41
        if bound < held:
            for read in (lambda: cert.pairs, cert.to_dict, lambda: hash(cert)):
                with pytest.raises(SizeExceeded, match=f"more than {bound} characters"):
                    read()
            assert cert._pairs is None
        else:
            assert cert.pairs == frozenset(zip(keys, keys)) and verify_certificate(cert, run, chain)


def test_key_text_bound_is_met_at_the_same_pair(monkeypatch):
    """With `KEY_TEXT_BOUND` set low, search through a reader-built run
    around a tower raises `SizeExceeded` at the pair at which the key
    text its walk writes first passes the bound: the tower's key, written
    when the walk meets it past the run, then its tail's when it is
    stepped.  The pairs before it have been checked, and it has not; no
    key is written for a cell of the run.  Replay raises exactly when its
    walk's text passes the bound."""
    text = "cons(a,cons(b," * 4 + "map(swap," * 9 + "lconst(a)" + ")" * 9 + "))" * 4
    machine = StepFn("w", [f"s{i}" for i in range(9)],
                     {**{f"s{i}": ("ab"[i % 2], f"s{i + 1}") for i in range(8)}, "s8": ("b", "s8")})
    closed, written = [], []
    real_closes, real_key = bisim._closes, bisim.state_key
    monkeypatch.setattr(bisim, "_closes", lambda *args: closed.append(args) or real_closes(*args))

    def key(l):
        if not isinstance(l, colist.MachineList):
            written.append((len(closed), len(real_key(l))))
        return real_key(l)

    monkeypatch.setattr(bisim, "state_key", key)
    cert = find_bisimulation(read_states(text, RUN_DEFS), corec("s0", machine))
    assert len(cert.pairs) == 9
    held = list(accumulate(size for _, size in written))
    assert [at for at, _ in written] == [0, 8] and held[0] > sum(
        len(k) for k in bisim.reachable_states(corec("s0", machine), 10))
    monkeypatch.setattr(bisim, "state_key", real_key)
    for j, bound in enumerate(held):
        monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", bound - 1)
        closed.clear()
        with pytest.raises(SizeExceeded, match=f"more than {bound - 1} characters"):
            find_bisimulation(read_states(text, RUN_DEFS), corec("s0", machine))
        assert len(closed) == written[j][0], j
        monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", bound)
        closed.clear()
        outcome = _outcome(find_bisimulation, read_states(text, RUN_DEFS), corec("s0", machine))
        last = j == len(held) - 1
        assert len(closed) == (len(cert.pairs) if last else written[j + 1][0]), j
        replayed = _outcome(verify_certificate, cert, read_states(text, RUN_DEFS),
                            corec("s0", machine))
        # the certificate's text, written to compare, is bounded too
        monkeypatch.setattr(bisim, "KEY_TEXT_BOUND", 10**8)
        assert outcome == cert if last else outcome[0] is SizeExceeded, j
        assert replayed == Verdict(True) if last else replayed[0] is SizeExceeded


def _peak(n):
    """The `tracemalloc` peak of search then replay of `_chain_of_cells(n)`
    against the constant, the certificate's text unread."""
    chain, const = _chain_of_cells(n)
    tracemalloc.start()
    try:
        cert = find_bisimulation(chain, const, 10_000, kind="strong")
        assert verify_certificate(cert, chain, const) and cert._pairs is None
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_and_replay_grow_linearly_in_memory():
    """Search and replay hold ids, not key text, so their `tracemalloc`
    peak on a chain built cell by cell grows about twofold when the chain
    doubles, where held key text grew fourfold; a 10^4-cell chain stays
    far under 100 MB."""
    assert _peak(4000) <= 2.2 * _peak(2000)
    assert _peak(10**4) < 100 * 2**20


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


def test_eq_upto(monkeypatch):
    assert eq_upto(0, lconst("a", AB), lconst("b", AB))
    const = lconst("a", AB)
    assert eq_upto(5, const, cons("a", const, AB))
    verdict = eq_upto(1, cons("a", nil(), AB), nil())
    assert not verdict and verdict.witness == 0
    # all-`a` rings of 2 and 3 seeds: both lassos close, and the windows
    # unrolled to max(2, 0) + 2 + 3 - 1 = 6 heads agree
    unrolled = []
    monkeypatch.setattr(bisim, "unroll", lambda seen, c, n: unrolled.append(n) or colist.unroll(seen, c, n))
    p, q = ring_machine(2), ring_machine(3)
    assert eq_upto(50, cons("a", cons("a", corec("s0", p), AB), AB), corec("s0", q)) == Verdict(True)
    assert unrolled == [6, 6]


def test_synchronized_observation_counts():
    """Each synchronized step observes both lists at most once, a list
    whose cycle has closed is not observed again (at most min(k, prefix
    + period) calls), and no step runs past the first disagreement."""
    f = CountingFun(SWAP)
    l, b = lmap(f, lconst("a", AB)), lconst("b", AB)
    assert eq_upto(7, l, b) and f.calls <= min(7, 0 + 1)
    f.calls = 0
    assert eq_upto(7, l, lconst("a", AB)) == Verdict(False, "heads differ", 0)
    assert f.calls <= 1
    f.calls = 0
    assert eq_upto(7, l, cons("b", nil(), AB)) == Verdict(False, "nil/cons mismatch", 1)
    assert f.calls <= min(2, 0 + 1)
    f.calls = 0
    cert = find_bisimulation(l, b)
    assert cert.pairs == {("MAP(swap,CONST(a))", "CONST(b)")} and f.calls == 1
    f.calls = 0
    assert verify_certificate(cert, l, b) and f.calls == 1
    f.calls = 0
    assert closure_check((l, b), cert.pairs, "weak") and f.calls == 1


def test_search_keys_each_pair_once(monkeypatch):
    """The search keys each list's first state past its leading cons
    cells (its root, when it has none) once and, once each, the tail of
    each state it observes, however many pairs hold the state: the pairs
    are read from the recorded chains.  Cons cells are not observed, and
    no cons key is written: a cell is interned from its head and its
    tail's id."""
    _, keyed = _counting(monkeypatch)
    const = lconst("a", AB)
    cert = find_bisimulation(const, cons("a", const, AB))
    # const as the first root, as the cons cell's rest, and as its own
    # tail, twice (once per chain).  A snapshot, as comparing the
    # certificate's pairs keys nothing, but hashing a cons run would
    assert keyed[:] == [const] * 4
    assert cert.pairs == {("CONST(a)", "CONS(a,CONST(a))"), ("CONST(a)", "CONST(a)")}
    keyed.clear()
    two, three = ring_machine(2), rename_seeds(ring_machine(3), "r_")
    cert = find_bisimulation(corec("s0", two), corec("r_s0", three))
    assert len(cert.pairs) == 6 and len(keyed) == 2 + 2 + 3
    keyed.clear()
    run = read_states("cons(a,cons(a,cons(a,cons(a,lconst(a)))))", RUN_DEFS)
    cert = find_bisimulation(run, cons("a", cons("a", const, AB), AB), kind="weak")
    assert len(cert.pairs) == 5
    # the two runs' rests and the tails of those CONST(a) states: no key
    # inside either run
    assert len(keyed) == 2 + 2


def test_replay_walks_each_list_once(monkeypatch):
    """Replay walks each queried list once through `reachable_states`,
    as far as the certificate has pairs, in one table for both walks,
    keys each list's first state past its cons cells once, observes each
    walked state outside a bare cons run once and steps a run's states
    from its tuple of heads."""
    walks = []
    real_walk = bisim.reachable_states

    def walk(l, limit, table):
        walks.append((l, limit, table))
        return real_walk(l, limit, table)

    l1 = lmap(SWAP, lmap(SWAP, lconst("a", AB)))
    l2 = cons("a", lconst("a", AB), AB)
    cert = find_bisimulation(l1, l2)
    assert len(cert.pairs) == 2
    monkeypatch.setattr(bisim, "reachable_states", walk)
    observed, keyed = _counting(monkeypatch)
    assert verify_certificate(cert, l1, l2)
    assert [limit for _, limit, _ in walks] == [len(cert.pairs)] * 2
    assert walks[0][0] is l1 and walks[1][0] is l2 and walks[0][2] is walks[1][2]
    # l1 as its root; l2's rest as the first state past its cell, and as
    # its own tail
    assert sum(x is l1 for x in keyed) == 1 and sum(x is l2.rest for x in keyed) == 2
    assert not any(x is l2 for x in keyed)
    # l1 repeats its key after one step; l2's cons cell is stepped from
    # its heads, then its rest observed once
    assert len(observed) == 1 + 1 and observed[0] is l1 and observed[1] == lconst("a", AB)
    run = read_states("cons(a,cons(a,cons(a,lconst(a))))", RUN_DEFS)
    cert = find_bisimulation(run, l1)
    keyed.clear()
    observed.clear()
    assert verify_certificate(cert, run, l1) and len(cert.pairs) == 4
    # a key for the run's rest, CONST(a), and for l1, and for the tails
    # of those two; one observation of each of them
    assert len(keyed) == 2 + 1 + 1 and len(observed) == 1 + 1


def _calls(l, states):
    """The `observe` and `state_key` calls a chain makes to step the first
    `states` states of `l`'s chain: one observation per state outside a
    bare cons run (a `ConsList` state), one key for the chain's first
    state past its leading cons cells, keyed when the walk starts, and
    one for the tail of each observed state that does not end the list."""
    walked = [x for x in list(walk_states(l, 10_000).values())[:states] if not isinstance(x, ConsList)]
    return len(walked), 1 + sum(observe(x) is not None for x in walked)


def _positions(outcome) -> int:
    """The chain positions a search stepped to reach `outcome`."""
    if isinstance(outcome, Certificate):
        return len(outcome.pairs)
    if isinstance(outcome, Counterexample):
        return outcome.index + 1
    return outcome.limit


def _oracle_search(l1, l2, max_pairs, kind):
    """`find_bisimulation` as it was before it read recorded chains: one
    `step_pair` on the two states of every pair, then both tails keyed.
    The oracle for the search."""
    root = (state_key(l1), state_key(l2))
    seen = set()
    cur, keys, idx = (l1, l2), root, 0
    while keys not in seen:
        if kind == "strong" and keys[0] == keys[1] and idx > 0:
            break
        if len(seen) >= max_pairs:
            return BoundExceeded(max_pairs)
        seen.add(keys)
        tails = step_pair(*cur)
        if tails is None:
            break
        if isinstance(tails, str):
            return Counterexample(idx, tails, keys)
        cur, idx = tails, idx + 1
        keys = (state_key(cur[0]), state_key(cur[1]))
    return Certificate(kind, frozenset(seen), root)


def _oracle_closure(pair, rel, kind):
    """`closure_check` by observing both states again: the oracle."""
    tails = step_pair(*pair)
    if tails is None:
        return Verdict(True)
    if isinstance(tails, str):
        return Verdict(False, tails, (state_key(pair[0]), state_key(pair[1])))
    k1, k2 = state_key(tails[0]), state_key(tails[1])
    if (k1, k2) in rel or kind == "strong" and k1 == k2:
        return Verdict(True)
    return Verdict(False, "tail pair escapes the relation", (k1, k2))


def _oracle_verify(cert, l1, l2):
    """`verify_certificate` as a walk over states (`walk_states`), then
    `_oracle_closure` on the two states of every pair: the oracle for
    replay."""
    walks = [walk_states(l, len(cert.pairs)) for l in (l1, l2)]
    root = tuple(next(iter(walk)) for walk in walks)
    if cert.root != root:
        raise RootMissing(f"certificate root {cert.root} does not match queried pair {root}")
    index = walks[0] | walks[1]
    resolved = []
    for ka, kb in sorted(cert.pairs):
        for key in (ka, kb):
            if key not in index:
                raise UnresolvableKey(f"key {key} names no reachable state")
        resolved.append((index[ka], index[kb]))
    for pair in resolved:
        verdict = _oracle_closure(pair, cert.pairs, cert.kind)
        if not verdict:
            return verdict
    return Verdict(True)


def _outcome(fn, *args):
    """What a call returns, or the class and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _random_lists(rng, machines):
    """Two random lists: one list twice, two unrelated ones, or a list
    and an equal one under other keys (mapped by a function power that
    is the identity, appended to nil, or with its first cell rebuilt),
    or up to 12 random heads, as one run ending in a tower and cell by
    cell, around a list and that tower, equal to it."""
    l = random_state(rng, machines)
    case = rng.randrange(7)
    if case >= 5:
        heads = tuple(rng.choice(ABC.symbols) for _ in range(rng.randint(1, 12)))
        tower = lappend(nil(), l) if case == 5 else lmap(ROT, lmap(ROT, lmap(ROT, l)))
        l, other = ConsList(heads, 0, tower), l
        for head in reversed(heads):
            other = cons(head, other, ABC)
    elif case == 0:
        other = l
    elif case == 1:
        other = random_state(rng, machines)
    elif case == 2:
        other = lmap(ROT, lmap(ROT, lmap(ROT, l)))
    elif case == 3:
        other = lappend(nil(), lmap(FLIP, lmap(FLIP, l)))
    else:
        obs = observe(l)
        other = nil() if obs is None else cons(obs[0], obs[1], ABC)
    return (l, other) if rng.random() < 0.5 else (other, l)


def _machine_lists(rng, i):
    """Two machine lists over one to three symbols: one machine twice,
    a renamed copy, or two random machines."""
    syms = ("a", "b", "c")[: rng.randint(1, 3)]
    m1 = random_machine(rng, f"p{i}", 8, syms, rng.choice((0.0, 0.1, 0.3)))
    m2 = (m1, rename_seeds(m1, "r_"), random_machine(rng, f"q{i}", 8, syms, 0.1))[i % 3]
    return corec(rng.choice(m1.seeds), m1), corec(rng.choice(m2.seeds), m2)


def _mutants(rng, cert, l1, l2):
    """Certificates around `cert`: itself and under the other kind, with
    a non-root pair dropped, with a pair added (keys from both walks in
    either order, or from one walk), with a key past the walk, with a
    key no state has, and with a wrong root.  And file-shaped ones, the
    pairs given as JSON lists to `Certificate.from_dict`: with a pair
    given twice; with one pair added whose key lies at the walk bound,
    the number of distinct pairs, or exactly one state past it, and a
    pair given twice, so a walk as long as the pairs given would reach
    it; and with a cons key forged from a walk's by another head of the
    same length, which names no state."""
    keys1, keys2 = list(walk_states(l1, 10_000)), list(walk_states(l2, 10_000))
    pairs, root = set(cert.pairs), cert.root
    other = "weak" if cert.kind == "strong" else "strong"
    out = [cert, Certificate(other, pairs, root)]
    rest = sorted(pairs - {root})
    if rest:
        out.append(Certificate(cert.kind, pairs - {rng.choice(rest)}, root))
        out.append(Certificate(cert.kind, pairs, rng.choice(rest)))
    for added in ((rng.choice(keys1), rng.choice(keys2)), (rng.choice(keys2), rng.choice(keys1)),
                  (rng.choice(keys1), rng.choice(keys1)), (rng.choice(keys2), rng.choice(keys2)),
                  (root[0], "CONST(zz)")):
        out.append(Certificate(cert.kind, pairs | {added}, root))
    far = len(pairs) + 2  # past a walk over the pairs with one added
    for keys in (keys1, keys2):
        if len(keys) > far:
            out.append(Certificate(cert.kind, pairs | {(keys[far], keys[far])}, root))
    swapped = root[::-1]
    out.append(Certificate(cert.kind, pairs | {swapped}, swapped))

    listed = [list(root)] + [list(p) for p in rest]

    def doc(*more):
        return Certificate.from_dict({"kind": cert.kind, "root": list(root), "pairs": listed + list(more)})

    out.append(doc(list(rng.choice(sorted(pairs)))))
    for keys in (keys1, keys2):
        for at in (len(pairs) + 1, len(pairs) + 2):
            if len(keys) > at:
                out.append(doc([keys[at], keys[at]], list(root)))
        runs = [k for k in keys if k.startswith("CONS(")]
        if runs:
            key = rng.choice(runs)
            head = key[5:key.index(",")]
            forged = "CONS(" + "bca"["abc".index(head)] + key[6:]
            out.append(doc([forged, rng.choice(keys)]))
            out.append(doc([rng.choice(keys), forged]))
    return out


def _counting(monkeypatch) -> tuple[list, list]:
    """The states observed and keyed from now on, as two lists:
    `colist.steps` observes states, and `bisim` keys the states it steps
    to outside a chain's leading cons cells.  `==` and `hash` of a cons
    run or a tower key it through `colist.state_key` too, so compare a
    snapshot of `keyed`."""
    observed, keyed = [], []
    monkeypatch.setattr(colist, "observe", lambda l: observed.append(l) or observe(l))
    for module in (bisim, colist):
        monkeypatch.setattr(module, "state_key", lambda l: keyed.append(l) or state_key(l))
    return observed, keyed


def _match_the_oracles(make, rng, calls, seen):
    """Search the two lists `make()` builds, both kinds, at a budget of
    1-6 and of 10^4, against the oracle search, and replay every
    certificate around the outcome (`_mutants`) against the oracle
    replay.  Each search and each replay makes exactly the observations
    and keys that `_calls` counts for the states it steps; `calls` holds
    the lists `_counting` fills.  `seen` gathers the outcomes met."""
    observed, keyed = calls
    for kind in ("weak", "strong"):
        for budget in (rng.randint(1, 6), 10_000):
            l1, l2 = make()
            observed.clear()
            keyed.clear()
            outcome = find_bisimulation(l1, l2, budget, kind)
            assert outcome == _oracle_search(*make(), budget, kind), (kind, budget)
            made = [_calls(l, _positions(outcome)) for l in (l1, l2)]
            assert (len(observed), len(keyed)) == tuple(map(sum, zip(*made))), (kind, budget)
            seen.add(type(outcome))
        if not isinstance(outcome, Certificate):
            continue
        for cert in _mutants(rng, outcome, *make()):
            l1, l2 = make()
            observed.clear()
            keyed.clear()
            verdict = _outcome(verify_certificate, cert, l1, l2)
            assert verdict == _outcome(_oracle_verify, cert, *make()), cert
            made = [_calls(l, len(cert.pairs) + 1) for l in (l1, l2)]
            assert (len(observed), len(keyed)) == tuple(map(sum, zip(*made))), cert
            seen.add(verdict if isinstance(verdict, tuple) else bool(verdict))


def test_search_and_replay_match_the_oracles(monkeypatch):
    """Random lists and machine lists, both kinds, budgets from 1 up:
    search returns what the oracle search returns, and every certificate
    around it (`_mutants`) replays to the oracle's verdict or exception,
    each with exactly one observation per stepped state outside a bare
    cons run and one key per root and per tail outside one."""
    calls = _counting(monkeypatch)
    rng = random.Random(59)
    machines = [random_machine(rng, f"m{i}") for i in range(6)]
    seen = set()
    for i in range(400):
        pair = _random_lists(rng, machines) if i % 2 else _machine_lists(rng, i)
        _match_the_oracles(lambda: pair, rng, calls, seen)
    assert {Certificate, Counterexample, BoundExceeded, True, False} <= seen
    assert {v[0] for v in seen if isinstance(v, tuple)} == {RootMissing, UnresolvableKey}


_RESTS = ("nil", "lconst(a)", "lconst(b)", "iterates(rot,a)", "corec(m0,m0_s0)",
          "map(flip,iterates(rot,b))", "append(cons(a,nil),lconst(a))",
          "append(nil,corec(m1,m1_s0))")


def _run_side(rng, defs, heads, rest):
    """A builder of fresh states for the symbols `heads`, then the list
    the text `rest` reads as, in one of eight shapes: one reader-built
    run; two runs, the first one's rest the second (one run for a single
    head); runs of one, as `cons` builds them; a run read from a nonzero
    offset, not keyed before, or keyed before the search; that run inside
    a map tower, or an `append(nil, .)` tower, under other keys; or
    inside `append(., lconst(c))`."""
    text = "".join(f"cons({h}," for h in heads) + rest + ")" * len(heads)
    shape = rng.randrange(8)
    cut = rng.randint(1, max(1, len(heads) - 1))
    junk = tuple(rng.choice("abc") for _ in range(rng.randint(1, 3)))

    def make():
        if shape == 0:
            return read_states(text, defs)
        tail = read_states(rest, defs)
        if shape == 1:
            inner = ConsList(heads[cut:], 0, tail) if cut < len(heads) else tail
            return ConsList(heads[:cut], 0, inner)
        if shape == 2:
            for h in reversed(heads):
                tail = cons(h, tail, ABC)
            return tail
        run = ConsList(junk + heads, len(junk), tail)
        if shape == 3:
            return run
        if shape == 4:
            state_key(run)
            return run
        if shape == 5:
            return lmap(FLIP, lmap(FLIP, run))
        if shape == 6:
            return lappend(nil(), run)
        return lappend(run, lconst("c", ABC))

    return make


def _run_lists(rng, defs, machines):
    """A builder of two fresh lists around cons runs: the same symbols
    and rest on both sides (equal keys when neither side is in a tower),
    one head changed, more `a` cells before an all-`a` rest, or a random
    list on one side."""
    heads = tuple(rng.choice("abc") for _ in range(rng.randint(1, 8)))
    rest = rng.choice(_RESTS)
    other_heads, other_rest = heads, rest
    case = rng.randrange(5)
    if case == 1:
        i = rng.randrange(len(heads))
        other_heads = heads[:i] + (rng.choice("abc"),) + heads[i + 1:]
    elif case == 2:
        rest = other_rest = "lconst(a)"
        other_heads = heads + ("a",) * rng.randint(1, 3)
    left = _run_side(rng, defs, heads, rest)
    if case == 3:
        other = random_state(rng, machines)
        right = lambda: other  # noqa: E731
    else:
        right = _run_side(rng, defs, other_heads, other_rest)
    if rng.random() < 0.5:
        left, right = right, left
    return lambda: (left(), right())


def test_runs_match_the_oracles(monkeypatch):
    """`_match_the_oracles` over lists around cons runs: reader-built
    runs, a run whose rest is another run, runs at a nonzero offset keyed
    before the search or not, runs inside map and append towers, where
    no run is stepped by offset, and equal runs on both sides, where the
    strong kind closes inside a run."""
    calls = _counting(monkeypatch)
    rng = random.Random(67)
    machines = [random_machine(rng, f"m{i}") for i in range(3)]
    defs = Definitions(ABC, {"rot": ROT, "flip": FLIP}, {m.name: m for m in machines})
    seen = set()
    inside = 0
    for _ in range(300):
        make = _run_lists(rng, defs, machines)
        _match_the_oracles(make, rng, calls, seen)
        cert = find_bisimulation(*make(), kind="strong")
        inside += isinstance(cert, Certificate) and len(cert.pairs) == 1 and cert.root[0] == cert.root[1]
    assert {Certificate, Counterexample, BoundExceeded, True, False} <= seen
    assert {v[0] for v in seen if isinstance(v, tuple)} == {RootMissing, UnresolvableKey}
    assert inside > 0


def test_closure_check_matches_the_oracle():
    rng = random.Random(61)
    machines = [random_machine(rng, f"m{i}") for i in range(6)]
    for i in range(300):
        pair = _random_lists(rng, machines)
        keys = [list(walk_states(l, 3)) for l in pair]
        rel = frozenset((rng.choice(keys[0]), rng.choice(keys[1])) for _ in range(rng.randint(0, 3)))
        for kind in ("weak", "strong"):
            assert closure_check(pair, rel, kind) == _oracle_closure(pair, rel, kind), i


def test_coprime_rings_observe_each_state_once(monkeypatch):
    """Rings with periods 30 and 31 visit 930 pairs.  Search and replay
    each observe the 61 states once; observing both states of every pair,
    as the oracles do, takes 1860 machine steps to search and 61 + 1860
    to replay."""
    steps = []
    real = StepFn.step
    monkeypatch.setattr(StepFn, "step", lambda m, seed: steps.append(seed) or real(m, seed))
    l1, l2 = corec("s0", ring_machine(30)), corec("r_s0", rename_seeds(ring_machine(31), "r_"))
    cert = find_bisimulation(l1, l2, kind="strong")
    assert len(cert.pairs) == 930 and len(steps) == 61
    assert _oracle_search(l1, l2, 10_000, "strong") == cert and len(steps) == 61 + 1860
    steps.clear()
    assert verify_certificate(cert, l1, l2) and len(steps) == 61
    steps.clear()
    assert _oracle_verify(cert, l1, l2) and len(steps) == 61 + 1860


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
    # the gfp is a bisimulation, so it serves as a certificate's pairs
    cert = Certificate("weak", rel, ("M(one,s)", "M(cyc,t1)"))
    assert type(cert.pairs) is frozenset and cert.pairs == rel
    assert verify_certificate(cert, corec("s", m1), corec("t1", m2))

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
    """The blocks are checked as `_refine` returns them, so a wrong
    `_refine` fails here at once, at the block that is wrong: chain and
    ring seeds never share a block, and each lasso seed shares its block
    with its renamed copy alone."""
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
