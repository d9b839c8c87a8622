"""Corecursive lists: one-step unfolding laws, approximants, truncation."""

import copy
import dataclasses
import json
import pickle
import functools
import random
import re
import sys
import time
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    ABC,
    MOD4_SYMS,
    ROT,
    CountingFun,
    random_machine,
    random_state,
    ring_machine,
    step_pair,
    unfold,
    walk_states,
)
from coinduct import cli, colist
from coinduct.dsl import read_states
from coinduct.colist import (
    Alphabet,
    AppendList,
    AtomFun,
    ConsList,
    ConstList,
    Definitions,
    IterList,
    MachineList,
    MapList,
    NilList,
    StepFn,
    TowerList,
    check_llist_upto,
    cons,
    corec,
    iterates,
    lappend,
    lconst,
    lcorf,
    lmap,
    nil,
    observe,
    state_key,
    take,
    tree_trunc,
    unroll,
)
from coinduct.errors import (
    DefsError,
    SizeExceeded,
    UnknownAtom,
    UnknownSeed,
    Verdict,
)
from coinduct.bisim import (
    eq_upto,
    find_bisimulation,
    reachable_states,
    verify_certificate,
)
from coinduct.trees import (
    EMPTY_TREE,
    AtomShape,
    NIL_TREE,
    SconsShape,
    UserAtom,
    case_tree,
    cons_tree,
    dump_tree,
    leaf,
    ntrunc,
    numb,
)

AB = Alphabet(("a", "b"))


def machine(name, table):
    return StepFn(name, tuple(table), table)


def test_corec_characteristic_equation():
    stop = machine("stop", {"a": None})
    assert observe(corec("a", stop)) is None

    loop = machine("loop", {"a": ("b", "a")})
    assert take(3, corec("a", loop)) == (["b", "b", "b"], False)

    once = machine("once", {"a": ("b", "z"), "z": None})
    assert take(5, corec("a", once)) == (["b"], True)

    with pytest.raises(UnknownSeed):
        corec("missing", stop)


def test_observe_examples(succ):
    assert observe(nil()) is None
    it = iterates(succ, "x0")
    assert observe(it) == ("x0", iterates(succ, "x1"))
    assert observe(lmap(succ, nil())) is None
    l = lconst("a", AB)
    assert observe(l) == ("a", l)
    assert observe(cons("a", l, AB)) == ("a", l)


def test_cons_nil():
    assert take(2, cons("a", nil(), AB)) == (["a"], True)
    assert observe(cons("a", lconst("b", AB), AB)) == ("a", lconst("b", AB))
    assert observe(cons("a", nil(), AB)) is not None
    with pytest.raises(UnknownAtom):
        cons("z", nil(), AB)


def test_lconst(succ):
    assert take(3, lconst("b", AB)) == (["b", "b", "b"], False)
    with pytest.raises(UnknownAtom):
        lconst("z", AB)


def test_iterates(succ):
    assert take(4, iterates(succ, "x0")) == (["x0", "x1", "x2", "x3"], False)
    ident = AtomFun("id", {"a": "a", "b": "b"})
    same = iterates(ident, "a")
    const = lconst("a", AB)
    for _ in range(20):
        oi, oc = observe(same), observe(const)
        assert oi[0] == oc[0] == "a"
        same, const = oi[1], oc[1]
    with pytest.raises(UnknownAtom):
        iterates(succ, "zz")


def test_lmap(succ):
    obs = observe(lmap(succ, cons("x0", lconst("x2", Alphabet(("x0", "x2"))), Alphabet(("x0", "x2")))))
    assert obs[0] == "x1"
    assert take(3, lmap(succ, iterates(succ, "x0"))) == (["x1", "x2", "x3"], False)


def test_lappend():
    assert observe(lappend(nil(), nil())) is None
    assert take(3, lappend(nil(), cons("a", lconst("b", AB), AB))) == (
        ["a", "b", "b"],
        False,
    )
    assert take(3, lappend(cons("a", nil(), AB), cons("b", nil(), AB))) == (
        ["a", "b"],
        True,
    )


def test_take_zero_convention():
    assert take(0, nil()) == ([], False)
    assert take(0, lconst("a", AB)) == ([], False)


def test_lcorf_examples():
    stop = machine("stop", {"a": None})
    assert lcorf(0, "a", stop) == EMPTY_TREE
    assert lcorf(1, "a", stop) == NIL_TREE

    once = machine("once", {"a": ("b", "z"), "z": None})
    assert lcorf(2, "a", once) == cons_tree(leaf("b"), NIL_TREE)
    with pytest.raises(UnknownSeed):
        lcorf(1, "zz", stop)


def test_lcorf_chain_and_fuel_stability():
    rng = random.Random(5)
    for i in range(20):
        m = random_machine(rng, f"m{i}")
        for seed in m.seeds:
            approx = [lcorf(k, seed, m) for k in range(14)]
            for k in range(13):
                assert set(approx[k].nodes) <= set(approx[k + 1].nodes)
            for k in range(13):
                for fuel in range(k, 14):
                    assert ntrunc(k, approx[fuel]) == ntrunc(k, approx[k])


def compile_machine(l, limit):
    """Flatten the states of `l`'s chain into an equivalent StepFn whose
    seeds are the states' keys and whose table is the chain's steps; the
    start seed is returned alongside.  The chain must close within
    `limit` observations, else a successor seed is undeclared and
    `StepFn` refuses the table."""
    steps = reachable_states(l, limit)
    return StepFn("compiled", tuple(steps), steps), next(iter(steps))


def compiled_trunc(k, l):
    """The oracle for `tree_trunc`: compile every reachable state into a
    machine, take its k-fuel approximant and cut it below depth k."""
    machine, seed = compile_machine(l, 10_000)
    return ntrunc(k, lcorf(k, seed, machine))


def test_tree_trunc_matches_compiled_oracle():
    rng = random.Random(8)
    machines = [random_machine(rng, f"m{i}") for i in range(8)]
    for i in range(1200):
        l = random_state(rng, machines)
        for k in {i % 41, rng.randrange(41)}:
            assert tree_trunc(k, l) == compiled_trunc(k, l)


def test_tree_trunc_compiles_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("tree_trunc must not observe tails or key states")

    rng = random.Random(3)
    machines = [random_machine(rng, f"m{i}") for i in range(4)]
    cases = [(k, random_state(rng, machines)) for k in range(30)]
    expected = [compiled_trunc(k, l) for k, l in cases]
    for name in ("observe", "state_key"):
        monkeypatch.setattr(colist, name, refuse)
    assert [tree_trunc(k, l) for k, l in cases] == expected


def test_tree_trunc_observes_half_the_depth(succ):
    """At most k // 2 heads, and none past the close of the cycle of
    period 4 (no prefix)."""
    f = CountingFun(succ)
    l = lmap(f, iterates(succ, "x0"))
    for k in range(-1, 20):
        f.calls = 0
        tree_trunc(k, l)
        assert f.calls <= min(max(k // 2, 0), 0 + 4)


def test_tree_trunc_of_a_long_chain():
    """A 2*10^4-cell chain, past the former 10^4 bound: the fold reads
    only its first 12 cells, without recursion."""
    assert sys.getrecursionlimit() <= 10**4

    def chain(n):
        l = lconst("c", ABC)
        for i in reversed(range(n)):
            l = cons("ab"[i % 2], l, ABC)
        return l

    assert tree_trunc(24, chain(2 * 10**4)) == compiled_trunc(24, chain(13))


def test_tree_trunc():
    assert tree_trunc(0, lconst("a", AB)) == EMPTY_TREE
    assert tree_trunc(3, cons("a", nil(), AB)) == ntrunc(
        3, cons_tree(leaf("a"), NIL_TREE)
    )
    const = lconst("a", AB)
    for k in range(13):
        assert tree_trunc(k, const) == tree_trunc(k, cons("a", const, AB))


def decode_prefix(tree, count):
    """Test-side oracle: read heads back from the tree encoding."""
    elems = []
    cur = tree
    for _ in range(count):
        shape = case_tree(cur)
        assert isinstance(shape, SconsShape)
        if shape.left == numb(0):
            break
        inner = case_tree(shape.right)
        head = case_tree(inner.left)
        assert isinstance(head, AtomShape) and isinstance(head.label, UserAtom)
        elems.append(head.label.symbol)
        cur = inner.right
    return elems


def test_truncation_agrees_with_observation():
    rng = random.Random(17)
    for i in range(25):
        m = random_machine(rng, f"m{i}")
        l = corec(m.seeds[0], m)
        for j in range(6):
            expected = take(j, l)[0]
            tree = tree_trunc(2 * j + 2, l)
            if tree.is_empty:
                assert j == 0
                continue
            assert decode_prefix(tree, j) == expected


def test_check_llist_upto():
    rng = random.Random(23)
    for i in range(10):
        m = random_machine(rng, f"m{i}")
        assert check_llist_upto(20, corec(m.seeds[0], m), ("a", "b", "c"))
    assert check_llist_upto(0, lconst("a", AB), ())
    verdict = check_llist_upto(2, lconst("a", AB), ("b",))
    assert not verdict and verdict.witness == 0


def test_observation_counts(succ):
    """take and check_llist_upto observe no further than they report,
    nor past the close of the list's cycle: at most min(k, prefix +
    period) calls, here with no prefix and period 4."""
    f = CountingFun(succ)
    l = lmap(f, iterates(succ, "x0"))
    assert (take(0, l), f.calls) == (([], False), 0)
    assert (take(-1, l), f.calls) == (([], False), 0)
    assert take(5, l) == (["x1", "x2", "x3", "x0", "x1"], False)
    assert f.calls <= min(5, 0 + 4)
    f.calls = 0
    assert check_llist_upto(10, l, ("x1", "x2")) == Verdict(False, "head x3 outside allowed atoms", 2)
    assert f.calls <= 3
    f.calls = 0
    assert check_llist_upto(6, l, MOD4_SYMS) and f.calls <= min(6, 0 + 4)
    f.calls = 0
    assert check_llist_upto(0, l, ()) and f.calls == 0
    alpha = Alphabet(MOD4_SYMS)
    short = lmap(f, cons("x0", cons("x1", nil(), alpha), alpha))
    assert (take(9, short), f.calls) == ((["x1", "x2"], True), 2)


def test_compile_machine_preserves_observation(succ):
    l = lappend(lmap(succ, iterates(succ, "x0")), nil())
    m, seed = compile_machine(l, 100)
    compiled = corec(seed, m)
    direct = l
    for _ in range(12):
        o1, o2 = observe(direct), observe(compiled)
        assert (o1 is None) == (o2 is None)
        if o1 is None:
            break
        assert o1[0] == o2[0]
        direct, compiled = o1[1], o2[1]


def test_state_keys():
    assert state_key(nil()) == "NIL"
    assert state_key(lconst("a", AB)) == "CONST(a)"
    assert state_key(cons("a", nil(), AB)) == "CONS(a,NIL)"
    two = machine("two", {"s0": ("a", "s1"), "s1": ("b", "s0")})
    assert state_key(corec("s1", two)) == "M(two,s1)"
    f = AtomFun("f", {"a": "a", "b": "b"})
    assert state_key(lmap(f, lappend(nil(), iterates(f, "a")))) == (
        "MAP(f,APP(NIL,ITER(f,a)))"
    )


def _cons_layer(l):
    """The head and tail of a cons state, a run read as its outermost
    cell, from its fields alone."""
    at = l.at + 1
    return l.heads[l.at], l.rest if at == len(l.heads) else ConsList(l.heads, at, l.rest)


def _map_layer(l):
    """The function and source of a map state's outermost map."""
    fn, *inner = l.fns
    return fn, MapList(tuple(inner), l.source) if inner else l.source


def _append_layer(l):
    """The left and right states of an append state's outermost append."""
    if l.layers == 1:
        return l.left, l.right
    return NilList(), AppendList(l.left, l.right, l.layers - 1)


def _reference_key(l):
    """The plain recursive serializer, one layer of a run at a time: the
    oracle for `state_key`."""
    if isinstance(l, NilList):
        return "NIL"
    if isinstance(l, ConsList):
        head, tail = _cons_layer(l)
        return f"CONS({head},{_reference_key(tail)})"
    if isinstance(l, ConstList):
        return f"CONST({l.sym})"
    if isinstance(l, IterList):
        return f"ITER({l.fn.name},{l.sym})"
    if isinstance(l, MapList):
        fn, source = _map_layer(l)
        return f"MAP({fn.name},{_reference_key(source)})"
    if isinstance(l, AppendList):
        left, right = _append_layer(l)
        return f"APP({_reference_key(left)},{_reference_key(right)})"
    if isinstance(l, MachineList):
        return f"M({l.machine.name},{l.seed})"
    if isinstance(l, TowerList):  # an observed tail, as a cons cell's rest
        return _reference_key(_unzip(l))
    raise TypeError(l)


def _reference_observe(l):
    """The plain recursive one-step equations, rebuilding every layer of a
    map/append tower, one layer of a run at a time: the oracle for
    `observe`.  Its tails are nested states of one layer each, which
    `_reference_key` reads."""
    if isinstance(l, NilList):
        return None
    if isinstance(l, ConsList):
        return _cons_layer(l)
    if isinstance(l, ConstList):
        return l.sym, l
    if isinstance(l, IterList):
        return l.sym, IterList(l.fn, l.fn(l.sym))
    if isinstance(l, MapList):
        fn, source = _map_layer(l)
        obs = _reference_observe(source)
        if obs is None:
            return None
        head, tail = obs
        return fn(head), MapList((fn,), tail)
    if isinstance(l, AppendList):
        left, right = _append_layer(l)
        obs = _reference_observe(left)
        if obs is not None:
            head, tail = obs
            return head, AppendList(tail, right, 1)
        obs = _reference_observe(right)
        if obs is None:
            return None
        head, tail = obs
        return head, AppendList(NilList(), tail, 1)
    if isinstance(l, MachineList):
        act = l.machine.step(l.seed)
        if act is None:
            return None
        sym, nxt = act
        return sym, MachineList(l.machine, nxt)
    raise TypeError(l)


def _reference_term(l):
    """Nested states as tuples, one per layer of a run, compared field
    by field as the frozen dataclasses compared them: the oracle for
    `==` and `hash`."""
    if isinstance(l, ConsList):
        head, tail = _cons_layer(l)
        return ("cons", head, _reference_term(tail))
    if isinstance(l, MapList):
        fn, source = _map_layer(l)
        return ("map", fn, _reference_term(source))
    if isinstance(l, AppendList):
        left, right = _append_layer(l)
        return ("app", _reference_term(left), _reference_term(right))
    assert isinstance(l, (NilList, ConstList, IterList, MachineList)), l
    return l


def _unzip(state):
    """The nested state a zipper names, rebuilt frame by frame, one run
    state per frame."""
    l, frame = state.live, state.frames
    while frame is not None:
        if frame.fns is not None:
            l = MapList(tuple(frame.fns), l)
        elif frame.right is not None:
            l = AppendList(l, frame.right, 1)
        else:
            l = AppendList(NilList(), l, frame.nils)
        frame = frame.up
    return l


SWAP = AtomFun("swap", {"a": "b", "b": "a"})
LOWER = AtomFun("lower", {"a": "a", "b": "a"})  # does not commute with swap
# cons heads of a recipe: a symbol several characters long, too, and a
# swap that maps it to itself for the recipes that carry it
HEADS = Alphabet(("a", "b", "q00"))
SWAP_Q00 = AtomFun("swap", {"a": "b", "b": "a", "q00": "q00"})
TWO = machine("two", {"s0": ("a", "s1"), "s1": ("b", "s0")})
STOPS = machine("stops", {"u0": ("a", "u1"), "u1": ("b", "u2"), "u2": None})
RHO = machine("rho", {"r0": ("b", "r1"), "r1": ("a", "r2"), "r2": ("a", "r3"), "r3": ("b", "r2")})
TRI = machine("tri", {"t0": ("a", "t1"), "t1": ("a", "t2"), "t2": ("b", "t0")})
MACHINES = {seed: m for m in (TWO, STOPS, RHO, TRI) for seed in m.seeds}
_LEAF_OPS = st.one_of(
    st.just(("nil",)),
    st.tuples(st.just("const"), st.sampled_from("ab")),
    st.tuples(st.just("iter"), st.sampled_from("ab")),
    st.tuples(st.just("machine"), st.sampled_from(sorted(MACHINES))),
)


@functools.lru_cache(maxsize=None)
def _recipe_step(count, towers, heads):
    """The strategy for the step after `count` steps: built once per
    count, as Hypothesis spends most of a recipe building strategies."""
    earlier = st.integers(min_value=0, max_value=count - 1)
    run = st.integers(min_value=2, max_value=8)
    fns = st.sampled_from((SWAP, LOWER) if towers else (SWAP,))
    steps = [
        st.tuples(st.just("cons"), st.sampled_from(heads), earlier),
        st.tuples(st.just("cons"), st.sampled_from(heads), st.just(count - 1)),
        st.tuples(st.just("map"), earlier),
        st.tuples(st.just("append"), earlier, earlier),
        _LEAF_OPS,
        # runs: k maps, k append(nil, .) layers, k cons cells
        st.tuples(st.just("maps"), earlier, st.lists(fns, min_size=2, max_size=8).map(tuple)),
        st.tuples(st.just("nils"), earlier, run),
        st.tuples(st.just("conses"), st.lists(st.sampled_from(heads), min_size=2, max_size=8)
                  .map(tuple), earlier),
    ]
    if towers:
        steps.append(st.tuples(st.just("map"), earlier, st.just(LOWER)))
        steps.append(st.tuples(st.just("tail"), earlier, st.integers(1, 6)))
    return st.one_of(*steps)


@st.composite
def state_recipes(draw, max_ops=14, towers=False, heads=("a", "b")):
    """Build steps; each step's operands index earlier steps, so states
    share tails.  Cons cells take their heads from `heads`.  A step may
    build a run of 2 to 8 maps, `append(nil, .)` layers or cons cells at
    once.  With `towers`, a step may also map a function that does not
    commute with swap, alone or inside a run, or observe an earlier state
    up to six times and build on the tail it reaches."""
    ops = [draw(_LEAF_OPS)]
    for _ in range(draw(st.integers(min_value=0, max_value=max_ops))):
        ops.append(draw(_recipe_step(len(ops), towers, heads)))
    return ops


def build_states(ops, step=observe, fns=None, runs=False):
    """The states a recipe builds; a "tail" step observes with `step`.
    `fns` maps SWAP, LOWER and the machines to what is built in their
    place.  With `runs`, a run step builds one state, as the reader
    does; else one state per layer, with the library constructors."""
    fns = fns or {}
    built = []
    for op in ops:
        kind, args = op[0], op[1:]
        if kind == "nil":
            built.append(nil())
        elif kind == "const":
            built.append(lconst(args[0], AB))
        elif kind == "iter":
            built.append(iterates(fns.get(SWAP, SWAP), args[0]))
        elif kind == "machine":
            m = MACHINES[args[0]]
            built.append(corec(args[0], fns.get(m, m)))
        elif kind == "cons":
            built.append(cons(args[0], built[args[1]], HEADS))
        elif kind == "map":
            fn = args[1] if len(args) > 1 else SWAP
            built.append(lmap(fns.get(fn, fn), built[args[0]]))
        elif kind == "append":
            built.append(lappend(built[args[0]], built[args[1]]))
        elif runs and kind == "maps":  # the last function is the outermost map
            run = tuple(fns.get(fn, fn) for fn in reversed(args[1]))
            built.append(MapList(run, built[args[0]]))
        elif runs and kind == "nils":
            built.append(AppendList(nil(), built[args[0]], args[1]))
        elif runs and kind == "conses":
            built.append(ConsList(args[0], 0, built[args[1]]))
        elif kind == "maps":
            state = built[args[0]]
            for fn in args[1]:
                state = lmap(fns.get(fn, fn), state)
            built.append(state)
        elif kind == "nils":
            state = built[args[0]]
            for _ in range(args[1]):
                state = lappend(nil(), state)
            built.append(state)
        elif kind == "conses":
            state = built[args[1]]
            for head in reversed(args[0]):
                state = cons(head, state, HEADS)
            built.append(state)
        else:
            state = built[args[0]]
            for _ in range(args[1]):
                obs = step(state)
                if obs is None:
                    break
                state = obs[1]
            built.append(state)
    return built


# one cons cell, CONS(a,NIL), is the tail of two cells whose heads
# differ in length, under an append that walks through both
_SHARED_TAIL = [("nil",), ("cons", "a", 0), ("cons", "q00", 1), ("cons", "b", 1), ("append", 2, 3),
                ("map", 4)]


@settings(max_examples=200, deadline=None)
@given(state_recipes(heads=tuple(HEADS)), st.integers(min_value=0, max_value=20), st.booleans())
@example(_SHARED_TAIL, 8, True)
@example(_SHARED_TAIL, 8, False)
def test_state_key_matches_reference(ops, steps, root_first):
    """Keys of built and walked states, asked for root first or suffix
    first, match the recursive serializer; a cons cell's key may be a
    slice of its parent's, and each is checked when asked for."""
    built = build_states(ops, fns={SWAP: SWAP_Q00})
    walk = [(built[-1], built[-1])]  # (state, the oracle's state)
    for _ in range(steps):
        obs = observe(walk[-1][0])
        if obs is None:
            break
        walk.append((obs[1], _reference_observe(walk[-1][1])[1]))
    # root-first keys the outermost states before their tails, so each
    # cons chain is written once and its cells below take slices of it;
    # suffix-first keys tails first, so each write stops at a cell that
    # already holds its key
    pairs = [(b, b) for b in built]
    order = walk + pairs[::-1] if root_first else pairs + walk[::-1]
    for state, ref in order:
        key = state_key(state)
        assert key == _reference_key(ref)
        assert state_key(state) == key

    fresh = build_states(ops, fns={SWAP: SWAP_Q00})[-1]
    keyed = built[-1]
    assert fresh == keyed and keyed == fresh
    assert hash(fresh) == hash(keyed)
    assert repr(fresh) == repr(keyed)


# a run of maps over the tail of another run, observed inside it, under
# a run of append(nil, .) layers
_RUN_OVER_ZIPPER = [("iter", "a"), ("maps", 0, (SWAP, LOWER, SWAP)), ("tail", 1, 3),
                    ("maps", 2, (LOWER, SWAP)), ("nils", 3, 3)]
# a cons cell inside three append(nil, .) layers, appended to a constant
# inside two more, under a run of maps: its end pops across the inner
# nil run and keeps the outer one
_POP_ACROSS_NILS = [("nil",), ("cons", "a", 0), ("nils", 1, 3), ("const", "b"), ("append", 2, 3),
                    ("nils", 4, 2), ("maps", 5, (SWAP, LOWER)), ("tail", 6, 1), ("nils", 7, 2)]


@settings(max_examples=200, deadline=None)
@given(state_recipes(max_ops=20, towers=True), st.integers(min_value=0, max_value=50))
@example(_RUN_OVER_ZIPPER, 8)
@example(_POP_ACROSS_NILS, 4)
def test_towers_match_the_recursive_oracle(ops, steps):
    """Random mixed map/append/cons/corec towers, with runs of layers and
    some built on observed tails, walked up to 50 steps beside the
    oracle's nested states: equal heads and ends, keys, `==` and
    `hash`."""
    states = build_states(ops)
    refs = build_states(ops, _reference_observe)
    walk = [(states[-1], refs[-1])]
    for _ in range(steps):
        obs, ref = observe(walk[-1][0]), _reference_observe(walk[-1][1])
        assert (obs is None) == (ref is None)
        if obs is None:
            break
        assert obs[0] == ref[0]
        walk.append((obs[1], ref[1]))
    for state, ref in walk + list(zip(states, refs)):
        assert state_key(state) == _reference_key(ref)
        assert state == ref and ref == state and hash(state) == hash(ref)
    terms = [_reference_term(ref) for _, ref in walk]
    for (a, _), ta in zip(walk, terms):
        for (b, _), tb in zip(walk, terms):
            assert (a == b) == (ta == tb)
            if ta == tb:
                assert hash(a) == hash(b)


LOWER_Q00 = AtomFun("lower", {"a": "a", "b": "a", "q00": "q00"})
# the functions and machines of a recipe over HEADS, and the same by name
# for the texts that spell a recipe's states
RUN_FNS = {SWAP: SWAP_Q00, LOWER: LOWER_Q00}
RUN_DEFS = Definitions(HEADS, {"swap": SWAP_Q00, "lower": LOWER_Q00},
                       {m.name: m for m in MACHINES.values()})


def recipe_texts(ops, longest=2000):
    """The expression that spells each state a recipe builds, or None for
    a state built on an observed tail or longer than `longest`, as a
    text repeats each tail it shares."""
    texts = []
    for op in ops:
        kind, args = op[0], op[1:]
        text = inner = None
        if kind == "nil":
            text = "nil"
        elif kind == "const":
            text = f"lconst({args[0]})"
        elif kind == "iter":
            text = f"iterates(swap,{args[0]})"
        elif kind == "machine":
            text = f"corec({MACHINES[args[0]].name},{args[0]})"
        elif kind == "append":
            left, right = texts[args[0]], texts[args[1]]
            text = None if left is None or right is None else f"append({left},{right})"
        elif kind in ("cons", "conses"):
            heads = args[0] if kind == "conses" else [args[0]]
            inner, opens = texts[args[1]], [f"cons({head}," for head in heads]
        elif kind == "nils":
            inner, opens = texts[args[0]], ["append(nil,"] * args[1]
        elif kind != "tail":  # map or maps, the last function outermost
            named = args[1] if kind == "maps" else args[1:] or (SWAP,)
            inner, opens = texts[args[0]], [f"map({fn.name}," for fn in reversed(named)]
        if inner is not None:
            text = "".join(opens) + inner + ")" * len(opens)
        texts.append(text if text is None or len(text) <= longest else None)
    return texts


# runs built on observed run states: a cons run over a cons run's tail at
# offset 2, a map run over that, observed into, under append(nil, .)
# layers that share the first run on the right
_RUNS_ON_TAILS = [("iter", "a"), ("conses", ("a", "q00", "b"), 0), ("tail", 1, 2),
                  ("conses", ("b", "a"), 2), ("maps", 3, (SWAP, LOWER)), ("tail", 4, 3),
                  ("nils", 5, 3), ("append", 6, 1)]


@settings(max_examples=200, deadline=None)
@given(state_recipes(max_ops=20, towers=True, heads=tuple(HEADS)),
       st.integers(min_value=0, max_value=30))
@example(_RUNS_ON_TAILS, 12)
def test_run_states_match_layer_states(ops, steps):
    """Each state of a random recipe, built as run states -- read from
    its text, or one state per run with the run constructors where it is
    built on an observed tail -- against the same list built one layer
    at a time with the library constructors and against the recursive
    oracle: the same `take`, the same observations, and at each step the
    same key, `==` and `hash`.  Runs share tails, and each state is keyed
    before it is observed, so tails take their keys as slices."""
    layers = build_states(ops, fns=RUN_FNS)
    refs = build_states(ops, _reference_observe, fns=RUN_FNS)
    runs = build_states(ops, fns=RUN_FNS, runs=True)
    texts = recipe_texts(ops)
    read = [None if text is None else read_states(text, RUN_DEFS) for text in texts]
    assert texts[0] is not None
    for layered, nested, *built in zip(layers, refs, runs, read):
        for state in built:
            if state is None:
                continue
            assert take(steps, state) == take(steps, layered)
            twin, ref = layered, nested
            for _ in range(steps):
                assert state_key(state) == state_key(twin) == _reference_key(ref)
                assert state == twin and hash(state) == hash(twin)
                obs, obs_twin, obs_ref = observe(state), observe(twin), _reference_observe(ref)
                assert (obs is None) == (obs_twin is None) == (obs_ref is None)
                if obs is None:
                    break
                assert obs[0] == obs_twin[0] == obs_ref[0]
                state, twin, ref = obs[1], obs_twin[1], obs_ref[1]


def _oracle_steps(l, n):
    """The first n steps of `l`'s chain read as `walk_states` reads it,
    with `unfold` and `state_key`: (head, tail key) per state, then None
    if the list ended within them."""
    out = [(head, state_key(tail)) for head, tail in islice(unfold(l), n)]
    return out + [None] * (len(out) < n)


def _steps_match_the_oracle(make, n):
    """`colist.steps` on the state `make()` builds, into a fresh table,
    against `_oracle_steps` on a second build: the root's id and each
    tail id it yields name the key the recursive serializer writes, read
    one id at a time and all at once.  Its key function is called for no
    cons state.  Returns the number of cons cells interned."""
    expected = _oracle_steps(make(), n)
    state = make()
    table = colist.Interner()
    keyed = []
    stepper = colist.steps(state, table, lambda l: keyed.append(l) or state_key(l))
    root = next(stepper)
    got = list(islice(stepper, len(expected)))
    ids = [root] + [step[1] for step in got if step is not None]
    texts = [table.texts([i])[0] for i in ids]
    assert texts == table.texts(ids) == [_reference_key(state)] + [key for _, key in filter(None, expected)]
    assert [None if step is None else step[0] for step in got] == [
        None if step is None else step[0] for step in expected]
    assert not any(isinstance(l, ConsList) for l in keyed)
    assert [table.sizes[i] for i in ids] == list(map(len, texts))
    return sum(type(entry) is tuple for entry in table.entries)


def _key_size(ops) -> int:
    """An upper estimate of the key length of the last state a recipe
    builds, read from the recipe alone: a recipe that appends a state to
    itself doubles it, and writing such keys, not stepping, would take
    a test's time."""
    size = []
    for op in ops:
        kind, args = op[0], op[1:]
        if kind in ("nil", "const", "iter", "machine"):
            size.append(16)
        elif kind == "cons":
            size.append(len(args[0]) + 7 + size[args[1]])
        elif kind == "map":
            size.append(12 + size[args[0]])
        elif kind == "append":
            size.append(6 + size[args[0]] + size[args[1]])
        elif kind == "maps":
            size.append(12 * len(args[1]) + size[args[0]])
        elif kind == "nils":
            size.append(9 * args[1] + size[args[0]])
        elif kind == "conses":
            size.append(sum(len(h) + 7 for h in args[0]) + size[args[1]])
        else:  # a tail: its key is at most a seed's or symbol's longer
            size.append(16 + size[args[0]])
    return size[-1]


# cons cells on an observed map tower: the second cell's tail, keyed by
# a slice, is a cons cell whose rest is a zipper
_CONS_ON_A_ZIPPER = [("nil",), ("cons", "a", 0), ("cons", "a", 1), ("map", 1), ("tail", 3, 1),
                     ("cons", "a", 4), ("cons", "a", 5)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(state_recipes(max_ops=20, towers=True, heads=tuple(HEADS)), st.booleans(), st.booleans(),
       st.integers(min_value=0, max_value=30))
@example(_RUNS_ON_TAILS, True, True, 12)
@example(_SHARED_TAIL, False, True, 8)
@example(_CONS_ON_A_ZIPPER, False, False, 1)
def test_steps_match_the_oracle(ops, runs, keyed, n):
    """`colist.steps` over every state of a random recipe -- runs built
    as the reader builds them or cell by cell, towers and zippers whose
    live state is a run, machines -- with each state keyed first or not,
    so that towers do or do not memoize their frames' text.  Recipes
    whose keys would pass 10^4 characters are skipped."""
    assume(_key_size(ops) <= 10**4)

    def make():
        built = build_states(ops, fns=RUN_FNS, runs=runs)
        if keyed:
            for state in built:
                state_key(state)
        return built[-1]

    _steps_match_the_oracle(make, n)


def test_steps_of_random_states_match_the_oracle():
    """`colist.steps` over random mixed states and over cons chains and
    runs around them, read as one run, cell by cell, from an offset, or
    inside a map tower keyed before the walk: the oracle's
    steps, with the chains' cons cells interned with no text."""
    rng = random.Random(71)
    machines = [random_machine(rng, f"m{i}") for i in range(4)]
    interned = 0
    for i in range(300):
        seed = rng.random()
        heads = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        shape = i % 4

        def make():
            rest = random_state(random.Random(seed), machines)
            if shape == 0 or not heads:
                return rest
            if shape == 1:
                return ConsList(heads, 0, rest)
            if shape == 2:
                for head in reversed(heads):
                    rest = cons(head, rest, ABC)
                return rest
            run = ConsList(("c",) + heads, 1, rest)
            state_key(run)
            return lmap(ROT, run)

        interned += _steps_match_the_oracle(make, rng.randint(0, 12))
    assert interned > 0


_REST_TEXTS = ("nil", "lconst(a)", "iterates(rot,b)", "corec(m0,m0_s0)", "corec(m1,m1_s0)",
               "map(rot,lconst(c))", "append(cons(a,nil),lconst(b))")


def _walked_list(rng, defs, heads, rest):
    """A fresh list of the symbols `heads`, then the list the text `rest`
    reads as: a reader-built run, cells built one `cons` at a time, a run
    read from an offset, that run inside a map or an `append` tower, a
    machine list, or a random list."""
    shape = rng.randrange(7)
    if shape == 0:
        return read_states("".join(f"cons({h}," for h in heads) + rest + ")" * len(heads), defs)
    tail = read_states(rest, defs)
    if shape == 1:
        for h in reversed(heads):
            tail = cons(h, tail, ABC)
        return tail
    run = ConsList(("c", "a") + heads, 2, tail)
    if shape == 2:
        return run
    if shape == 3:
        return lmap(ROT, run)
    if shape == 4:
        return lappend(nil(), run) if rng.random() < 0.5 else lappend(run, lconst("c", ABC))
    machines = list(defs.machines.values())
    if shape == 5:
        m = rng.choice(machines)
        return corec(rng.choice(m.seeds), m)
    return random_state(rng, machines)


def _forged(rng, key):
    """`key` with the head of one of its cons cells, picked at random,
    changed to another symbol of the same length."""
    at = rng.choice([m.end() for m in re.finditer(r"CONS\(", key)])
    head = key[at:key.index(",", at)]
    return key[:at] + rng.choice([s for s in "abc" if s != head]) + key[at + len(head):]


def test_resolver_matches_the_oracle():
    """`Interner.resolver` names keys as the hashing oracle does, the
    texts of the walked ids, `dict(zip(table.texts(ids), ids)).get`.  Over
    the walks of two random lists, often with the same heads or rest, it
    agrees on every walked key, a cons key forged with another head of
    the same length, the key one state past each walk and keys no state
    has, one key at a time, all keys at once and a walk's keys at once."""
    rng = random.Random(79)
    machines = [random_machine(rng, f"m{i}") for i in range(2)]
    defs = Definitions(ABC, {"rot": ROT}, {m.name: m for m in machines})
    seen = set()
    for _ in range(300):
        heads = tuple(rng.choice("abc") for _ in range(rng.randint(1, 6)))
        rest = rng.choice(_REST_TEXTS)
        other = heads[:rng.randint(1, len(heads))] if rng.random() < 0.5 else heads
        table = colist.Interner()
        lists = [_walked_list(rng, defs, heads, rest),
                 _walked_list(rng, defs, other, rng.choice((rest,) + _REST_TEXTS))]
        walks = [reachable_states(l, rng.randint(0, 10), table) for l in lists]
        walked = [i for walk in walks for i in walk]
        oracle = dict(zip(table.texts(walked), walked)).get
        past = [walk[last][1] for walk in walks for last in [list(walk)[-1]]
                if walk[last] is not None and walk[last][1] not in walk]
        keys = table.texts(walked + past)
        keys += [_forged(rng, key) for key in keys if key.startswith("CONS(")]
        keys += ["NOPE", "CONS(a,NOPE)", "CONST(z)", "CONS(a,NIL"]
        resolve = table.resolver(walks)
        expected = list(map(oracle, keys))
        assert [resolve([key])[0] for key in keys] == expected
        assert resolve(keys) == expected
        for walk in walks:
            column = table.texts(walk)
            assert resolve(column) == list(map(oracle, column))
        seen.update((key[:5], i is None) for key, i in zip(keys, expected))
    assert {("CONS(", True), ("CONS(", False), ("M(m0,", False), ("MAP(r", False)} <= seen


def _oracle_take(k, l):
    """`take` as one `observe` per head, through `unfold`: the oracle for
    the head-stream `take`."""
    elems = [head for head, _ in islice(unfold(l), max(k, 0))]
    return elems, len(elems) < k


def _oracle_check(k, l, atoms):
    """`check_llist_upto` through `unfold`: the oracle for the head-stream
    check."""
    allowed = frozenset(atoms)
    for i, (head, _) in enumerate(islice(unfold(l), max(k, 0))):
        if head not in allowed:
            return Verdict(False, f"head {head} outside allowed atoms", i)
    return Verdict(True)


def _oracle_eq_upto(k, l1, l2):
    """`eq_upto` as one synchronized `step_pair` per position: the oracle for
    the head-stream `eq_upto`."""
    pair = (l1, l2)
    for i in range(k):
        pair = step_pair(*pair)
        if pair is None:
            return Verdict(True)
        if isinstance(pair, str):
            return Verdict(False, pair, i)
    return Verdict(True)


class _Holed(CountingFun):
    """A CountingFun whose table can lose one entry after the states are
    built, so `iterates` accepts every start symbol and a recipe builds
    the same states with or without a hole.  Applying it to the hole
    raises, whether a layer calls it or reads its table."""

    def open_hole(self, sym):
        del self.table[sym]


class _CountingMachine(StepFn):
    """A StepFn that counts its steps: one per observation of its states."""

    def __init__(self, m):
        super().__init__(m.name, m.seeds, m.table)
        self.calls = 0

    def step(self, seed):
        self.calls += 1
        return super().step(seed)


HOLES = [None, (SWAP, "a"), (SWAP, "b"), (LOWER, "a"), (LOWER, "b")]


@settings(max_examples=150, deadline=None)
@given(
    state_recipes(max_ops=20, towers=True),
    st.integers(min_value=0, max_value=16),
    st.sampled_from(HOLES),
    st.integers(min_value=0, max_value=20),
)
def test_head_streams_match_the_observe_oracle(ops, depth, hole, other):
    """`take`, `check_llist_upto` and `eq_upto` read heads without tail
    states and stop once a list's cycle closes; at every bound up to
    `depth` they return what the loops over `observe` return, or raise
    the same error, after at most the same function calls and machine
    steps.  The recipes cover machines that stop, machines with a prefix
    before their cycle, and towers that pop into a cycling list; a hole
    in a partial table may be met in a list's prefix, inside its first
    cycle, or not at all, and the bounds run past where cycles close.
    Each run builds its states afresh, so no map memo carries over from
    another run."""

    def run(loop, k):
        fns = {SWAP: _Holed(SWAP), LOWER: _Holed(LOWER)}
        fns.update({m: _CountingMachine(m) for m in set(MACHINES.values())})
        states = build_states(ops, fns=fns)
        if hole is not None:
            fns[hole[0]].open_hole(hole[1])
        for f in fns.values():
            f.calls = 0
        try:
            outcome = loop(k, states[-1], states[other % len(states)])
        except UnknownAtom as exc:
            outcome = (type(exc), str(exc))
        return outcome, [f.calls for f in fns.values()]

    pairs = [
        (lambda k, l, _: take(k, l), lambda k, l, _: _oracle_take(k, l)),
        (lambda k, l, _: check_llist_upto(k, l, "a"), lambda k, l, _: _oracle_check(k, l, "a")),
        (lambda k, l, m: eq_upto(k, l, m), lambda k, l, m: _oracle_eq_upto(k, l, m)),
        (lambda k, l, m: eq_upto(k, m, l), lambda k, l, m: _oracle_eq_upto(k, m, l)),
    ]
    for k in range(depth + 1):
        for fast, oracle in pairs:
            outcome, calls = run(fast, k)
            expected, oracle_calls = run(oracle, k)
            assert outcome == expected
            assert all(map(int.__le__, calls, oracle_calls)), (calls, oracle_calls)


@settings(max_examples=150, deadline=None)
@given(state_recipes(max_ops=20, towers=True, heads=tuple(HEADS)), st.booleans(),
       st.integers(min_value=-1, max_value=40), st.integers(min_value=41, max_value=400))
def test_eval_and_trunc_writers_match_their_oracles(ops, runs, depth, deep):
    """The `eval` and `trunc` texts, written from one `read_lasso`, against
    `take` through `observe` in `_render_prefix`'s format and against
    `dump_tree(tree_trunc(k, l))`, on recipes of cons runs, towers and
    machines (some of which stop), at depths up to and past where their
    cycles close."""
    l = build_states(ops, fns=RUN_FNS, runs=runs)[-1]
    for k in (depth, deep):
        assert "".join(cli._eval_text(k, l)) == cli._render_prefix(*_oracle_take(k, l)) + "\n"
        assert "".join(cli._trunc_text(k, l)) == dump_tree(tree_trunc(k, l))


def _lasso_list(prefix, cycle, shape):
    """A list of the heads `prefix`, then `cycle` repeated, as a machine
    with one seed per head or as cons cells over a machine's cycle."""
    if shape == "cons":
        tail = corec("c0", machine("cyc", {f"c{i}": (x, f"c{(i + 1) % len(cycle)}")
                                           for i, x in enumerate(cycle)}))
        for x in reversed(prefix):
            tail = cons(x, tail, AB)
        return tail
    word = prefix + cycle
    table = {f"w{i}": (x, f"w{i + 1 if i + 1 < len(word) else len(prefix)}")
             for i, x in enumerate(word)}
    return corec("w0", machine("lasso", table))


def test_lassos_agree_by_fine_and_wilf():
    """Two lassos with prefixes m1, m2 and periods c1, c2 that agree on
    their first max(m1, m2) + c1 + c2 positions agree everywhere, so
    `eq_upto` at depth 10^9 returns what the take lemma returns at that
    depth, within milliseconds.  Half the pairs spell one list two ways
    (the second unrolls and rotates the first's cycle), and some of those
    are changed at one position."""
    rng = random.Random(19)
    for _ in range(400):
        m1, c1 = rng.randrange(8), rng.randrange(1, 8)
        prefix1 = [rng.choice("ab") for _ in range(m1)]
        cycle1 = [rng.choice("ab") for _ in range(c1)]
        if rng.random() < 0.5:
            word = unroll(prefix1 + cycle1, c1, m1 + 3 * c1)
            m2 = m1 + rng.randrange(2 * c1)
            word = word[:m2] + word[m2:m2 + c1] * rng.randrange(1, 3)
            if rng.random() < 0.5:
                j = rng.randrange(len(word))
                word[j] = "ab"[word[j] == "a"]
            prefix2, cycle2 = word[:m2], word[m2:]
        else:
            prefix2 = [rng.choice("ab") for _ in range(rng.randrange(8))]
            cycle2 = [rng.choice("ab") for _ in range(rng.randrange(1, 8))]
        l1 = _lasso_list(prefix1, cycle1, rng.choice(("cons", "machine")))
        l2 = _lasso_list(prefix2, cycle2, rng.choice(("cons", "machine")))
        bound = max(len(prefix1), len(prefix2)) + len(cycle1) + len(cycle2)
        start = time.perf_counter()
        verdict = eq_upto(10**9, l1, l2)
        assert time.perf_counter() - start < 0.05
        assert verdict == _oracle_eq_upto(bound, l1, l2)
        assert eq_upto(bound, l1, l2) == verdict


def test_deep_reads_cost_prefix_and_period(succ):
    """`eq_upto` and `check_llist_upto` at depth 10^9 on a 40-deep map
    tower over iterates read one cycle, so they finish in milliseconds;
    `take` repeats the cycle it read."""
    f = CountingFun(succ)
    tower = iterates(succ, "x0")
    for _ in range(40):
        tower = lmap(f, tower)
    start = time.perf_counter()
    assert eq_upto(10**9, tower, iterates(succ, "x0"))
    assert check_llist_upto(10**9, tower, MOD4_SYMS)
    assert time.perf_counter() - start < 0.05
    assert f.calls <= 2 * 40 * 4  # per read, the 4 heads of the cycle through 40 maps
    assert take(10**4, tower) == (["x0", "x1", "x2", "x3"] * 2500, False)


def test_partial_tables_fail_where_layers_fail():
    """A symbol missing from a composed table is mapped one layer at a
    time, so the first function without an entry raises, at the same
    observation as under the nested equations."""
    f = AtomFun("f", {"a": "b"})
    total = AtomFun("g", {"a": "a", "b": "b"})
    short = AtomFun("h", {"a": "a"})
    source = cons("a", cons("b", lconst("a", AB), AB), AB)
    cases = [
        (lmap(total, lmap(f, source)), ["b"], "f: no entry for 'b'"),
        (lmap(short, lmap(f, source)), [], "h: no entry for 'b'"),
        (lmap(f, lmap(total, source)), ["b"], "f: no entry for 'b'"),
        # runs of maps, one frame each, whose middle function lacks the head
        (lmap(total, lmap(short, lmap(total, source))), ["a"], "h: no entry for 'b'"),
        (lmap(total, lmap(total, lmap(short, lmap(f, lmap(total, source))))), [],
         "h: no entry for 'b'"),
        (lmap(total, lmap(f, lmap(total, lmap(total, source)))), ["b"], "f: no entry for 'b'"),
    ]
    for l, expected, message in cases:
        seen = []
        for step in (observe, _reference_observe):
            state, heads = l, []
            with pytest.raises(UnknownAtom) as exc:
                while True:
                    head, state = step(state)
                    heads.append(head)
            seen.append((heads, str(exc.value)))
        assert seen == [(expected, message)] * 2


def test_one_frame_per_run(monkeypatch):
    """Observing or keying map^k(iterates(...)) or
    append(nil, .)^k(iterates(...)) pushes one frame for the whole run,
    and walking on pushes none; an alternating map(f, append(nil, ...))
    tower pushes one per layer.  Keying an observed zipper again, once
    its key is memoized, pushes none."""
    built = []

    class Counted(colist._Frame):
        __slots__ = ()

        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(colist, "_Frame", Counted)
    k = 1000
    maps = apps = alternating = iterates(SWAP, "a")
    for _ in range(k):
        maps, apps = lmap(SWAP, maps), lappend(nil(), apps)
        alternating = lmap(SWAP, lappend(nil(), alternating))
    heads = ["a", "b"] * 3
    for l, frames, layer in ((maps, 1, "MAP(swap,"), (apps, 1, "APP(NIL,"),
                             (alternating, 2 * k, "MAP(swap,APP(NIL,")):
        built.clear()
        state = l
        for head in heads:
            got, state = observe(state)
            assert got == head
        assert take(6, l) == (heads, False)
        assert len(built) == 2 * frames  # one descent each for observe and take
        key = layer * k + "ITER(swap,a)" + ")" * layer.count("(") * k
        built.clear()
        assert state_key(l) == key and len(built) == frames  # keys descend as observe does
        assert state_key(state) == key  # the zipper's innermost frame memoizes its text
        built.clear()
        assert state_key(state) == key and not built


DEEP = 10**5


def test_deep_towers_at_the_default_recursion_limit():
    """map^n and append(nil, .)^n for n = 10^5, built through the library,
    are observed, keyed, hashed, compared and searched without recursion."""
    assert sys.getrecursionlimit() <= 10**4
    const = lconst("a", AB)
    maps = again = apps = const
    for _ in range(DEEP):
        maps, again, apps = lmap(SWAP, maps), lmap(SWAP, again), lappend(nil(), apps)
    map_key = "MAP(swap," * DEEP + "CONST(a)" + ")" * DEEP
    app_key = "APP(NIL," * DEEP + "CONST(a)" + ")" * DEEP
    assert hash(maps) == hash(again) and maps == again and maps != apps
    assert state_key(maps) == map_key and state_key(apps) == app_key
    for l, key in ((maps, map_key), (apps, app_key)):
        assert take(3, l) == (["a", "a", "a"], False)
        tail = observe(l)[1]
        assert isinstance(tail, TowerList) and state_key(tail) == key
        assert tail == l and hash(tail) == hash(l) and tail != const
    assert eq_upto(50, maps, const)
    cert = find_bisimulation(maps, again, kind="strong")
    assert cert.pairs == {(map_key, map_key)}
    cert = find_bisimulation(apps, const)
    assert cert.pairs == {(app_key, "CONST(a)")} and verify_certificate(cert, apps, const)


def test_deep_states_compare_hash_and_show_by_key():
    """Cons cells and towers 3000 deep compare, hash and print by their
    keys, with loops: `repr` is the class name around the key."""
    n = 3000
    assert sys.getrecursionlimit() <= n
    const = lconst("a", AB)
    one = two = maps = apps = const
    for i in range(n):
        sym = "ab"[i % 2]
        one, two = cons(sym, one, AB), cons(sym, two, AB)
        maps, apps = lmap(SWAP, maps), lappend(cons(sym, nil(), AB), apps)
    key = state_key(one)
    assert one == two and hash(one) == hash(two) and one is not two
    assert one != cons("a", two, AB) and one != const and one != maps
    assert repr(one) == f"ConsList({key})" and key.startswith("CONS(b,CONS(a,")
    assert repr(maps) == "MapList(" + "MAP(swap," * n + "CONST(a)" + ")" * n + ")"
    assert repr(apps) == f"AppendList({state_key(apps)})"
    tail = observe(apps)[1]
    assert repr(tail) == f"TowerList({state_key(tail)})"
    assert repr(cons("a", nil(), AB)) == "ConsList(CONS(a,NIL))"


def test_states_are_frozen_dataclasses(succ):
    """Every list state is a frozen dataclass: assigning or deleting a
    field, or any other name, raises `FrozenInstanceError`, and `copy`
    and `pickle` give equal states.  A state that holds no other state
    compares, hashes and prints by its field tuple; a cons run or a tower
    by its key.  A chain of 2 * 10^4 cells built one `cons` at a time
    copies and pickles cell for cell."""
    two = machine("two", {"s0": ("a", "s1"), "s1": ("b", "s0")})
    cases = [
        (nil(), (), "NilList()"),
        (lconst("a", AB), ("a",), "ConstList(sym='a')"),
        (iterates(succ, "x1"), (succ, "x1"), "IterList(fn=AtomFun(succ), sym='x1')"),
        (corec("s1", two), (two, "s1"), "MachineList(machine=StepFn(two, 2 seeds), seed='s1')"),
    ]
    for state, fields, text in cases:
        twin = type(state)(*fields)
        assert state == twin and twin is not state and hash(state) == hash(fields)
        assert repr(state) == text
    assert nil() is nil() and NilList() == nil() and nil() != ConstList("a")
    assert ConstList("a") != ConstList("b") and ConstList("a") != lmap(succ, ConstList("a"))
    run = read_states("cons(a,cons(b,cons(a,lconst(b))))", RUN_DEFS)
    keyed = read_states("cons(b,cons(a,lconst(a)))", RUN_DEFS)
    key = state_key(keyed)
    tower = lmap(succ, lappend(nil(), iterates(succ, "x0")))
    zipper = observe(tower)[1]
    assert isinstance(run, ConsList)
    assert vars(run) == {"heads": ("a", "b", "a"), "at": 0, "rest": ConstList("b")}
    assert isinstance(zipper, TowerList) and state_key(keyed) == key
    deep = inner = cons("b", keyed, AB)
    for _ in range(2 * 10**4 - 1):
        deep = cons("a", deep, AB)
    inner_key = state_key(inner)
    states = [state for state, _, _ in cases] + [
        cons("a", nil(), AB), run, keyed, keyed.tail, tower,
        lappend(cons("a", nil(), AB), nil()), zipper, deep,
    ]
    for state in states:
        for name in [f.name for f in dataclasses.fields(state)] + ["extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, nil())
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(state, name)
        twins = [copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        if state is deep:
            for twin in twins:
                cells = []
                while isinstance(twin, ConsList):
                    cells.append(twin)
                    twin = twin.rest
                assert len(cells) == 2 * 10**4 + 1 and all(len(c.heads) == 1 for c in cells[:-1])
                assert state_key(cells[-2]) == inner_key
                assert cells[-1] == keyed and state_key(cells[-1]) == key
        for twin in twins:
            assert twin == state and hash(twin) == hash(state) and repr(twin) == repr(state)
    assert state_key(keyed.tail) == key[len("CONS(b,"):-1]


def test_a_hashed_cons_run_refuses_a_new_rest():
    """A cons run hashes by its key, so a new `rest` would change the
    hash of a run already in a set; assigning one raises instead."""
    c = cons("a", lconst("a", AB), AB)
    assert c in {c}
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.rest = lconst("b", AB)
    assert c.rest == lconst("a", AB) and state_key(c) == "CONS(a,CONST(a))"


def test_states_hold_only_their_fields(succ):
    """No operation adds an attribute to a list state: after `state_key`,
    `hash`, `==`, `repr`, `observe`, `copy.copy`, `copy.deepcopy` and a
    `pickle` round trip, the attributes of each state, of its copies and
    of its tail are their dataclass fields, the state's as they were."""
    two = machine("two", {"s0": ("a", "s1"), "s1": ("b", "s0")})
    cells = lconst("a", AB)
    for sym in "abba":
        cells = cons(sym, cells, AB)
    tower = lmap(succ, lappend(nil(), iterates(succ, "x0")))
    states = [
        cells,
        read_states("cons(a,cons(b,cons(a,lconst(b))))", RUN_DEFS),
        ConsList(("b", "a", "b"), 1, lconst("a", AB)),
        tower,
        observe(tower)[1],
        lappend(cons("a", nil(), AB), lconst("b", AB)),
        lconst("a", AB),
        iterates(succ, "x1"),
        corec("s1", two),
        nil(),
    ]
    for state in states:
        before = dict(vars(state))
        obs = observe(state)
        twins = [copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))]
        for l in [state, *twins] + ([] if obs is None else [obs[1]]):
            state_key(l), hash(l), repr(l), observe(l)
            assert l == copy.copy(l)
            assert vars(l).keys() == {f.name for f in dataclasses.fields(l)}, l
        assert vars(state).keys() == before.keys()
        assert all(vars(state)[name] is value for name, value in before.items())
        assert all(twin == state for twin in twins)


def test_alphabet_membership():
    alpha = Alphabet(["b", "a"])
    assert "a" in alpha and "b" in alpha and "c" not in alpha
    assert list(alpha) == ["b", "a"] and len(alpha) == 2
    assert [f.name for f in dataclasses.fields(alpha)] == ["symbols"]
    assert alpha == Alphabet(("b", "a")) and alpha != Alphabet(("a", "b"))
    assert hash(alpha) == hash(Alphabet("ba"))
    assert repr(alpha) == "Alphabet(symbols=('b', 'a'))"


def test_alphabet_refuses_a_symbol_that_is_no_string():
    with pytest.raises(DefsError) as exc:
        Alphabet([1])
    assert str(exc.value) == "alphabet: bad symbol 1"


@pytest.mark.parametrize("symbols, message", [
    ([["a"]], "alphabet: bad symbol ['a']"),
    (["a", {"b": 1}], "alphabet: bad symbol {'b': 1}"),
    ([1, ["a"]], "alphabet: bad symbol 1"),
    (["a", "a", ["b"]], "alphabet: bad symbol ['b']"),
    (["a", "a", "!"], "alphabet: duplicate symbol"),
])
def test_alphabet_refuses_an_unhashable_symbol(symbols, message):
    """A symbol that cannot be hashed is a bad symbol, a DefsError, not
    the TypeError of building the member set; duplicates among hashable
    symbols still come before a symbol that is no word."""
    with pytest.raises(DefsError) as exc:
        Alphabet(symbols)
    assert str(exc.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: MapList((), lconst("a", AB)), "a map run needs at least one function"),
    (lambda: AppendList(nil(), lconst("a", AB), 0), "an append run needs at least one layer, got 0"),
    (lambda: AppendList(cons("b", nil(), AB), lconst("a", AB), 2),
     "an append run of 2 layers needs nil on the left"),
])
def test_run_states_refuse_what_they_cannot_stand_for(build, message):
    """A map run of no functions, an append run of no layers, and more
    than one append layer around a left that is not nil name no list: no
    observation reads them and no key names them alone, so each is
    refused as it is built."""
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def _cons_chain(n):
    """n cells of `a` around `lconst(a)`."""
    chain = lconst("a", AB)
    for _ in range(n):
        chain = cons("a", chain, AB)
    return chain


def test_deep_cons_chain_keys_without_recursion():
    """A 10^4-cell chain is keyed at the default recursion limit, and its
    tail's key is the same text less the outer cell.  Walking all of it
    would hold about 4 * 10^8 characters of keys, past the bound, so the
    walk refuses; a 3000-cell chain, about 3.6 * 10^7, is walked and
    compiled whole."""
    assert sys.getrecursionlimit() <= 10**4
    n = 10_000
    chain = _cons_chain(n)
    key = state_key(chain)
    assert key == "CONS(a," * n + "CONST(a)" + ")" * n
    assert state_key(chain.tail) == key[len("CONS(a,"):-1]
    with pytest.raises(SizeExceeded, match="more than 100000000 characters"):
        reachable_states(chain, n + 1)
    n = 3000
    chain = _cons_chain(n)
    key = state_key(chain)
    steps = reachable_states(chain, n + 1)
    assert len(steps) == n + 1 and steps[key] == ("a", key[len("CONS(a,"):-1])
    m, seed = compile_machine(chain, n + 1)
    assert seed == key and len(m.seeds) == n + 1
    assert take(n + 2, corec(seed, m)) == (["a"] * (n + 2), False)


def _observed_steps(walk):
    """Each walked state's step, by key: None at the end of the list,
    else its head and its tail's key."""
    steps = {}
    for key, state in walk.items():
        obs = observe(state)
        steps[key] = None if obs is None else (obs[0], state_key(obs[1]))
    return steps


def test_reachable_states_matches_replay_walk():
    """Random lists, towers and observed tower tails, walked at every
    limit from 0 to two past the chain's length: the same keys in the
    same order as the walk over states (`walk_states`), each with the
    step of the state it names."""
    rng = random.Random(41)
    machines = [random_machine(rng, f"m{i}") for i in range(6)]
    zipped = 0
    for _ in range(300):
        l = random_state(rng, machines)
        for _ in range(rng.randrange(4)):
            obs = observe(l)
            if obs is None:
                break
            l = obs[1]
        zipped += isinstance(l, TowerList)
        length = len(walk_states(l, 10_000))
        for limit in range(length + 3):
            walk = reachable_states(l, limit)
            expected = _observed_steps(walk_states(l, limit))
            assert list(walk.items()) == list(expected.items())
            assert len(walk) == min(limit + 1, length)
    assert zipped >= 20


def test_reachable_states_observes_to_the_first_repeat(succ):
    """The walk stops at the list's first repeated key, or once it has
    `limit` + 1 states, whichever comes first, and observes each of its
    states once, the last one included."""
    f = CountingFun(succ)
    l = iterates(f, "x0")
    for limit, keys in ((0, 1), (2, 3), (4, 4), (100, 4)):
        f.calls = 0
        assert len(reachable_states(l, limit)) == keys
        assert f.calls == keys


def test_reachable_states_past_the_former_bound():
    """A 12000-seed ring, past the former 10^4 bound, is walked whole at
    the default recursion limit.  A 12000-cell cons chain is walked for
    1000 steps, about 9 * 10^7 characters of keys; walked whole it would
    hold about 5.8 * 10^8, past the bound, and the walk refuses."""
    assert sys.getrecursionlimit() <= 10**4
    n = 12_000
    chain = _cons_chain(n)
    walk = reachable_states(chain, 1000)
    m = n - 1000
    assert len(walk) == 1001 and list(walk)[-1] == "CONS(a," * m + "CONST(a)" + ")" * m
    with pytest.raises(SizeExceeded):
        reachable_states(chain, 10**5)
    walk = reachable_states(corec("s0", ring_machine(12_000)), 10**5)
    assert list(walk) == [f"M(big,s{i})" for i in range(12_000)]


@st.composite
def machines(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    seeds = tuple(f"q{i}" for i in range(n))
    syms = ("a", "b", "c")
    table = {}
    for s in seeds:
        if draw(st.booleans()) and draw(st.booleans()):
            table[s] = None
        else:
            table[s] = (draw(st.sampled_from(syms)), draw(st.sampled_from(seeds)))
    return StepFn("hyp", seeds, table)


@settings(max_examples=100, deadline=None)
@given(machines())
def test_corec_equation_property(m):
    for seed in m.seeds:
        obs = observe(corec(seed, m))
        act = m.step(seed)
        if act is None:
            assert obs is None
        else:
            assert obs == (act[0], corec(act[1], m))


def test_combinator_equations_on_every_reachable_state(defs):
    """One-step defining equations, checked on all states of composite lists."""
    from coinduct.colist import (
        AppendList,
        ConsList,
        ConstList,
        IterList,
        MachineList,
        MapList,
        NilList,
    )

    succ = defs.functions["succ"]
    g = defs.functions["g"]
    two = defs.machines["two"]
    fin3 = defs.machines["fin3"]
    alpha = defs.alphabet
    candidates = [
        lmap(g, lmap(succ, lconst("x0", alpha))),
        lappend(corec("t0", fin3), iterates(succ, "x1")),
        lappend(nil(), cons("a", corec("s0", two), alpha)),
        lmap(succ, lappend(iterates(succ, "x2"), nil())),
        cons("b", lappend(corec("t1", fin3), corec("t2", fin3)), alpha),
    ]
    checked = zipped = 0
    for l in candidates:
        for state in walk_states(l, 1000).values():
            obs = observe(state)
            if isinstance(state, NilList):
                assert obs is None
            elif isinstance(state, ConsList):
                assert obs == (state.head, state.tail)
            elif isinstance(state, ConstList):
                assert obs == (state.sym, state)
            elif isinstance(state, IterList):
                assert obs == (state.sym, IterList(state.fn, state.fn(state.sym)))
            elif isinstance(state, MapList):
                fn, source = _map_layer(state)
                inner = observe(source)
                if inner is None:
                    assert obs is None
                else:
                    assert obs == (fn(inner[0]), MapList((fn,), inner[1]))
            elif isinstance(state, AppendList):
                left, right = _append_layer(state)
                first, then = observe(left), observe(right)
                if first is not None:
                    assert obs == (first[0], AppendList(first[1], right, 1))
                elif then is None:
                    assert obs is None
                else:
                    assert obs == (then[0], AppendList(NilList(), then[1], 1))
            elif isinstance(state, MachineList):
                act = state.machine.step(state.seed)
                if act is None:
                    assert obs is None
                else:
                    assert obs == (act[0], MachineList(state.machine, act[1]))
            elif isinstance(state, TowerList):
                # a zipper names a nested state, and observes as it does
                nested = _unzip(state)
                assert state == nested and hash(state) == hash(nested)
                ref = _reference_observe(nested)
                if ref is None:
                    assert obs is None
                else:
                    assert obs == ref
                    assert state_key(obs[1]) == _reference_key(ref[1])
                zipped += 1
            else:
                raise AssertionError(f"no one-step equation for {state!r}")
            checked += 1
    assert checked >= 15 and zipped >= 10


def test_definitions_validation(defs_doc):
    defs = Definitions.from_dict(defs_doc)
    assert tuple(defs.alphabet) == ("a", "b", "x0", "x1", "x2", "x3")
    assert defs.functions["succ"]("x3") == "x0"
    assert defs.machines["fin3"].step("t2") is None

    bad = {"alphabet": []}
    with pytest.raises(DefsError, match="alphabet"):
        Definitions.from_dict(bad)

    bad = dict(defs_doc)
    bad["functions"] = {"f": {"a": "b"}}
    with pytest.raises(DefsError, match="functions.f: missing entry"):
        Definitions.from_dict(bad)

    bad = dict(defs_doc)
    bad["functions"] = dict(defs_doc["functions"], f={**defs_doc["functions"]["succ"], "a": "zz"})
    with pytest.raises(DefsError, match="functions.f.a"):
        Definitions.from_dict(bad)

    for value in (["a"], {"b": "a"}):
        bad["functions"] = {"f": {**defs_doc["functions"]["succ"], "a": value}}
        with pytest.raises(DefsError) as exc:
            Definitions.from_dict(bad)
        assert str(exc.value) == f"functions.f.a: value {value!r} not in alphabet"

    bad = dict(defs_doc)
    bad["machines"] = {"m": {"seeds": ["s"], "step": {"s": {"emit": ["a", "t"]}}}}
    with pytest.raises(DefsError, match="machines.m.step.s"):
        Definitions.from_dict(bad)

    bad = dict(defs_doc)
    bad["machines"] = {"m": {"seeds": ["s"], "step": {}}}
    with pytest.raises(DefsError, match="machines.m.step"):
        Definitions.from_dict(bad)

    bad["machines"] = {"m": {"seeds": ["s"], "step": {"s": "stop", "t": "stop"}}}
    with pytest.raises(DefsError, match=r"^machines\.m\.step\.t: undeclared seed$"):
        Definitions.from_dict(bad)

    bad["machines"] = {"m": {"seeds": ["s", "s"], "step": {"s": "stop"}}}
    with pytest.raises(DefsError, match=r"^machines\.m\.seeds: duplicate seed$"):
        Definitions.from_dict(bad)


BAD_ENTRY = 'machines.m.step.s: must be "stop" or {"emit": [symbol, seed]}'
STEPFN_CASES = [
    (["s"], {"s": ("a", "t")}, "machines.m.step.s: emit seed 't' undeclared"),
    (["s"], {"s": None, "t": None}, "machines.m.step.t: undeclared seed"),
    (["s"], {}, "machines.m.step: missing entry for 's'"),
    (["s", "s"], {"s": None}, "machines.m.seeds: duplicate seed"),
    ([["x"]], {}, "machines.m.seeds: bad seed ['x']"),
    ([1], {}, "machines.m.seeds: bad seed 1"),
    (["s"], {"s": ("a", ["x"])}, BAD_ENTRY),
    (["s"], {"s": (["a"], "s")}, BAD_ENTRY),
    (["s"], {"s": (1, "s")}, BAD_ENTRY),
    (["s"], {"s": ("a", "s", "s")}, BAD_ENTRY),
]


@pytest.mark.parametrize("seeds, table, message", STEPFN_CASES,
                         ids=[f"table{i}-{case[2]}" for i, case in enumerate(STEPFN_CASES)])
def test_step_table_checked_by_stepfn(defs_doc, seeds, table, message):
    """`StepFn` owns the seed and step-table checks: built directly, it
    reports what a definitions file with the same table reports."""
    step = {s: "stop" if act is None else {"emit": list(act)} for s, act in table.items()}
    doc = dict(defs_doc, machines={"m": {"seeds": seeds, "step": step}})
    for build in (lambda: StepFn("m", seeds, table), lambda: Definitions.from_dict(doc)):
        with pytest.raises(DefsError) as exc:
            build()
        assert str(exc.value) == message


WORD_RE = re.compile("[A-Za-z0-9_]+")


def reference_load(doc):
    """`Definitions.from_dict` as it was before its checks became set
    comparisons: each table checked entry by entry, a machine's step table
    in three loops (its JSON shape, then `StepFn`'s seed and table checks,
    then its symbols).  Returns the alphabet, the function tables and the
    machines' seeds and step tables."""
    if not isinstance(doc, dict):
        raise DefsError("definitions: top level must be an object")
    syms = doc.get("alphabet")
    if not isinstance(syms, list) or not all(isinstance(s, str) for s in syms):
        raise DefsError("alphabet: must be an array of strings")
    if not syms:
        raise DefsError("alphabet: must be nonempty")
    if len(set(syms)) != len(syms):
        raise DefsError("alphabet: duplicate symbol")
    for s in syms:
        if not WORD_RE.fullmatch(s):
            raise DefsError(f"alphabet: bad symbol {s!r}")

    def section(key):
        value = doc.get(key) or {}
        if not isinstance(value, dict):
            raise DefsError(f"{key}: must be an object")
        return value

    functions = {}
    for name, table in section("functions").items():
        if not WORD_RE.fullmatch(name):
            raise DefsError(f"functions.{name}: bad name")
        if not isinstance(table, dict):
            raise DefsError(f"functions.{name}: must be an object")
        for sym in syms:
            if sym not in table:
                raise DefsError(f"functions.{name}: missing entry for {sym!r}")
        for sym, out in table.items():
            if sym not in syms:
                raise DefsError(f"functions.{name}.{sym}: key not in alphabet")
            if not isinstance(out, str) or out not in syms:
                raise DefsError(f"functions.{name}.{sym}: value {out!r} not in alphabet")
        functions[name] = dict(table)

    bad_entry = 'machines.{}.step.{}: must be "stop" or {{"emit": [symbol, seed]}}'
    machines = {}
    for name, spec in section("machines").items():
        if not WORD_RE.fullmatch(name):
            raise DefsError(f"machines.{name}: bad name")
        seeds = spec.get("seeds") if isinstance(spec, dict) else None
        step = spec.get("step") if isinstance(spec, dict) else None
        if not isinstance(seeds, list) or not seeds:
            raise DefsError(f"machines.{name}.seeds: must be a nonempty array")
        for s in seeds:
            if isinstance(s, str) and not WORD_RE.fullmatch(s):
                raise DefsError(f"machines.{name}.seeds: bad seed {s!r}")
        if not isinstance(step, dict):
            raise DefsError(f"machines.{name}.step: must be an object")
        raw = {}
        for seed, act in step.items():
            emit = act.get("emit") if isinstance(act, dict) and len(act) == 1 else None
            if emit is None and act != "stop":
                raise DefsError(bad_entry.format(name, seed))
            raw[seed] = emit
        for s in seeds:
            if not isinstance(s, str):
                raise DefsError(f"machines.{name}.seeds: bad seed {s!r}")
        if len(set(seeds)) != len(seeds):
            raise DefsError(f"machines.{name}.seeds: duplicate seed")
        table = {}
        for s, act in raw.items():
            if s not in seeds:
                raise DefsError(f"machines.{name}.step.{s}: undeclared seed")
            if act is not None:
                if not (isinstance(act, (tuple, list)) and len(act) == 2
                        and isinstance(act[0], str) and isinstance(act[1], str)):
                    raise DefsError(bad_entry.format(name, s))
                if act[1] not in seeds:
                    raise DefsError(f"machines.{name}.step.{s}: emit seed {act[1]!r} undeclared")
                act = (act[0], act[1])
            table[s] = act
        for s in seeds:
            if s not in table:
                raise DefsError(f"machines.{name}.step: missing entry for {s!r}")
        for seed, act in table.items():
            if act is not None and act[0] not in syms:
                raise DefsError(f"machines.{name}.step.{seed}: emit symbol {act[0]!r} not in alphabet")
        machines[name] = (tuple(seeds), table)
    return tuple(syms), functions, machines


JUNK = [None, 1, 1.5, "", "a", "zz", "s0", "s 0", "stop", "go", [], ["a"], ["zz", "s0"], ["a", "zz"],
        [1, "s0"], ["a", ["x"]], ["a", "s0", "s0"], {}, {"emit": ["a", "s0"]}, {"emit": "a"},
        {"emit": None}, {"emit": ["a", "s0"], "x": 1}, {"emit": ["zz", "s1"]}, {"emit": ["a", "zz"]},
        {"emit": [1, "s1"]}, {"emit": ["a", 2]}, {"emit": ["a"]}, {"emit": ["b", "s1", "s1"]}]


def mutated_definitions(rng, doc):
    """`doc` with one to three random faults (or none) in its alphabet,
    functions, seeds or step tables, or in the shape of the document, a
    function table, or a machine's `seeds` or `step`."""
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.choice((0, 1, 1, 2, 3))):
        where = rng.choice(("alphabet", "function", "function", "seeds", "step", "step", "step", "names",
                            "shape"))
        junk = rng.choice(JUNK)
        tables = [t for t in doc["functions"].values() if isinstance(t, dict) and t]
        specs = [spec for spec in doc["machines"].values()
                 if isinstance(spec, dict) and isinstance(spec.get("seeds"), list)
                 and isinstance(spec.get("step"), dict) and spec["step"]]
        if where == "shape":
            part = rng.choice(("top", "function", "machine", "seeds", "step"))
            shape_junk = rng.choice([None, 1, "stop", [], ["s0"], {}])
            if part == "top":
                return rng.choice([[doc], "defs", None, 1])
            if part == "function":
                doc["functions"][rng.choice(list(doc["functions"]))] = shape_junk
            elif part == "machine":
                doc["machines"][rng.choice(list(doc["machines"]))] = shape_junk
            else:
                spec = rng.choice(list(doc["machines"].values()))
                if isinstance(spec, dict):
                    spec[part] = shape_junk
        elif where == "alphabet":
            syms = doc["alphabet"]
            syms.insert(rng.randrange(len(syms) + 1), rng.choice([syms[0], "b-c", "", 3, ["x"]]))
        elif where == "function" and tables:
            table = rng.choice(tables)
            key = rng.choice(list(table))
            action = rng.randrange(3)
            if action == 0:
                del table[key]
            elif action == 1:
                table[rng.choice(["zz", "s0", key])] = rng.choice(doc["alphabet"])
            else:
                table[key] = junk
        elif where == "names":
            section = rng.choice(("functions", "machines"))
            name = rng.choice(list(doc[section]))
            doc[section][rng.choice(["bad-name", "", name + "_2"])] = doc[section].pop(name)
        elif where in ("seeds", "step") and specs:
            spec = rng.choice(specs)
            seeds, step = spec["seeds"], spec["step"]
            if where == "seeds":
                seeds.insert(rng.randrange(len(seeds) + 1),
                             rng.choice([seeds[0], 1, ["x"], "s-1", "", "new"]))
            else:
                key = rng.choice(list(step))
                action = rng.randrange(3)
                if action == 0:
                    del step[key]
                elif action == 1:
                    step[rng.choice(["zz", key])] = rng.choice(["stop", junk])
                else:
                    step[key] = junk
    return doc


def test_loader_agrees_with_entry_by_entry_checks():
    """`Definitions.from_dict` against the loader it replaced, on mutated
    definitions: the same tables, or the same first error."""
    base = {
        "alphabet": ["a", "b", "c", "x0", "x1"],
        "functions": {
            "succ": {"a": "b", "b": "c", "c": "a", "x0": "x1", "x1": "x0"},
            "id": {"a": "a", "b": "b", "c": "c", "x0": "x0", "x1": "x1"},
        },
        "machines": {
            "two": {"seeds": ["s0", "s1"],
                    "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["b", "s0"]}}},
            "fin": {"seeds": ["s0", "s1", "s2"],
                    "step": {"s0": {"emit": ["c", "s1"]}, "s1": {"emit": ["x0", "s2"]}, "s2": "stop"}},
        },
    }

    def outcome(load, doc):
        try:
            return load(doc)
        except DefsError as err:
            return str(err)

    def load(doc):
        defs = Definitions.from_dict(doc)
        return (defs.alphabet.symbols, {n: f.table for n, f in defs.functions.items()},
                {n: (m.seeds, m.table) for n, m in defs.machines.items()})

    rng = random.Random(331)
    errors = set()
    loaded = 0
    for _ in range(6000):
        doc = mutated_definitions(rng, base)
        expected = outcome(reference_load, doc)
        assert outcome(load, doc) == expected, doc
        if isinstance(expected, str):
            errors.add(expected.split(":")[1])
        else:
            loaded += 1
    assert loaded > 1000 and len(errors) > 30, errors
    # the shape faults: top level, a function table, a machine's seeds or step
    assert {" top level must be an object", " must be an object", " must be a nonempty array"} <= errors
