"""Shared fixtures: a mod-4 definitions file and random generators."""

from __future__ import annotations

import random

import pytest

from coinduct.colist import Alphabet, AtomFun, Definitions, StepFn
from coinduct.lattice import Carrier, Subset, SubsetOperator

MOD4_SYMS = ("x0", "x1", "x2", "x3")


def succ_mod4() -> AtomFun:
    return AtomFun("succ", {f"x{i}": f"x{(i + 1) % 4}" for i in range(4)})


class CountingFun(AtomFun):
    """An AtomFun that counts its applications: a lone map counts one
    call per element it yields.  A stack of maps applies each function
    only the first time a head reaches its innermost map frame, which
    then keeps the composed image."""

    def __init__(self, fn: AtomFun):
        super().__init__(fn.name, fn.table)
        self.calls = 0

    def __call__(self, sym: str) -> str:
        self.calls += 1
        return super().__call__(sym)


@pytest.fixture
def mod4_alphabet() -> Alphabet:
    return Alphabet(MOD4_SYMS)


@pytest.fixture
def succ() -> AtomFun:
    return succ_mod4()


@pytest.fixture
def defs_doc() -> dict:
    return {
        "alphabet": ["a", "b", "x0", "x1", "x2", "x3"],
        "functions": {
            "succ": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
            "h": {"a": "b", "b": "a", "x0": "x0", "x1": "x1", "x2": "x2", "x3": "x3"},
            "g": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
            "gh": {"a": "b", "b": "a", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
        },
        "machines": {
            "two": {
                "seeds": ["s0", "s1"],
                "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["b", "s0"]}},
            },
            "fin3": {
                "seeds": ["t0", "t1", "t2"],
                "step": {
                    "t0": {"emit": ["a", "t1"]},
                    "t1": {"emit": ["b", "t2"]},
                    "t2": "stop",
                },
            },
        },
    }


@pytest.fixture
def defs(defs_doc) -> Definitions:
    return Definitions.from_dict(defs_doc)


def random_machine(
    rng: random.Random,
    name: str,
    max_seeds: int = 6,
    syms: tuple = ("a", "b", "c"),
    stop_prob: float = 0.25,
) -> StepFn:
    n = rng.randint(1, max_seeds)
    seeds = tuple(f"{name}_s{i}" for i in range(n))
    table = {}
    for s in seeds:
        if rng.random() < stop_prob:
            table[s] = None
        else:
            table[s] = (rng.choice(syms), rng.choice(seeds))
    return StepFn(name, seeds, table)


def rename_seeds(machine: StepFn, prefix: str) -> StepFn:
    ren = {s: f"{prefix}{s}" for s in machine.seeds}
    table = {
        ren[s]: (None if act is None else (act[0], ren[act[1]]))
        for s, act in machine.table.items()
    }
    return StepFn(f"{prefix}{machine.name}", tuple(ren[s] for s in machine.seeds), table)


def ring_machine(n: int) -> StepFn:
    """The machine "big": seeds s0..s(n-1) in one all-`a` ring."""
    seeds = [f"s{i}" for i in range(n)]
    return StepFn("big", seeds, {s: ("a", seeds[(i + 1) % n]) for i, s in enumerate(seeds)})


def random_monotone_operator(rng: random.Random, carrier: Carrier) -> SubsetOperator:
    """A random monotone table: a raw random table closed under submask union."""
    n = len(carrier)
    acc = [rng.getrandbits(n) for _ in range(1 << n)]
    for i in range(n):
        for a in range(1 << n):
            if a >> i & 1:
                acc[a] |= acc[a ^ 1 << i]
    return SubsetOperator(lambda s: Subset(carrier, acc[s.bits]), "random-mono")
