"""Tests of the benchmark itself: its predictions, its failure counting
and its tracing.  Run with `python3 -m pytest bench -q`."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import coinduct
import run as R
import tracing
import workloads as W

SEED = 7


@pytest.fixture(scope="module")
def api():
    return R.Api.of(coinduct)


def written(tmp_path, wl) -> str:
    for name, text in wl.files.items():
        (tmp_path / name).write_text(text)
    return str(tmp_path)


def small(wl, limit):
    return [op for op in wl.ops if op.size <= limit and not op.deep]


@pytest.mark.parametrize("name,limit", [("proof_search", 120), ("stream_observe", 120),
                                        ("tree_fixpoints", 40)])
def test_predictions_hold_on_small_ops(tmp_path, api, name, limit):
    wl = W.GENERATORS[name](SEED)
    wd = written(tmp_path, wl)
    ops = small(wl, limit)
    families = {op.family for op in ops}
    assert len(ops) > 50
    bad = [(op.family, op.size, R.attempt(api, op, wd)[1]) for op in ops]
    assert [b for b in bad if b[2] != "ok"] == []
    if name == "proof_search":
        assert any(f.endswith(".tampered") for f in families)
        assert {"bisim", "cert", "trunc"} == {f.split(".")[0] for f in families}


def test_seed_fixes_inputs():
    for name in W.WORKLOADS:
        a, b, c = (W.GENERATORS[name](s) for s in (SEED, SEED, SEED + 1))
        assert a.digest() == b.digest() != c.digest()
        assert len(a.ops) == len(c.ops)
        assert sorted(o.family for o in a.ops) == sorted(o.family for o in c.ops)


def test_perturbation_index_is_where_the_symbol_changes():
    import random

    defs = W.make_defs(random.Random(1))
    for seed in range(20):
        eqn = W.eq_cons_const(defs, random.Random(seed), 30, True)
        reason, i = eqn.fail
        assert eqn.nested_seq.elem(i) != eqn.nested_seq.cycle[0]
        assert all(eqn.nested_seq.elem(j) == eqn.nested_seq.cycle[0] for j in range(i))


def test_bisim_walks_match_the_library_search(tmp_path, api):
    """The generator's key pairs are the documented certificate keys."""
    import random

    rng = random.Random(3)
    defs = W.make_defs(rng)
    (tmp_path / "d.json").write_text(json.dumps(defs.doc()))
    d = coinduct.Definitions.load(str(tmp_path / "d.json"))
    for fam, make in W.EQUATIONS.items():
        eqn = make(defs, rng, 15, False)
        left = coinduct.elaborate(coinduct.parse_expr(eqn.left), d)
        right = coinduct.elaborate(coinduct.parse_expr(eqn.right), d)
        for kind, walk in (("strong", eqn.walk), ("weak", eqn.walk + eqn.weak_tail)):
            cert = coinduct.find_bisimulation(left, right, kind=kind)
            assert cert.root == walk[0], fam
            assert cert.pairs == frozenset(walk), (fam, kind)


def test_tampered_certificate_fails_at_the_removed_pair(tmp_path, api):
    wl = W.gen_proof_search(SEED)
    wd = written(tmp_path, wl)
    tampered = [op for op in wl.ops if op.family.endswith(".tampered") and op.size < 200]
    assert tampered
    for op in tampered:
        assert op.expect_code == 1 and op.expect_head.startswith("FAIL tail pair escapes")
        assert R.attempt(api, op, wd)[1] == "ok"


def test_counts_follow_the_documented_formulas():
    alphabet = coinduct.Alphabet("abc")
    for n in (0, 1, 7, 20):
        fl = coinduct.list_encode(["a"] * n, alphabet)
        assert len(fl.tree) == 2 * n + 2
    for d, syms, nb in ((1, 2, 1), (2, 2, 2), (3, 1, 1), (3, 1, 2)):
        carrier, rel = coinduct.sexp_space(d, coinduct.Alphabet("abc"[:syms]), nb)
        assert (len(carrier), len(rel.pairs)) == W.sexp_counts(d, syms + nb)
    for n in (1, 5, 30):
        assert len(coinduct.transitive_closure([(i, i + 1) for i in range(n)])) == n * (n + 1) // 2


def test_wrong_expectation_is_counted_as_failed(tmp_path, api):
    wl = W.gen_stream_observe(SEED)
    wd = written(tmp_path, wl)
    ops = small(wl, 40)[:3]
    ops[1] = dataclasses.replace(ops[1], expect_digest=W.out_digest("not the answer\n"))
    phase = R.timed_phase(api, ops, wd, 0.2, R.Calibration())
    n = len(phase.statuses)
    assert n >= 3
    assert {s for _, s in phase.failures} == {"wrong"}
    assert len(phase.failures) == sum(1 for k, _ in phase.statuses if k == 1)
    assert R.unexpected(ops, phase)


def test_tracing_is_consistent_and_restores_the_package(tmp_path, api):
    before = (coinduct.bisim.state_key, coinduct.cli.colist, coinduct.wf.WFRelation)
    for name, zero_keys in (("stream_observe", True), ("tree_fixpoints", True),
                            ("proof_search", False)):
        wl = W.GENERATORS[name](SEED)
        wd = written(tmp_path, wl)
        ops = small(wl, 60)[:40] + [op for op in wl.ops if op.deep]
        tracer = tracing.Tracer()
        traced = tracing.entry_points(tracer, api)

        def one(op):
            status = R.attempt(traced, op, wd)[1]
            tracer.end_op(R.size_class(name, op.size))
            return status

        saved = tracing.install(tracer, coinduct)
        try:
            phase = R.one_pass(tracer.wrap("bench.op", one), ops)
        finally:
            tracing.uninstall(saved)
        plain = R.one_pass(lambda op: R.attempt(api, op, wd)[1], ops)
        assert plain.failures == phase.failures
        assert all(ops[i].deep and s in R.ALLOWED_DEEP for i, s in phase.failures)
        total = sum(tracer.self_s.values())
        assert abs(total - phase.wall) <= R.SELF_SUM_TOLERANCE * phase.wall
        again = tracer.recomputed_self()
        assert all(abs(again[k] - v) < 1e-6 for k, v in tracer.self_s.items())
        assert (tracer.counts["colist.state_key.calls"] == 0) == zero_keys
    assert (coinduct.bisim.state_key, coinduct.cli.colist, coinduct.wf.WFRelation) == before


def test_calibration_scales_by_the_mean_burst():
    cal = R.Calibration()
    assert len(cal.bursts) == 1 and cal.tick() == 0.0
    cal.bursts[:] = [R.REFERENCE_S, R.REFERENCE_S * 2, R.REFERENCE_S * 5]
    assert cal.scale == 0.375
    assert cal.local(1) == 2 / 3 and cal.local(3) == 0.2


def test_tail_uses_ten_samples_beyond():
    assert R.tail(list(range(1, 1001))) == (99, 990)
    assert R.tail(list(range(1, 501))) == (98, 490)
    assert R.tail(list(range(1, 100))) == (75, 75)


def test_refuses_to_run_without_the_package(tmp_path):
    root = Path(__file__).resolve().parent.parent
    shutil.copytree(root / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "tree_fixpoints",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
