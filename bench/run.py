"""Benchmark for the coinduct package.

    python3 bench/run.py --workload proof_search --seed 1 --seconds 25 --trace 0

Runs one workload (or `all` of them, one after another in this process)
from a single client thread in a closed loop: the next query is sent
when the previous one has returned.  The package is imported from
`src/` next to this directory; the program under test receives only
the generated inputs, and every answer is checked against the
generator's prediction.

`--trace 0` measures the end-to-end metrics for `--seconds` seconds.
`--trace 1` runs one full cycle of the operation list untraced and then
traced, and reports per-layer self times and work counts.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 3
REFERENCE_S = 0.002  # seconds reference_work() takes on the calibration machine (design.json)
CALIBRATION_INTERVAL = 0.05
WARMUP_OPS = 12
TAIL_LADDER = (99, 98, 95, 90, 75, 50)
SELF_SUM_TOLERANCE = 0.02  # traced self times must cover the traced wall time within 2%
ALLOWED_DEEP = ("RecursionError", "exit2")  # how the known deep-nesting slice may fail


@dataclasses.dataclass(frozen=True)
class Api:
    """The package entry points the benchmark calls."""

    run_command: object
    list_encode: object
    list_decode: object
    subexpression_space: object
    wfrec: object
    transitive_closure: object
    WFRelation: object
    sexp_space: object
    bisimilarity_gfp: object
    case_tree: object
    pkg: object

    @classmethod
    def of(cls, pkg) -> "Api":
        return cls(pkg.run_command, pkg.list_encode, pkg.list_decode, pkg.subexpression_space,
                   pkg.wfrec, pkg.transitive_closure, pkg.WFRelation, pkg.sexp_space,
                   pkg.bisimilarity_gfp, pkg.trees.case_tree, pkg)


# --------------------------------------------------------------------------
# Library operations: each returns the answer compared with op.expect


def lib_list_roundtrip(api, p):
    fl = api.list_encode(p["xs"], api.pkg.Alphabet("abc"))
    return {"nodes": len(fl.tree), "xs": api.list_decode(fl.tree)}


def lib_subexpr_wfrec(api, p):
    tree = api.list_encode(p["xs"], api.pkg.Alphabet("ab")).tree
    carrier, rel = api.subexpression_space([tree])
    atom = api.pkg.trees.AtomShape

    def size(t, rec):
        shape = api.case_tree(t)
        return 1 if isinstance(shape, atom) else rec(shape.left) + rec(shape.right)

    value = api.wfrec(api.pkg.RecSpec(rel, size), tree)
    return {"carrier": len(carrier), "pairs": len(rel.pairs), "size": value}


def lib_closure(api, p):
    closure = api.transitive_closure(p["pairs"])
    return {"closure": set(closure), "count": len(closure)}


def lib_wf_relation(api, p):
    try:
        rel = api.WFRelation(p["carrier"], p["pairs"])
    except ValueError as exc:
        return {"cyclic": "cyclic" in str(exc)}
    return {"closure": set(rel.closure)}


def lib_gfp(api, p):
    def machine(spec):
        name, seeds, table = spec
        return api.pkg.StepFn(name, seeds, {s: a and tuple(a) for s, a in table.items()})

    return {"pairs": set(api.bisimilarity_gfp(machine(p["m1"]), machine(p["m2"])))}


def lib_sexp_space(api, p):
    carrier, rel = api.sexp_space(p["d"], api.pkg.Alphabet(p["alphabet"]), p["numerals"])
    return {"carrier": len(carrier), "pairs": len(rel.pairs)}


LIBRARY = {f.__name__[4:]: f for f in (lib_list_roundtrip, lib_subexpr_wfrec, lib_closure,
                                       lib_wf_relation, lib_gfp, lib_sexp_space)}


# --------------------------------------------------------------------------


def attempt(api, op, workdir: str):
    """Run one operation: (seconds, status), status "ok", "wrong", "exit2"
    or the name of the exception that escaped."""
    t0 = perf_counter()
    try:
        if op.argv:
            argv = [a.replace(W.WORKDIR, workdir) for a in op.argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.run_command(argv)
            dt = perf_counter() - t0
            ok = code == op.expect_code and W.out_digest(out.getvalue()) == op.expect_digest
            return dt, "ok" if ok else ("exit2" if code == 2 else "wrong")
        answer = LIBRARY[op.call[0]](api, op.call[1])
        dt = perf_counter() - t0
        return dt, "ok" if answer == op.expect else "wrong"
    except Exception as exc:  # the harness keeps going; the failure is counted
        return perf_counter() - t0, type(exc).__name__


def _serialise(node):
    return "N" if node is None else f"C({node[0]},{_serialise(node[1])})"


def reference_work() -> int:
    """A fixed piece of interpreter work that does not touch the package:
    nested tuples serialised recursively, as state keys are, and dict
    lookups."""
    total = 0
    for i in range(60):
        node = None
        for j in range(60):
            node = (j, node)
        total += len(_serialise(node))
        table = {k: k + i for k in range(60)}
        total += sum(table[k] for k in range(0, 60, 3))
    return total


class Calibration:
    """Interpreter speed sampled through a run.

    The shared host this benchmark was built on switches between faster
    and slower phases within seconds and between runs, by far more than
    the bounds allow, and every operation moves with it.  So every
    CALIBRATION_INTERVAL seconds the run times one reference_work() burst
    (collector off, so the package's heap does not slow it), and timings
    are reported in calibration-machine units: an operation's or a
    set-up's seconds x REFERENCE_S / the mean of the bursts around it
    (`local`), throughput over REFERENCE_S / the mean of all bursts
    (`scale`), since the bursts sample time uniformly.
    """

    def __init__(self):
        self.bursts: list = []
        self.burst()

    def burst(self) -> float:
        gc.disable()
        try:
            t0 = perf_counter()
            reference_work()
            dt = perf_counter() - t0
        finally:
            gc.enable()
        self.bursts.append(dt)
        self.last = perf_counter()
        return dt

    def tick(self) -> float:
        """Take a burst if one is due; returns the time it took."""
        return self.burst() if perf_counter() - self.last >= CALIBRATION_INTERVAL else 0.0

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.bursts)

    def local(self, mark: int) -> float:
        """Scale for work done between bursts mark-1 and mark."""
        after = self.bursts[min(mark, len(self.bursts) - 1)]
        return 2 * REFERENCE_S / (self.bursts[mark - 1] + after)


def size_class(workload: str, size: int) -> str:
    name = "small"
    for cls, lower in W.SIZE_CLASSES[workload]:
        if size >= lower:
            name = cls
    return name


def purge_package():
    for mod in [m for m in sys.modules if m == "coinduct" or m.startswith("coinduct.")]:
        del sys.modules[mod]


def setup(name: str, seed: int, workdir: Path):
    """Import, generate, write the input files, warm up.  Returns
    (seconds, workload, api)."""
    t0 = perf_counter()
    purge_package()
    pkg = importlib.import_module("coinduct")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"coinduct imported from {pkg.__file__}, not from {SRC}")
    wl = W.GENERATORS[name](seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text)
    api = Api.of(pkg)
    for op in sorted((o for o in wl.ops if not o.deep), key=lambda o: o.size)[:WARMUP_OPS]:
        attempt(api, op, str(workdir))
    return perf_counter() - t0, wl, api


def tail(latencies: list):
    """Highest ladder percentile with at least ten samples beyond it
    (nearest rank): (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, xs[math.ceil(n / 2) - 1]


@dataclasses.dataclass
class Phase:
    wall: float
    latencies: list
    statuses: list  # (op index in the cycle, status) per attempt

    @property
    def failures(self) -> list:
        return [(i, s) for i, s in self.statuses if s != "ok"]


def timed_phase(api, ops, workdir: str, seconds: float, calibration: Calibration) -> Phase:
    """Whole cycles of the operation list, as many as end nearest to
    `seconds` (at least one), so every run has the same composition.
    Calibration bursts between operations are not counted in the phase."""
    lat, statuses = [], []
    start = perf_counter()
    spent, cycles = 0.0, 0
    while True:
        for k, op in enumerate(ops):
            mark = len(calibration.bursts)
            dt, status = attempt(api, op, workdir)
            spent += calibration.tick()
            lat.append(dt * calibration.local(mark) if status == "ok" else math.inf)
            statuses.append((k, status))
        cycles += 1
        elapsed = perf_counter() - start - spent
        if elapsed + elapsed / cycles / 2 >= seconds:
            return Phase(elapsed, lat, statuses)


def one_pass(run_one, ops) -> Phase:
    statuses = []
    start = perf_counter()
    for k, op in enumerate(ops):
        statuses.append((k, run_one(op)))
    return Phase(perf_counter() - start, [], statuses)


def unexpected(ops, phase: Phase) -> list:
    return [(i, s) for i, s in phase.failures if not (ops[i].deep and s in ALLOWED_DEEP)]


def describe_failures(ops, phase: Phase) -> str:
    kinds: dict = {}
    for i, s in phase.failures:
        key = f"{ops[i].family}:{s}"
        kinds[key] = kinds.get(key, 0) + 1
    return ", ".join(f"{k} x{v}" for k, v in sorted(kinds.items())) or "none"


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        dt, wl, api = setup(name, seed, workdir)
        calibration.burst()
        setups.append(dt * calibration.local(len(calibration.bursts) - 1))
    # The harness's own objects (the operation list above all) would
    # otherwise be rescanned by every full collection the program triggers.
    gc.collect()
    gc.freeze()
    ops, wd = wl.ops, str(workdir)
    deep = sum(op.deep for op in ops)
    print(f"workload {name} seed {seed} digest {wl.digest()} cycle {len(ops)} ops "
          f"({deep} deep-nesting)")
    setup_s = statistics.median(setups)
    print(f"  setup_s         {setup_s:.4f} s (median of {SETUP_REPEATS})")
    if traced:
        return run_traced(name, wl, api, wd)

    phase = timed_phase(api, ops, wd, seconds, calibration)
    n = len(phase.statuses)
    ok = n - len(phase.failures)
    p, tail_s = tail(phase.latencies)
    scale = calibration.scale
    print(f"  calibration     {scale:.4f} (reference {REFERENCE_S} s / mean of "
          f"{len(calibration.bursts)} bursts)")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / phase.wall / scale, "1/s"),
        "latency_p50_ms": (statistics.median(phase.latencies) * 1000, "ms"),
        "latency_tail_ms": ((phase.wall * scale if tail_s == math.inf else tail_s) * 1000, "ms"),
    }
    print(f"  ops_per_s       {metrics['ops_per_s'][0]:.4f} 1/s; raw {ok / phase.wall:.4f}")
    print(f"  latency_p50_ms  {metrics['latency_p50_ms'][0]:.4f} ms")
    print(f"  latency_tail_ms {metrics['latency_tail_ms'][0]:.4f} ms (p{p} of {n} operations)")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    print(f"  failed_share    {len(phase.failures) / n:.5f} ({len(phase.failures)}/{n}; "
          f"{describe_failures(ops, phase)})")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb'][0]:.2f} MB")
    bad = unexpected(ops, phase)
    for i, s in bad[:5]:
        print(f"  UNEXPECTED {s}: {ops[i].family} size {ops[i].size}: expected "
              f"{ops[i].expect_head or ops[i].expect_code!r}", file=sys.stderr)
    return not bad, n, len(phase.failures), metrics


def run_traced(name, wl, api, wd):
    ops = wl.ops
    plain = one_pass(lambda op: attempt(api, op, wd)[1], ops)
    tracer = tracing.Tracer()
    traced_api = tracing.entry_points(tracer, api)

    def run_one(op):
        status = attempt(traced_api, op, wd)[1]
        tracer.end_op(size_class(name, op.size))
        return status

    root = tracer.wrap("bench.op", run_one)
    saved = tracing.install(tracer, api.pkg)
    try:
        traced = one_pass(root, ops)
    finally:
        tracing.uninstall(saved)

    checks = {}
    checks["same_failures"] = plain.failures == traced.failures
    self_total = sum(tracer.self_s.values())
    checks["self_sum"] = abs(self_total - traced.wall) <= SELF_SUM_TOLERANCE * traced.wall
    again = tracer.recomputed_self()
    checks["no_double_count"] = all(
        abs(again[k] - v) <= 1e-6 + 1e-9 * len(tracer.spans) for k, v in tracer.self_s.items())
    checks["expected_failures_only"] = not unexpected(ops, traced)
    metrics = layer_metrics(name, tracer, plain.wall, traced.wall)
    print(f"  traced pass {traced.wall:.3f} s, untraced pass {plain.wall:.3f} s, "
          f"{len(tracer.spans)} spans, self-time sum "
          f"{self_total:.3f} s")
    print(f"  failures untraced: {describe_failures(ops, plain)}; traced: "
          f"{describe_failures(ops, traced)}")
    for key, ok in checks.items():
        print(f"  check {key}: {'ok' if ok else 'FAILED'}")
    shares = sorted(((v / traced.wall, k) for k, v in tracer.layer_self().items()), reverse=True)
    print("  layer self-time shares: " + ", ".join(f"{k} {s:.3f}" for s, k in shares))
    return all(checks.values()), len(ops), len(traced.failures), metrics


SPAN_METRICS = (
    "cli.run_command", "dsl.parse_expr", "dsl.elaborate", "colist.Definitions.load",
    "colist.take", "colist.check_llist_upto", "colist.state_key", "colist.reachable_states",
    "colist.tree_trunc", "bisim.find_bisimulation", "bisim.verify_certificate",
    "bisim.Certificate.load", "bisim.eq_upto", "bisim.bisimilarity_gfp", "trees.cons_tree",
    "trees.scons", "trees.case_tree", "trees.ntrunc", "trees.dump_tree", "trees.parse_tree_term",
    "lattice.lfp", "lattice.gfp", "lattice.op", "wf.list_encode", "wf.list_decode",
    "wf.subexpression_space", "wf.transitive_closure", "wf.WFRelation", "wf.wfrec",
    "wf.sexp_space",
)
CALL_METRICS = ("dsl.parse_expr", "colist.state_key", "bisim.find_bisimulation",
                "trees.cons_tree", "trees.scons", "trees.case_tree", "lattice.lfp", "lattice.gfp")
COUNT_METRICS = (
    "dsl.parse_expr.chars", "colist.observations", "colist.state_key.chars",
    "colist.reachable_states.states", "bisim.find_bisimulation.pairs",
    "bisim.verify_certificate.pairs", "bisim.bisimilarity_gfp.seed_pairs", "trees.nodes_built",
    "lattice.iterations", "lattice.op_evals", "wf.transitive_closure.carrier",
    "wf.sexp_space.carrier",
) + tuple(f"{layer}.errors" for layer in ("cli", "dsl", "colist", "bisim", "trees", "lattice", "wf"))


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(workload: str, tracer, plain_wall: float, traced_wall: float) -> dict:
    m = {}
    for name in SPAN_METRICS:
        m[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0), "s")
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (tracer.counts.get(f"{name}.calls", 0), "count")
    c = tracer.counts
    for key in COUNT_METRICS:
        m[key] = (c.get(key, 0), "count")
    m["colist.state_key.chars_per_step"] = (
        _ratio(c["colist.state_key.chars"], c["colist.observations"]), "chars")
    m["lattice.gfp.useful_ratio"] = (_ratio(c["lattice.gfp.removed"], c["lattice.gfp.work"]), "ratio")
    m["wf.transitive_closure.useful_ratio"] = (
        _ratio(c["wf.transitive_closure.closure"], c["wf.transitive_closure.carrier"]), "ratio")
    for layer, s in tracer.layer_self().items():
        m[f"{layer}.self_s"] = (s, "s")
    m["trace.overhead_ratio"] = (traced_wall / plain_wall, "ratio")
    m["trace.self_sum_share"] = (sum(tracer.self_s.values()) / traced_wall, "ratio")
    for cls, _ in W.SIZE_CLASSES[workload]:
        k = tracer.by_class[cls]
        m[f"colist.state_key.chars_per_step.{cls}"] = (
            _ratio(k["colist.state_key.chars"], k["colist.observations"]), "chars")
        m[f"trees.nodes_per_cons_tree.{cls}"] = (
            _ratio(k["trees.cons_tree.nodes"], k["trees.cons_tree.calls"]), "nodes")
        m[f"lattice.iterations_per_gfp.{cls}"] = (
            _ratio(k["lattice.gfp.iterations"], k["lattice.gfp.calls"]), "count")
        m[f"wf.transitive_closure.carrier_per_call.{cls}"] = (
            _ratio(k["wf.transitive_closure.carrier"], k["wf.transitive_closure.calls"]), "pairs")
    return m


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("proof_search", "stream_observe",
                                                          "tree_fixpoints", "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coinduct" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'coinduct'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = W.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    scratch = ROOT / ".bench_work"
    workdir = scratch / f"{os.getpid()}"
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()
    if len(names) == 1:
        correct, attempted, failed, metrics = results[names[0]]
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        metrics = {f"{name}.{k}": v for name, r in results.items() for k, v in r[3].items()}
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
