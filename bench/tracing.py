"""Per-layer tracing from outside the package.

Spans are recorded by wrappers around calls that cross a module
boundary.  Each wrapper is installed in the namespace of the module that
makes the call (`coinduct.bisim.state_key`, `coinduct.cli.elaborate`,
`coinduct.wf.cons_tree`, ...), never in the globals of a recursive
function's own module, so recursion depth -- and with it the point
where `RecursionError` is raised -- does not change.  A module object
imported whole (`cli` uses `colist.take`) is replaced by a view whose
wrapped attributes shadow the module's.

A span's self time is its duration minus the time covered by its child
spans.  Counts are kept per operation and folded into totals and into
the operation's size class when it ends.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "dsl", "colist", "bisim", "trees", "lattice", "wf", "bench")


class Tracer:
    def __init__(self):
        self.self_s: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.by_class: dict = defaultdict(Counter)
        self.op_counts: Counter = Counter()
        self.stack: list = []  # open spans: [span id, time covered by children]
        self.spans: list = []  # (id, parent id, name, start, end)
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span called `name` (layer = first dotted part).

        `count(tracer, args, result)` runs after the span closes.
        """
        layer = name.split(".", 1)[0]
        stack, spans, self_s, op_counts = self.stack, self.spans, self.self_s, self.op_counts
        ids, tracer, calls = self._ids, self, f"{name}.calls"

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.error(layer, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                op_counts[calls] += 1
                if stack:
                    stack[-1][1] += dur
                spans.append((sid, parent, name, t0, t1))
            if count is not None:
                count(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        """`fn` counted under `key` without a span of its own."""
        op_counts = self.op_counts

        def counted(*args, **kwargs):
            op_counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def add(self, key: str, n=1):
        self.op_counts[key] += n

    def error(self, layer: str, exc: BaseException):
        """Count an exception once, in the innermost span it escaped."""
        if not getattr(exc, "_traced_layer", None):
            exc._traced_layer = layer
            self.op_counts[f"{layer}.errors"] += 1

    def end_op(self, size_class: str):
        self.counts.update(self.op_counts)
        self.by_class[size_class].update(self.op_counts)
        self.op_counts.clear()

    def layer_self(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def recomputed_self(self) -> dict:
        """Self time per span name rebuilt from the span log's parent ids."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        out: dict = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return out


class View:
    """A module seen through wrapped attributes; the rest passes through."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


# --------------------------------------------------------------------------
# Counting callbacks: count(tracer, args, result)


def _nodes(key):
    def count(t, args, result):
        t.add("trees.nodes_built", len(result))
        if key:
            t.add(key, len(result))
    return count


def _state_key(t, args, key):
    t.add("colist.state_key.chars", len(key))


def _take(t, args, result):
    elems, ended = result
    t.add("colist.observations", len(elems) + ended)


def _verdict_steps(width):
    # A failing verdict's witness is the index of the failing step; a pass
    # on the infinite lists this benchmark checks runs to the depth bound.
    def count(t, args, verdict):
        t.add("colist.observations", width * (verdict.witness + 1 if not verdict else args[0]))
    return count


def _search(t, args, outcome):
    pairs = getattr(outcome, "pairs", None)
    if pairs is not None:
        n = len(pairs)
    elif hasattr(outcome, "index"):
        n = outcome.index + 1
    else:
        n = outcome.limit
    t.add("bisim.find_bisimulation.pairs", n)


def _closure(t, args, result):
    elems = {x for p in args[0] for x in p}
    t.add("wf.transitive_closure.carrier", len(elems) ** 2)
    t.add("wf.transitive_closure.closure", len(result))


def _exit_code(t, args, code):
    if code == 2:
        t.add("cli.errors")


def install(tracer: Tracer, pkg) -> list:
    """Put wrappers in place; returns the (owner, name, original) list
    that `uninstall` restores."""
    cli, colist, bisim, trees = pkg.cli, pkg.colist, pkg.bisim, pkg.trees
    lattice, wf = pkg.lattice, pkg.wf
    w = tracer.wrap

    def fixpoint(kind):
        real = getattr(lattice, kind)
        spanned = w(f"lattice.{kind}", real)

        def count_eval(t, args, result):
            t.add("lattice.op_evals")

        def fix(op, carrier):
            before = tracer.op_counts["lattice.op_evals"]
            traced_op = lattice.SubsetOperator(w("lattice.op", op.fn, count_eval), op.name)
            result = spanned(traced_op, carrier)
            evals = tracer.op_counts["lattice.op_evals"] - before
            tracer.add("lattice.iterations", evals)
            if kind == "gfp":
                tracer.add("lattice.gfp.iterations", evals)
                tracer.add("lattice.gfp.removed", len(carrier) - len(result))
                tracer.add("lattice.gfp.work", evals * len(carrier))
            return result

        return fix

    lattice_view = View(lattice, lfp=fixpoint("lfp"), gfp=fixpoint("gfp"),
                        load_demo=w("lattice.load_demo", lattice.load_demo))
    patches = {
        cli: {
            "Definitions": View(colist.Definitions,
                                load=w("colist.Definitions.load", colist.Definitions.load)),
            "parse_expr": w("dsl.parse_expr", cli.parse_expr,
                            lambda t, a, r: t.add("dsl.parse_expr.chars", len(a[0]))),
            "elaborate": w("dsl.elaborate", cli.elaborate),
            "dump_tree": w("trees.dump_tree", cli.dump_tree),
            "colist": View(
                colist,
                take=w("colist.take", colist.take, _take),
                tree_trunc=w("colist.tree_trunc", colist.tree_trunc),
                check_llist_upto=w("colist.check_llist_upto", colist.check_llist_upto,
                                   _verdict_steps(1)),
            ),
            "bisim": View(
                bisim,
                find_bisimulation=w("bisim.find_bisimulation", bisim.find_bisimulation, _search),
                verify_certificate=w("bisim.verify_certificate", bisim.verify_certificate,
                                     lambda t, a, r: t.add("bisim.verify_certificate.pairs",
                                                           len(a[0].pairs))),
                eq_upto=w("bisim.eq_upto", bisim.eq_upto, _verdict_steps(2)),
                Certificate=View(bisim.Certificate,
                                 load=w("bisim.Certificate.load", bisim.Certificate.load)),
            ),
            "lattice": lattice_view,
        },
        bisim: {
            "state_key": w("colist.state_key", bisim.state_key, _state_key),
            "observe": tracer.counter("colist.observations", bisim.observe),
            "reachable_states": w("colist.reachable_states", bisim.reachable_states,
                                  lambda t, a, r: t.add("colist.reachable_states.states", len(r))),
            "lattice": lattice_view,
        },
        colist: {
            "branch_union": w("trees.branch_union", colist.branch_union, _nodes(None)),
            "ntrunc": w("trees.ntrunc", colist.ntrunc, _nodes(None)),
        },
        wf: {
            "case_tree": w("trees.case_tree", wf.case_tree),
            "list_case": w("trees.list_case", wf.list_case),
            "cons_tree": w("trees.cons_tree", wf.cons_tree, _nodes("trees.cons_tree.nodes")),
            "scons": w("trees.scons", wf.scons, _nodes(None)),
            "lattice": lattice_view,
            # wf-internal, neither recursive: gives WFRelation and the
            # closure their own spans inside sexp_space and friends
            "transitive_closure": w("wf.transitive_closure", wf.transitive_closure, _closure),
            "WFRelation": w("wf.WFRelation", wf.WFRelation),
        },
        # lattice imports these from the trees module at call time
        trees: {
            "cons_tree": w("trees.cons_tree", trees.cons_tree, _nodes("trees.cons_tree.nodes")),
            "parse_tree_term": w("trees.parse_tree_term", trees.parse_tree_term),
        },
    }
    saved = []
    for owner, attrs in patches.items():
        for name, value in attrs.items():
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, value)
    return saved


def uninstall(saved: list):
    for owner, name, original in reversed(saved):
        setattr(owner, name, original)


def entry_points(tracer: Tracer, api):
    """The benchmark's own calls into the package, wrapped."""
    w = tracer.wrap
    return dataclasses.replace(
        api,
        run_command=w("cli.run_command", api.run_command, _exit_code),
        list_encode=w("wf.list_encode", api.list_encode),
        list_decode=w("wf.list_decode", api.list_decode),
        subexpression_space=w("wf.subexpression_space", api.subexpression_space),
        wfrec=w("wf.wfrec", api.wfrec),
        transitive_closure=w("wf.transitive_closure", api.transitive_closure, _closure),
        WFRelation=w("wf.WFRelation", api.WFRelation),
        sexp_space=w("wf.sexp_space", api.sexp_space,
                     lambda t, a, r: t.add("wf.sexp_space.carrier", len(r[0]))),
        bisimilarity_gfp=w("bisim.bisimilarity_gfp", api.bisimilarity_gfp,
                           lambda t, a, r: t.add("bisim.bisimilarity_gfp.seed_pairs",
                                                 len(a[0].seeds) * len(a[1].seeds))),
        case_tree=w("trees.case_tree", api.case_tree),
    )
