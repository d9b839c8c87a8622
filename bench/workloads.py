"""Seeded operation lists for the three benchmark workloads.

Every operation carries the answer the generator predicts for it.  The
prediction comes from how the input was built -- closed forms for the
bisimulation walks, a small eventually-periodic sequence model for list
prefixes, and plain-Python reachability for closures -- never from the
package under test.  Key strings follow the documented certificate key
format (`CONS(a,CONST(a))`, `MAP(f,ITER(f,x))`, ...).

A workload is one *cycle* of operations with a fixed composition: sizes
are stratified over their log-uniform range, so two seeds give the same
mix of sizes with different symbols, machines, perturbations and order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("proof_search", "stream_observe", "tree_fixpoints")

# Size classes for the traced per-class count metrics: (name, lower bound).
SIZE_CLASSES = {
    "proof_search": (("small", 0), ("medium", 50), ("large", 200)),
    "stream_observe": (("small", 0), ("medium", 50), ("large", 200)),
    "tree_fixpoints": (("small", 0), ("medium", 20), ("large", 50)),
}

WORKDIR = "{W}"  # placeholder for the per-run work directory in argv


@dataclass
class Op:
    """One user query with its predicted answer.

    CLI operations (`argv` set) expect an exit code and the digest of
    their exact stdout.  Library operations (`call` set) name a checker
    in the runner and carry the values it compares against.
    """

    family: str
    size: int
    argv: tuple = ()
    call: tuple = ()
    expect_code: int = 0
    expect_digest: str = ""
    expect_head: str = ""
    expect: dict = field(default_factory=dict)
    deep: bool = False

    def record(self) -> list:
        return [self.family, self.size, list(self.argv), _jsonable(self.call),
                self.expect_code, self.expect_digest, _jsonable(self.expect), self.deep]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    files: dict  # file name under the work directory -> text

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode())
            h.update(hashlib.sha256(self.files[name].encode()).digest())
        for op in self.ops:
            h.update(json.dumps(op.record(), sort_keys=True).encode())
        return h.hexdigest()[:16]


def _jsonable(x):
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (set, frozenset)):
        return sorted(_jsonable(v) for v in x)
    return x


def out_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def spread(rng: random.Random, count: int, families, lo: float, hi: float) -> list:
    """(family, size, j) for `count` operations shared evenly among the
    families, each family's sizes stratified over [lo, hi]; j numbers the
    operations within a family, independently of their size."""
    out = []
    for fi, fam in enumerate(families):
        k = count // len(families) + (fi < count % len(families))
        out += [(fam, n, j) for j, n in enumerate(strata(rng, k, lo, hi))]
    return out


def strata(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """`count` integers spread log-uniformly over [lo, hi], one drawn near
    the middle of each stratum, in ascending order."""
    out = []
    for i in range(count):
        u = (i + rng.uniform(0.4, 0.6)) / count
        out.append(int(round(lo * (hi / lo) ** u)))
    return out


def pairing(count: int) -> list[int]:
    """A fixed permutation of range(count), the same for every seed, to
    pair two ascending size lists without correlating them."""
    order = list(range(count))
    random.Random(count).shuffle(order)
    return order


# --------------------------------------------------------------------------
# Eventually periodic sequence model


@dataclass(frozen=True)
class Seq:
    """prefix followed by `cycle` repeated forever; an empty cycle ends."""

    prefix: tuple
    cycle: tuple = ()

    def elem(self, i: int) -> Optional[str]:
        if i < len(self.prefix):
            return self.prefix[i]
        if not self.cycle:
            return None
        return self.cycle[(i - len(self.prefix)) % len(self.cycle)]

    def take(self, k: int) -> list:
        if not self.cycle:
            return list(self.prefix[:k])
        out = list(self.prefix[:k])
        while len(out) < k:
            out.extend(self.cycle)
        return out[:k]

    def map(self, table: dict) -> "Seq":
        return Seq(tuple(table[x] for x in self.prefix), tuple(table[x] for x in self.cycle))

    def then(self, other: "Seq") -> "Seq":
        if self.cycle:
            return self
        return Seq(self.prefix + other.prefix, other.cycle)

    def symbols(self) -> set:
        return set(self.prefix) | set(self.cycle)


def orbit(table: dict, x: str) -> Seq:
    """iterates(fn, x) as a lasso: pre-period then period."""
    seen: dict = {}
    path = []
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = table[x]
    start = seen[x]
    return Seq(tuple(path[:start]), tuple(path[start:]))


def render_prefix(seq: Seq, depth: int) -> str:
    """Expected `eval` line: take(depth) rendered as the CLI prints it."""
    elems = seq.take(depth)
    ended = not seq.cycle and len(seq.prefix) < depth
    inner = ",".join(elems)
    if ended:
        return f"[{inner}]"
    return f"[{inner},...]" if elems else "[...]"


def first_mismatch(a: Seq, b: Seq, depth: int):
    """Expected `eq` verdict: None when equal to depth, else (reason, index)."""
    xa, xb = a.take(depth), b.take(depth)
    for i in range(min(len(xa), len(xb))):
        if xa[i] != xb[i]:
            return "heads differ", i
    if len(xa) != len(xb):
        return "nil/cons mismatch", min(len(xa), len(xb))
    return None


def trunc_dump(seq: Seq, depth: int) -> str:
    """Expected `trunc` dump: the list's tree encoding below `depth`.

    Cell j sits at position 1^(2j): its tag `num:1` at 1^(2j)0 and its
    head at 1^(2j+1)0; the nil tree after m cells is `num:0` at 1^(2m)0
    and 1^(2m)1.  Positions sort by length here, i.e. by depth.
    """
    lines = []
    for d in range(1, depth):
        j, odd = divmod(d - 1, 2)
        x = seq.elem(j)
        if x is None:
            if not odd:
                lines.append("1" * (d - 1) + "0 num:0")
                lines.append("1" * (d - 1) + "1 num:0")
            break
        lines.append("1" * (d - 1) + ("0 atom:" + x if odd else "0 num:1"))
    return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# Definitions shared by the two CLI workloads

CYCLE_PERIODS = (2, 3, 5, 7, 10, 13)  # f's cycle structure over 40 symbols
MACHINE_LENGTHS = (3, 5, 8, 13)


@dataclass
class Defs:
    symbols: list
    f: dict
    fp: dict  # f, except one fixed point y per f-cycle
    h: dict  # an involution
    cycles: list  # f's cycles as symbol lists
    fixed_by_fp: dict  # cycle index -> y
    machines: dict  # name -> emitted word (cycle machines over seeds u0..)
    fin_word: list  # the finite machine "fin" emits this word then stops

    def doc(self) -> dict:
        machines = {}
        for name, word in self.machines.items():
            c = len(word)
            machines[name] = {
                "seeds": [f"u{i}" for i in range(c)],
                "step": {f"u{i}": {"emit": [word[i], f"u{(i + 1) % c}"]} for i in range(c)},
            }
        n = len(self.fin_word)
        step = {f"t{i}": {"emit": [self.fin_word[i], f"t{i + 1}"]} for i in range(n)}
        step[f"t{n}"] = "stop"
        machines["fin"] = {"seeds": [f"t{i}" for i in range(n + 1)], "step": step}
        return {
            "alphabet": self.symbols,
            "functions": {"f": self.f, "fp": self.fp, "h": self.h},
            "machines": machines,
        }


def make_defs(rng: random.Random) -> Defs:
    symbols = [f"q{i:02d}" for i in range(sum(CYCLE_PERIODS))]
    order = symbols[:]
    rng.shuffle(order)
    f, fp, cycles, fixed = {}, {}, [], {}
    at = 0
    for ci, p in enumerate(CYCLE_PERIODS):
        cyc = order[at:at + p]
        at += p
        cycles.append(cyc)
        for i, x in enumerate(cyc):
            f[x] = cyc[(i + 1) % p]
        fixed[ci] = rng.choice(cyc)
    fp = dict(f)
    for y in fixed.values():
        fp[y] = y
    h = {x: x for x in symbols}
    swapped = [rng.choice(c) for c in cycles]  # h moves a symbol of every f-cycle
    swapped += rng.sample([x for x in symbols if x not in swapped], 24 - len(swapped))
    for a, b in zip(swapped[::2], swapped[1::2]):
        h[a], h[b] = b, a
    machines = {f"cyc{c}": [rng.choice(symbols) for _ in range(c)] for c in MACHINE_LENGTHS}
    fin_word = [rng.choice(symbols) for _ in range(6)]
    return Defs(symbols, f, fp, h, cycles, fixed, machines, fin_word)


def power(table: dict, x: str, k: int) -> str:
    for _ in range(k):
        x = table[x]
    return x


def nest(head: str, k: int, inner: str) -> str:
    return head * k + inner + ")" * k


def cons_text(syms, inner: str) -> str:
    return "".join(f"cons({s}," for s in syms) + inner + ")" * len(syms)


# --------------------------------------------------------------------------
# proof_search: bisim / cert verify / trunc over the equation gallery


@dataclass
class Equation:
    """A generated pair of list expressions with its predicted walk.

    `walk` lists the key pairs visited by the synchronized unfolding in
    order (strong kind); `weak_tail` the extra pairs the weak kind adds.
    For an unequal pair, `fail` is (reason, index) and the walk is empty.
    `nested` is the side that carries the nesting, with its model.
    """

    left: str
    right: str
    walk: list
    weak_tail: list
    fail: Optional[tuple]
    nested: str
    nested_seq: Seq


def eq_cons_const(defs, rng, n, unequal, pick=0):
    s = rng.choice(defs.symbols)
    syms = [s] * n
    fail = None
    if unequal:
        i = n * (pick % 4 * 2 + 1) // 8
        syms[i] = rng.choice([t for t in defs.symbols if t != s])
        fail = ("heads differ", i)
    left = cons_text(syms, f"lconst({s})")
    kc = f"CONST({s})"
    walk, weak = [], []
    if not unequal:
        keys = [kc]
        for _ in range(n):
            keys.append(f"CONS({s},{keys[-1]})")
        walk = [(keys[j], kc) for j in range(n, 0, -1)]
        weak = [(kc, kc)]
    return Equation(left, f"lconst({s})", walk, weak, fail, left, Seq(tuple(syms), (s,)))


def _fp_fail(defs, ci, start):
    """Index of the first disagreement of iterates(f,start) and iterates(fp,start)."""
    y = defs.fixed_by_fp[ci]
    x, j = start, 0
    while x != y:
        x, j = defs.f[x], j + 1
    return ("heads differ", j + 1)


def eq_map_iter(defs, rng, k, unequal, pick=0):
    ci = pick % len(defs.cycles)
    cyc = defs.cycles[ci]
    x = rng.choice(cyc)
    fkx = power(defs.f, x, k)
    left = nest("map(f,", k, f"iterates(f,{x})")
    walk, fail = [], None
    if unequal:
        right = f"iterates(fp,{fkx})"
        fail = _fp_fail(defs, ci, fkx)
    else:
        right = f"iterates(f,{fkx})"
        xi = x
        for _ in range(len(cyc)):
            walk.append((nest("MAP(f,", k, f"ITER(f,{xi})"), f"ITER(f,{power(defs.f, xi, k)})"))
            xi = defs.f[xi]
    return Equation(left, right, walk, [], fail, left, orbit(defs.f, fkx))


def eq_involution(defs, rng, k, unequal, pick=0):
    ci = pick % len(defs.cycles)
    cyc = defs.cycles[ci]
    x = rng.choice(cyc)
    m = 2 * k + (1 if unequal else 0)
    left = nest("map(h,", m, f"iterates(f,{x})")
    right = f"iterates(f,{x})"
    walk, fail = [], None
    seq = orbit(defs.f, x)
    if unequal:
        i, xi = 0, x
        while defs.h[xi] == xi:
            xi, i = defs.f[xi], i + 1
        fail = ("heads differ", i)
        seq = seq.map(defs.h)
    else:
        xi = x
        for _ in range(len(cyc)):
            walk.append((nest("MAP(h,", m, f"ITER(f,{xi})"), f"ITER(f,{xi})"))
            xi = defs.f[xi]
    return Equation(left, right, walk, [], fail, left, seq)


def eq_append_nil(defs, rng, k, unequal, pick=0):
    ci = pick % len(defs.cycles)
    cyc = defs.cycles[ci]
    x = rng.choice(cyc)
    left = nest("append(nil,", k, f"iterates(f,{x})")
    walk, fail = [], None
    if unequal:
        right = f"iterates(fp,{x})"
        fail = _fp_fail(defs, ci, x)
    else:
        right = f"iterates(f,{x})"
        xi = x
        for _ in range(len(cyc)):
            walk.append((nest("APP(NIL,", k, f"ITER(f,{xi})"), f"ITER(f,{xi})"))
            xi = defs.f[xi]
    return Equation(left, right, walk, [], fail, left, orbit(defs.f, x))


def eq_append_inf(defs, rng, n, unequal, pick=0):
    ci = pick % len(defs.cycles)
    cyc = defs.cycles[ci]
    x = rng.choice(cyc)
    ys = [rng.choice(defs.symbols) for _ in range(n)]
    left = f"append(iterates(f,{x}),{cons_text(ys, 'nil')})"
    ky = "NIL"
    for y in reversed(ys):
        ky = f"CONS({y},{ky})"
    walk, fail = [], None
    if unequal:
        right = f"iterates(fp,{x})"
        fail = _fp_fail(defs, ci, x)
    else:
        right = f"iterates(f,{x})"
        xi = x
        for _ in range(len(cyc)):
            walk.append((f"APP(ITER(f,{xi}),{ky})", f"ITER(f,{xi})"))
            xi = defs.f[xi]
    return Equation(left, right, walk, [], fail, left, orbit(defs.f, x))


def eq_corec_unroll(defs, rng, n, unequal, pick=0):
    name = sorted(defs.machines)[pick % len(defs.machines)]
    word = defs.machines[name]
    c = len(word)
    syms = [word[i % c] for i in range(n)]
    fail = None
    if unequal:
        i = n * (pick % 4 * 2 + 1) // 8
        syms[i] = rng.choice([t for t in defs.symbols if t != syms[i]])
        fail = ("heads differ", i)
    left = f"corec({name},u0)"
    right = cons_text(syms, f"corec({name},u{n % c})")
    walk, weak = [], []
    if not unequal:
        keys = [f"M({name},u{n % c})"]
        for j in range(n - 1, -1, -1):
            keys.append(f"CONS({syms[j]},{keys[-1]})")
        walk = [(f"M({name},u{i % c})", keys[n - i]) for i in range(n)]
        weak = [(f"M({name},u{(n + t) % c})",) * 2 for t in range(c)]
    rot = tuple(word[(n + t) % c] for t in range(c))
    return Equation(left, right, walk, weak, fail, right, Seq(tuple(syms), rot))


EQUATIONS = {
    "cons_const": eq_cons_const,
    "map_iter": eq_map_iter,
    "involution": eq_involution,
    "append_nil": eq_append_nil,
    "append_inf": eq_append_inf,
    "corec_unroll": eq_corec_unroll,
}


def bisim_output(kind: str, walk: list):
    """Expected `bisim` PASS report, line by line: the root pair first,
    then the other pairs in sorted order."""
    root = walk[0]
    ordered = sorted(walk)
    ordered.remove(root)
    yield "PASS\n"
    yield f"certificate: kind={kind} pairs={len(walk)}\n"
    for a, b in [root] + ordered:
        yield f"  {a} ~ {b}\n"


def _cli_op(family, size, argv, code, out, deep=False) -> Op:
    """`out` is the expected stdout, whole or as an iterable of chunks."""
    chunks = iter([out] if isinstance(out, str) else out)
    first = next(chunks, "")
    h = hashlib.blake2b(first.encode(), digest_size=16)
    for chunk in chunks:
        h.update(chunk.encode())
    return Op(family, size, argv=tuple(argv), expect_code=code, expect_digest=h.hexdigest(),
              expect_head=first.split("\n", 1)[0][:120], deep=deep)


# Composition of one proof_search cycle: (command, count).
PROOF_MIX = (("bisim", 200), ("cert", 120), ("trunc", 78))
PROOF_DEEP = 2  # deep-nesting queries (one bisim, one trunc), nesting 2000-3000
NESTING = (10, 800)


def gen_proof_search(seed: int) -> Workload:
    rng = random.Random(f"proof_search:{seed}")
    defs = make_defs(rng)
    files = {"defs.json": json.dumps(defs.doc(), sort_keys=True)}
    dflag = ("--defs", f"{WORKDIR}/defs.json")
    ops = []
    for command, count in PROOF_MIX:
        for fam, n, j in spread(rng, count, sorted(EQUATIONS), *NESTING):
            unequal = command == "bisim" and j % 3 == 2
            m = max(1, n // 2) if fam == "involution" else n
            eqn = EQUATIONS[fam](defs, rng, m, unequal, j // 6)
            label = f"{command}.{fam}"
            if command == "bisim":
                kind = "weak" if j // 3 % 2 else "strong"
                argv = ("bisim", *dflag, "--kind", kind, eqn.left, eqn.right)
                if unequal:
                    reason, idx = eqn.fail
                    ops.append(_cli_op(label, n, argv, 1, f"FAIL {reason} @ {idx}\n"))
                else:
                    walk = eqn.walk + (eqn.weak_tail if kind == "weak" else [])
                    ops.append(_cli_op(label, n, argv, 0, bisim_output(kind, walk)))
            elif command == "cert":
                kind = "weak" if j // 3 % 2 else "strong"
                walk = eqn.walk + (eqn.weak_tail if kind == "weak" else [])
                tampered = j % 3 == 1
                pairs = list(walk)
                out, code = "PASS\n", 0
                if tampered:
                    r = 1 + (len(walk) - 1) * (j // 3 % 4 * 2 + 1) // 8
                    gone = pairs.pop(r)
                    out, code = f"FAIL tail pair escapes the relation @ {gone}\n", 1
                    label += ".tampered"
                name = f"cert{len(ops)}.json"
                files[name] = json.dumps(
                    {"kind": kind, "root": list(walk[0]), "pairs": [list(p) for p in pairs]})
                argv = ("cert", "verify", *dflag, "--cert", f"{WORKDIR}/{name}",
                        eqn.left, eqn.right)
                ops.append(_cli_op(label, n, argv, code, out))
            else:
                depth = 8 + j * 13 % 33
                argv = ("trunc", *dflag, "--depth", str(depth), eqn.nested)
                ops.append(_cli_op(label, n, argv, 0, trunc_dump(eqn.nested_seq, depth)))
    n_bisim, n_trunc = strata(rng, PROOF_DEEP, 2000, 3000)
    eqn = eq_cons_const(defs, rng, n_bisim, True)
    argv = ("bisim", *dflag, "--kind", "strong", eqn.left, eqn.right)
    ops.append(_cli_op("bisim.deep", n_bisim, argv, 1, "FAIL %s @ %d\n" % eqn.fail, deep=True))
    eqn = eq_cons_const(defs, rng, n_trunc, True)
    argv = ("trunc", *dflag, "--depth", "24", eqn.nested)
    ops.append(_cli_op("trunc.deep", n_trunc, argv, 0, trunc_dump(eqn.nested_seq, 24), deep=True))
    rng.shuffle(ops)
    return Workload("proof_search", seed, ops, files)


# --------------------------------------------------------------------------
# stream_observe: eval / eq / check with deep observation


def stream_expr(defs: Defs, rng: random.Random, family: str, n: int, infinite: bool):
    """A nested list expression of the given family with its model."""
    if family == "cons":
        tail = rng.choice(("lconst", "iterates", "corec") + (() if infinite else ("nil",)))
        syms = [rng.choice(defs.symbols) for _ in range(n)]
        if tail == "lconst":
            s = rng.choice(defs.symbols)
            inner, base = f"lconst({s})", Seq((), (s,))
        elif tail == "iterates":
            x = rng.choice(defs.symbols)
            inner, base = f"iterates(f,{x})", orbit(defs.f, x)
        elif tail == "corec":
            name = rng.choice(sorted(defs.machines))
            inner, base = f"corec({name},u0)", Seq((), tuple(defs.machines[name]))
        else:
            inner, base = "nil", Seq(())
        return cons_text(syms, inner), Seq(tuple(syms)).then(base)
    if family == "map":
        x = rng.choice(defs.symbols)
        text, seq = f"iterates(f,{x})", orbit(defs.f, x)
        if rng.random() < 0.3:
            name = rng.choice(sorted(defs.machines))
            text, seq = f"corec({name},u1)", Seq((), tuple(defs.machines[name][1:] + defs.machines[name][:1]))
        fns = [rng.choice(("f", "fp", "h")) for _ in range(n)]
        for g in fns:
            text = f"map({g},{text})"
            seq = seq.map({"f": defs.f, "fp": defs.fp, "h": defs.h}[g])
        return text, seq
    if family == "append":
        x = rng.choice(defs.symbols)
        text, seq = f"iterates(f,{x})", orbit(defs.f, x)
        for _ in range(n):
            part = rng.choice(("nil", "cons", "fin"))
            if part == "nil":
                ptext, pseq = "nil", Seq(())
            elif part == "cons":
                s = rng.choice(defs.symbols)
                ptext, pseq = f"cons({s},nil)", Seq((s,))
            else:
                ptext, pseq = "corec(fin,t3)", Seq(tuple(defs.fin_word[3:]))
            text = f"append({ptext},{text})"
            seq = pseq.then(seq)
        return text, seq
    raise ValueError(family)


def _stream_op(defs, rng, command, fam, n, depth, i) -> Op:
    """One eval/eq/check query over a generated expression; `i` picks
    the variant (which side is perturbed, which atoms are allowed)."""
    text, seq = stream_expr(defs, rng, fam, n, infinite=command != "eval")
    dflag = ("--defs", f"{WORKDIR}/defs.json")
    label = f"{command}.{fam}"
    if command == "eval":
        argv = ("eval", *dflag, "--depth", str(depth), text)
        return _cli_op(label, n, argv, 0, render_prefix(seq, depth) + "\n")
    if command == "eq":
        other, oseq = f"map(h,map(h,{text}))", seq
        if i % 3 == 1:  # a cons prefix of the list, perturbed at index j
            j = min(depth, 400) * (i // 3 % 8 * 2 + 1) // 16
            pre = seq.take(j + 1)
            pre[j] = rng.choice([t for t in defs.symbols if t != pre[j]])
            other, oseq = cons_text(pre, f"lconst({pre[j]})"), Seq(tuple(pre), (pre[j],))
        left, right = (text, other) if i % 2 else (other, text)
        lseq, rseq = (seq, oseq) if i % 2 else (oseq, seq)
        verdict = first_mismatch(lseq, rseq, depth)
        argv = ("eq", *dflag, "--depth", str(depth), left, right)
        if verdict is None:
            return _cli_op(label, n, argv, 0, f"EQUAL to depth {depth}\n")
        return _cli_op(label, n, argv, 1, "FAIL %s @ %d\n" % verdict)
    atoms = sorted(seq.symbols())
    if i % 2:
        atoms.remove(rng.choice(atoms))
    prefix = seq.take(depth)
    bad = next((j for j, x in enumerate(prefix) if x not in atoms), None)
    argv = ("check", *dflag, "--depth", str(depth), "--atoms", ",".join(atoms), text)
    if bad is None:
        return _cli_op(label, n, argv, 0, f"PASS membership to depth {depth}\n")
    return _cli_op(label, n, argv, 1, f"FAIL head {prefix[bad]} outside allowed atoms @ {bad}\n")


STREAM_MIX = (("eval", 160), ("eq", 120), ("check", 118))
STREAM_DEEP = 2
STREAM_DEPTH = (200, 2000)
STREAM_FAMILIES = ("cons", "map", "append")
TOWER_NESTING = (4, 40)
TOWER_WORK = (800, 50_000)  # nesting x depth, which an observation pass costs


def cons_sizes(rng: random.Random, count: int) -> list:
    """(nesting, depth) for cons prefixes: both stratified, fixed pairing."""
    depths = strata(rng, count, *STREAM_DEPTH)
    return [(n, depths[p]) for n, p in zip(strata(rng, count, *NESTING), pairing(count))]


def tower_sizes(rng: random.Random, count: int) -> list:
    """(nesting, depth) for map/append towers.  Their cost is about
    nesting x depth, so that product is what is stratified log-uniformly;
    the nesting then takes a fixed position within its feasible range."""
    (k_lo, k_hi), (d_lo, d_hi) = TOWER_NESTING, STREAM_DEPTH
    out = []
    for work, p in zip(strata(rng, count, *TOWER_WORK), pairing(count)):
        lo, hi = max(k_lo, work / d_hi), min(k_hi, work / d_lo)
        k = round(lo * (hi / lo) ** ((p + 0.5) / count))
        out.append((k, min(d_hi, max(d_lo, round(work / k)))))
    return out


def gen_stream_observe(seed: int) -> Workload:
    rng = random.Random(f"stream_observe:{seed}")
    defs = make_defs(rng)
    files = {"defs.json": json.dumps(defs.doc(), sort_keys=True)}
    dflag = ("--defs", f"{WORKDIR}/defs.json")
    ops = []
    for command, count in STREAM_MIX:
        for fi, fam in enumerate(STREAM_FAMILIES):
            k = count // 3 + (fi < count % 3)
            sizes = cons_sizes(rng, k) if fam == "cons" else tower_sizes(rng, k)
            for i, (n, depth) in enumerate(sizes):
                ops.append(_stream_op(defs, rng, command, fam, n, depth, i))
    for n in strata(rng, STREAM_DEEP, 2000, 3000):
        syms = [rng.choice(defs.symbols) for _ in range(n)]
        s = rng.choice(defs.symbols)
        seq = Seq(tuple(syms), (s,))
        argv = ("eval", *dflag, "--depth", "2000", cons_text(syms, f"lconst({s})"))
        ops.append(_cli_op("eval.deep", n, argv, 0, render_prefix(seq, 2000) + "\n", deep=True))
    rng.shuffle(ops)
    return Workload("stream_observe", seed, ops, files)


# --------------------------------------------------------------------------
# tree_fixpoints: trees, well-founded relations and lattice fixedpoints


def _lib_op(family, size, checker, params, expect) -> Op:
    return Op(family, size, call=(checker, params), expect=expect)


def list_term(xs) -> str:
    text = "nil"
    for x in reversed(xs):
        text = f"cons(leaf({x}),{text})"
    return text


def list_fun_demo(rng: random.Random, n: int):
    """A list_fun lfp demo with `n` carrier terms and its predicted lfp.

    A list is in the lfp exactly when its heads are all operator atoms
    and every suffix, down to nil, is in the carrier.
    """
    atoms = ["a", "b"]
    pool = [()]
    for length in range(1, 6):
        pool += [tuple(rng.choice("abz") for _ in range(length)) for _ in range(6 * length)]
    core = [()] + [(x,) for x in atoms] + [(x, y) for x in atoms for y in atoms]
    picked = list(dict.fromkeys(core + pool))
    picked = (picked[:len(core)] + rng.sample(picked[len(core):], n - len(core) - 1))
    terms = [list_term(xs) for xs in picked] + [f"leaf({rng.choice(atoms)})"]
    have = set(picked)
    members = [list_term(xs) for xs in picked
               if all(x in atoms for x in xs) and all(xs[i:] in have for i in range(len(xs)))]
    order = list(range(len(terms)))
    rng.shuffle(order)
    carrier = [terms[i] for i in order]
    lfp = [t for t in carrier if t in set(members)]
    spec = {"carrier": carrier, "operator": {"name": "list_fun", "atoms": atoms}, "mode": "lfp"}
    return spec, lfp


def fin_demo(rng: random.Random, u: int, mode: str, pick: int):
    """A fin demo over the full powerset of u symbols, with its answer.

    With base B the lfp is every subset of B; the gfp keeps {} and every
    set meeting B.
    """
    universe = [chr(ord("a") + i) for i in range(u)]
    base = rng.sample(universe, 1 + pick % u)
    sets = [frozenset(x for i, x in enumerate(universe) if bits >> i & 1) for bits in range(1 << u)]
    rng.shuffle(sets)
    key = lambda s: "{" + ",".join(sorted(s)) + "}"
    if mode == "lfp":
        keep = [s for s in sets if s <= set(base)]
    else:
        keep = [s for s in sets if not s or s & set(base)]
    spec = {"carrier": [key(s) for s in sets], "operator": {"name": "fin", "base": base},
            "mode": mode}
    return spec, [key(s) for s in keep]


def dag_edges(rng: random.Random, n: int):
    """A random DAG on n shuffled integer labels, with its closure."""
    labels = rng.sample(range(10 * n), n)
    edges = set()
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(1, 2))):
            edges.add((labels[i], labels[j]))
    succ: dict = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    closure = set()
    for a in labels:
        stack, seen = list(succ.get(a, ())), set()
        while stack:
            b = stack.pop()
            if b not in seen:
                seen.add(b)
                stack.extend(succ.get(b, ()))
        closure |= {(a, b) for b in seen}
    return labels, sorted(edges), closure


def sexp_counts(d: int, k: int):
    """Carrier size and immediate-subexpression pair count of sexp_space."""
    # layer 1: k atoms; layer 2: L2 = k + k^2 with 2k^2 - k pairs; layer 3:
    # L3 = L2 + L2^2 - k^2 with 2(L2^2 - k^2) - (L2 - k) more pairs.
    if d <= 1:
        return (k if d == 1 else 0), 0
    l2, p2 = k + k * k, 2 * k * k - k
    if d == 2:
        return l2, p2
    return l2 + l2 * l2 - k * k, p2 + 2 * (l2 * l2 - k * k) - (l2 - k)


# (d, number of alphabet symbols, numeral bound) and how many per cycle;
# d = 3 with five atoms (about 3 s) and d = 4 (exhausts memory) are left out.
SEXP_MIX = (((1, 3, 2), 4), ((2, 1, 1), 4), ((2, 2, 2), 4), ((2, 3, 2), 4), ((3, 1, 1), 4),
            ((3, 1, 2), 3), ((3, 2, 1), 3), ((3, 2, 2), 1), ((3, 3, 1), 1))
TREE_MIX = {
    "list_roundtrip": (12, (20, 140)),
    "subexpr_wfrec": (36, (5, 30)),
    "closure_chain": (24, (20, 100)),
    "closure_dag": (40, (20, 100)),
    "closure_cyclic": (12, (20, 100)),
    "lattice_list_fun": (40, (8, 40)),
    "lattice_fin": (140, (3, 8)),
    "gfp_chain_cycle": (20, (10, 60)),
    "gfp_renamed": (28, (10, 60)),
}


def gen_tree_fixpoints(seed: int) -> Workload:
    rng = random.Random(f"tree_fixpoints:{seed}")
    ops, files = [], {}
    for fam, (count, (lo, hi)) in TREE_MIX.items():
        for j, n in enumerate(strata(rng, count, lo, hi)):
            if fam == "list_roundtrip":
                xs = [rng.choice("abc") for _ in range(n)]
                ops.append(_lib_op(fam, n, "list_roundtrip", {"xs": xs},
                                   {"nodes": 2 * n + 2, "xs": xs}))
            elif fam == "subexpr_wfrec":
                xs = [rng.choice("ab") for _ in range(n)]
                expect = {"carrier": 2 * n + 3 + len(set(xs)), "pairs": 4 * n + 1,
                          "size": 2 * n + 2}
                ops.append(_lib_op(fam, n, "subexpr_wfrec", {"xs": xs}, expect))
            elif fam == "closure_chain":
                labels = rng.sample(range(10 * n), n + 1)
                edges = [(labels[i], labels[i + 1]) for i in range(n)]
                rng.shuffle(edges)
                closure = {(labels[i], labels[k]) for i in range(n + 1) for k in range(i + 1, n + 1)}
                ops.append(_lib_op(fam, n, "closure", {"pairs": edges},
                                   {"closure": closure, "count": n * (n + 1) // 2}))
            elif fam == "closure_dag":
                labels, edges, closure = dag_edges(rng, n)
                ops.append(_lib_op(fam, n, "wf_relation", {"carrier": labels, "pairs": edges},
                                   {"closure": closure}))
            elif fam == "closure_cyclic":
                labels, edges, closure = dag_edges(rng, n)
                a, b = rng.choice(sorted(closure))
                ops.append(_lib_op(fam, n, "wf_relation",
                                   {"carrier": labels, "pairs": edges + [(b, a)]}, {"cyclic": True}))
            elif fam in ("lattice_list_fun", "lattice_fin"):
                mode = "gfp" if fam == "lattice_fin" and j % 2 else "lfp"
                if fam == "lattice_fin":
                    spec, members = fin_demo(rng, n, mode, j // 2)
                else:
                    spec, members = list_fun_demo(rng, n)
                name = f"spec{len(ops)}.json"
                files[name] = json.dumps(spec)
                out = f"{mode} = {{{','.join(members)}}}\n"
                ops.append(_cli_op(f"{fam}.{mode}", n, ("lattice", "--spec", f"{WORKDIR}/{name}"),
                                   0, out))
            elif fam == "gfp_chain_cycle":
                chain = [f"c{i}" for i in rng.sample(range(10 * n), n)]
                ring = [f"r{i}" for i in rng.sample(range(10 * n), n)]
                m1 = {s: (["a", chain[i + 1]] if i + 1 < n else None) for i, s in enumerate(chain)}
                m2 = {s: ["a", ring[(i + 1) % n]] for i, s in enumerate(ring)}
                ops.append(_lib_op(fam, n, "gfp", {"m1": ["chain", chain, m1], "m2": ["ring", ring, m2]},
                                   {"pairs": set()}))
            elif fam == "gfp_renamed":
                t = n // 3
                c = n - t
                names = [f"s{i}" for i in rng.sample(range(10 * n), n)]
                renamed = [f"p{i}" for i in rng.sample(range(10 * n), n)]
                # tail states emit z; the cycle emits a^(c-1) b, whose rotations differ
                emits = ["z"] * t + ["a"] * (c - 1) + ["b"]
                nxt = list(range(1, n)) + [t]
                m1 = {names[i]: [emits[i], names[nxt[i]]] for i in range(n)}
                m2 = {renamed[i]: [emits[i], renamed[nxt[i]]] for i in range(n)}
                pairs = {(f"M(left,{names[i]})", f"M(right,{renamed[i]})") for i in range(n)}
                ops.append(_lib_op(fam, n, "gfp",
                                   {"m1": ["left", names, m1], "m2": ["right", renamed[::-1], m2]},
                                   {"pairs": pairs}))
    alpha_pool = ["a", "b", "c"]
    for (d, syms, nb), count in SEXP_MIX:
        k = syms + nb
        for _ in range(count):
            alphabet = rng.sample(alpha_pool, syms)
            carrier, pairs = sexp_counts(d, k)
            ops.append(_lib_op("sexp_space", carrier, "sexp_space",
                               {"d": d, "alphabet": alphabet, "numerals": nb},
                               {"carrier": carrier, "pairs": pairs}))
    rng.shuffle(ops)
    return Workload("tree_fixpoints", seed, ops, files)


GENERATORS = {
    "proof_search": gen_proof_search,
    "stream_observe": gen_stream_observe,
    "tree_fixpoints": gen_tree_fixpoints,
}
