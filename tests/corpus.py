"""A seeded corpus of `coinduct` command lines, with two uses.

The generator covers every subcommand: well-formed and mutated list
expressions with runs of `cons`, `map` and `append(nil, .)` layers,
tree terms in lattice carriers, definitions, certificate and lattice
files (with damaged ones that carry each fault of the loaders), depths
and pair budgets, and argv oddities: `-h`, `--help`, abbreviated
options and `--opt=value`.  Depths and sizes stay small, so no command
needs an address-space limit.

- `tests/test_corpus.py` runs a few thousand commands in process and
  checks that each returns an exit code in {0, 1, 2, 3} and raises
  nothing out of `run_command`.
- By hand, differential testing (McKeeman, *Differential Testing for
  Software*, 1998) against a local revision:

      python tests/corpus.py --against <rev> [--count N] [--seed S]

  runs the corpus with the package of a `git worktree` of `<rev>` and
  with the working tree's, removes the worktree, and prints every
  command whose stdout, stderr or exit code differs.  It exits 1 if
  any does.

The generator imports nothing from `coinduct`, so both trees read the
same commands and the same files.
"""

from __future__ import annotations

import argparse
import io
import json
import pathlib
import random
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ALPHABET = ["a", "b", "x0", "x1", "x2", "x3"]
DEFS = {
    "alphabet": ALPHABET,
    "functions": {
        "succ": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
        "h": {"a": "b", "b": "a", "x0": "x0", "x1": "x1", "x2": "x2", "x3": "x3"},
        "g": {"a": "a", "b": "b", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
        "gh": {"a": "b", "b": "a", "x0": "x1", "x1": "x2", "x2": "x3", "x3": "x0"},
    },
    "machines": {
        "two": {"seeds": ["s0", "s1"],
                "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["b", "s0"]}}},
        "fin3": {"seeds": ["t0", "t1", "t2"],
                 "step": {"t0": {"emit": ["a", "t1"]}, "t1": {"emit": ["b", "t2"]}, "t2": "stop"}},
        "p": {"seeds": ["s0", "s1"],
              "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["a", "s0"]}}},
        "q": {"seeds": ["s0", "s1", "s2"],
              "step": {"s0": {"emit": ["a", "s1"]}, "s1": {"emit": ["a", "s2"]},
                       "s2": {"emit": ["a", "s0"]}}},
        "xs": {"seeds": ["u0", "u1", "u2", "u3"],
               "step": {"u0": {"emit": ["x0", "u1"]}, "u1": {"emit": ["x1", "u2"]},
                        "u2": {"emit": ["x2", "u3"]}, "u3": {"emit": ["x3", "u0"]}}},
    },
}
FUNCTIONS = sorted(DEFS["functions"])
SEEDS = {name: spec["seeds"] for name, spec in DEFS["machines"].items()}
EQUAL_PAIRS = [
    ("lconst(a)", "cons(a,lconst(a))"),
    ("map(g,map(h,lconst(a)))", "map(gh,lconst(a))"),
    ("map(succ,iterates(succ,x0))", "iterates(succ,x1)"),
    ("corec(two,s0)", "cons(a,corec(two,s1))"),
    ("cons(a,cons(a,corec(p,s0)))", "corec(q,s0)"),
    ("append(nil,map(h,iterates(succ,x0)))", "map(h,append(cons(x0,nil),iterates(succ,x1)))"),
    ("map(h,map(h,iterates(succ,x0)))", "iterates(succ,x0)"),
]
CERTS = [
    {"kind": "weak", "root": ["CONST(a)", "CONS(a,CONST(a))"],
     "pairs": [["CONST(a)", "CONS(a,CONST(a))"], ["CONST(a)", "CONST(a)"]]},
    {"kind": "strong", "root": ["M(two,s0)", "CONS(a,M(two,s1))"],
     "pairs": [["M(two,s0)", "CONS(a,M(two,s1))"]]},
    {"kind": "strong",
     "root": ["APP(NIL,MAP(h,ITER(succ,x0)))", "MAP(h,APP(CONS(x0,NIL),ITER(succ,x1)))"],
     "pairs": [["APP(NIL,MAP(h,ITER(succ,x0)))", "MAP(h,APP(CONS(x0,NIL),ITER(succ,x1)))"]]
     + [[f"APP(NIL,MAP(h,ITER(succ,x{i})))", f"MAP(h,APP(NIL,ITER(succ,x{i})))"] for i in range(4)]},
]
CERT_EXPRS = [EQUAL_PAIRS[0], EQUAL_PAIRS[3], EQUAL_PAIRS[5]]
KEYS = ["CONST(a)", "CONST(b)", "CONS(a,CONST(a))", "M(two,s0)", "M(two,s1)", "NIL",
        "ITER(succ,x0)", "MAP(h,CONST(a))", "APP(NIL,CONST(a))", "CONS(a,M(two,s1))"]


def _defs_faults() -> list:
    """Definitions documents that each carry one fault of the loader (or
    two, to check which is reported first), then files that are no JSON."""
    def machine(**spec):
        return dict(DEFS, machines=dict(DEFS["machines"], m=spec))

    def fn(table):
        return dict(DEFS, functions=dict(DEFS["functions"], f=table))

    succ = DEFS["functions"]["succ"]
    docs = [
        [DEFS], "defs", None,
        dict(DEFS, alphabet="a"), dict(DEFS, alphabet=["a", 1]), dict(DEFS, alphabet=[]),
        dict(DEFS, alphabet=ALPHABET + ["a"]), dict(DEFS, alphabet=ALPHABET + ["b-c"]),
        dict(DEFS, alphabet=ALPHABET + [""]),
        dict(DEFS, functions=[1]), dict(DEFS, machines=[1]), dict(DEFS, functions=None),
        dict(DEFS, functions={"bad-name": succ}), fn("a"), fn([]),
        fn({k: v for k, v in succ.items() if k != "b"}), fn(dict(succ, zz="a")),
        fn(dict(succ, a="zz")), fn(dict(succ, a=["a"])), fn(dict(succ, a={"b": "a"})),
        dict(DEFS, machines={"bad-name": DEFS["machines"]["two"]}),
        machine(), dict(DEFS, machines={"m": "spec"}),
        machine(seeds=[], step={}), machine(seeds="s0", step={}),
        machine(seeds=["s0"], step=[]), machine(seeds=["s0"]),
        machine(seeds=["s-0"], step={"s-0": "stop"}), machine(seeds=[["x"]], step={}),
        machine(seeds=[1], step={}), machine(seeds=["s0", "s0"], step={"s0": "stop"}),
        machine(seeds=["s0"], step={"s0": "go"}), machine(seeds=["s0"], step={"s0": {"emit": "a"}}),
        machine(seeds=["s0"], step={"s0": {"emit": ["a", "s0"], "x": 1}}),
        machine(seeds=["s0"], step={"s0": {"emit": ["a", "s0", "s0"]}}),
        machine(seeds=["s0"], step={"s0": {"emit": [1, "s0"]}}),
        machine(seeds=["s0"], step={"s0": {"emit": ["a", ["s0"]]}}),
        machine(seeds=["s0"], step={"s0": "stop", "s1": "stop"}),
        machine(seeds=["s0"], step={"s0": {"emit": ["a", "s9"]}}),
        machine(seeds=["s0", "s1"], step={"s0": "stop"}),
        machine(seeds=["s0"], step={"s0": {"emit": ["zz", "s0"]}}),
        machine(seeds=["s0", "s1"], step={"s0": {"emit": ["zz", "s0"]}}),
        machine(seeds=["s0", "s0"], step={"s0": {"emit": ["zz", "s9"]}}),
        machine(seeds=["s0", 1], step={"s1": "stop"}),
        machine(seeds=["s-0", 1], step="stop"),
        dict(fn(dict(succ, a="zz")), alphabet=ALPHABET + ["a"]),
    ]
    texts = [json.dumps(doc) for doc in docs]
    return texts + ["{", "", "[" * 5000 + "]" * 5000, b'{"alphabet": ["\xff"]}']


def _spec_faults() -> list:
    """Lattice demo documents that each carry one fault of `load_demo`,
    then files that are no JSON."""
    fin = {"carrier": ["{}", "{a}"], "operator": {"name": "fin", "base": ["a"]}, "mode": "lfp"}
    docs = [
        ["demo"], dict(fin, carrier="{}"), dict(fin, carrier=[1]), dict(fin, carrier=["{}", "{}"]),
        dict(fin, mode="both"), dict(fin, mode=None), dict(fin, operator="nope"),
        dict(fin, operator={"name": "fin"}), dict(fin, operator={"name": "fin", "base": [1]}),
        dict(fin, operator={"name": "list_fun", "atoms": "a"}),
        dict(fin, operator={"name": "table", "map": []}),
        dict(fin, operator={"name": "table", "map": {"": "a"}}),
        dict(fin, operator={"name": "table", "map": {"{zz}": []}}),
        dict(fin, operator={"name": "table", "map": {"": ["{zz}"]}}),
        dict(fin, carrier=["{}", "{b,a}"]), dict(fin, carrier=["{}", "a"]),
        {"carrier": ["nil", "???"], "operator": {"name": "list_fun", "atoms": ["a"]}, "mode": "lfp"},
        {"carrier": ["nil", "cons( nil , nil )", "cons(nil,nil)"],
         "operator": {"name": "list_fun", "atoms": ["a"]}, "mode": "gfp"},
    ]
    return [json.dumps(doc) for doc in docs] + ["[", b'{"carrier": ["\xc3"]}']


def _cert_faults() -> list:
    """Certificate documents that each carry one fault of `Certificate`,
    then files that are no JSON."""
    good = CERTS[0]
    docs = [
        [good], dict(good, kind="both"), dict(good, kind=None), dict(good, root="x"),
        dict(good, root=[["a"], "b"]), dict(good, pairs="x"), dict(good, pairs=[good["root"], [1, 2]]),
        dict(good, root=["NIL", "NIL"]), {},
    ]
    return [json.dumps(doc) for doc in docs] + ["{", b'{"kind": "\xfe"}']


class Corpus:
    """Commands drawn from one seeded generator; the files they name are
    written under `root`, once per distinct content."""

    def __init__(self, root: pathlib.Path, seed: int):
        self.root, self.rng = root, random.Random(seed)
        self.paths: dict = {}
        self.defs = self.file(json.dumps(DEFS))
        self.bad_defs = [self.file(t) for t in _defs_faults()]
        self.bad_specs = [self.file(t) for t in _spec_faults()]
        self.bad_certs = [self.file(t) for t in _cert_faults()]
        self.missing = str(root / "missing.json")

    def file(self, content) -> str:
        """The path of a file holding `content` (text or bytes)."""
        path = self.paths.get(content)
        if path is None:
            path = self.paths[content] = str(self.root / f"f{len(self.paths)}.json")
            data = content if isinstance(content, bytes) else content.encode()
            pathlib.Path(path).write_bytes(data)
        return path

    def commands(self, count: int) -> list[list[str]]:
        return [self.command() for _ in range(count)]

    def command(self) -> list[str]:
        rng = self.rng
        kind = rng.choices(["eval", "trunc", "eq", "bisim", "cert", "check", "lattice", "odd"],
                           [5, 3, 4, 4, 2, 3, 3, 2])[0]
        if kind == "odd":
            return self.oddity()
        if kind == "lattice":
            return self.options(["lattice"], [("--spec", self.spec())])
        if kind == "cert":
            cert, (left, right) = self.cert()
            return self.options(["cert", "verify"], [("--defs", self.defs_path()), ("--cert", cert)],
                                [left, right])
        options = [("--defs", self.defs_path())]
        if kind in ("eval", "trunc", "eq", "check"):
            if rng.random() < 0.9:
                options.append(("--depth", self.depth(kind)))
        if kind == "check" and rng.random() < 0.5:
            options.append(("--atoms", ",".join(rng.sample(ALPHABET + ["", "zz"], rng.randint(0, 3)))))
        if kind == "bisim":
            if rng.random() < 0.3:
                options.append(("--kind", rng.choice(["weak", "strong", "strong", "both"])))
            if rng.random() < 0.3:
                options.append(("--max-pairs", rng.choice(["0", "1", "2", "3", "5", "40", "x"])))
        if kind in ("eq", "bisim"):
            return self.options([kind], options, list(self.pair()))
        return self.options([kind], options, [self.expr()])

    def options(self, command: list, options: list, positional=()) -> list[str]:
        """`command` with its options, each spelt in full, abbreviated or
        as `--opt=value`, and positionals before, between or after them."""
        rng = self.rng
        words = []
        for name, value in options:
            spelt = name if rng.random() < 0.9 else name[:rng.randint(3, len(name))]
            words.append([f"{spelt}={value}"] if rng.random() < 0.2 else [spelt, value])
        rng.shuffle(words)
        at = rng.randint(0, len(words)) if rng.random() < 0.2 else len(words)
        argv = command + [w for ws in words[:at] for w in ws] + list(positional)
        return argv + [w for ws in words[at:] for w in ws]

    def defs_path(self) -> str:
        r = self.rng.random()
        if r < 0.85:
            return self.defs
        return self.missing if r < 0.87 else self.rng.choice(self.bad_defs)

    def depth(self, kind: str) -> str:
        rng = self.rng
        if rng.random() < 0.05:
            return rng.choice(["-1", "x", "3.5", " 7", "1e3", "٣", ""])
        if kind == "trunc":
            return str(rng.randint(0, 40))
        if kind == "eval":
            return str(rng.choice([0, 1, 2, 3, 5, 8, 20, 60, 200]))
        return str(rng.choice([0, 1, 3, 10, 50, 1000, 10**6, 10**9]))

    def pair(self) -> tuple[str, str]:
        rng = self.rng
        r = rng.random()
        if r < 0.25:
            left, right = rng.choice(EQUAL_PAIRS)
        elif r < 0.5:
            left, k = self.expr(), rng.randint(1, 12)
            layer = rng.choice(["append(nil,", "cons(a,", "map(h,map(h,"])
            right = layer * k + left + ")" * (k * layer.count("("))
        else:
            left, right = self.expr(), self.expr()
        return (left, right) if rng.random() < 0.5 else (right, left)

    def known(self, names: list, unknown: str) -> str:
        """One of `names`, or now and then the undefined `unknown`."""
        return self.rng.choice(names) if self.rng.random() < 0.98 else unknown

    def symbol(self) -> str:
        return self.known(ALPHABET, "zz")

    def leaf(self) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.2:
            return "nil"
        if r < 0.45:
            return f"lconst({self.symbol()})"
        if r < 0.7:
            return f"iterates({self.known(FUNCTIONS, 'nofn')},{self.symbol()})"
        name = self.known(sorted(SEEDS), "nomachine")
        seed = self.known(SEEDS.get(name, ["s0"]), "s9")
        return f"corec({name},{seed})"

    def expr(self) -> str:
        """A list expression, mutated one time in seven."""
        text = self.term(self.rng.randint(0, 4))
        return self.mutate(text) if self.rng.random() < 1 / 7 else text

    def term(self, budget: int) -> str:
        rng = self.rng
        if budget <= 0:
            return self.leaf()
        shape = rng.choice(["leaf", "cons", "map", "nil", "alt", "append", "append"])
        k = rng.choice([1, 1, 2, 3, 5, 12, 40]) if rng.random() < 0.97 else 300
        if shape == "leaf":
            return self.leaf()
        if shape == "append":
            return f"append({self.term(budget - 1)},{self.term(budget - 1)})"
        inner = self.term(budget - 1)
        if shape == "cons":
            heads = [self.symbol() for _ in range(min(k, 40))]
            layers = [f"cons({heads[i % len(heads)]}," for i in range(k)]
        elif shape == "map":
            fns = [self.known(FUNCTIONS, "nofn") for _ in range(min(k, 5))]
            layers = [f"map({fns[i % len(fns)]}," for i in range(k)]
        elif shape == "nil":
            layers = ["append(nil,"] * k
        else:
            layers = ["map(h,", "append(nil,"] * k
        return "".join(layers) + inner + ")" * len(layers)

    def mutate(self, text: str) -> str:
        rng = self.rng
        i = rng.randrange(len(text) + 1)
        r = rng.randrange(6)
        if r == 0:
            return text[:i] + text[i + 1:]
        if r == 1:
            return text[:i] + rng.choice("(),  az0-_") + text[i:]
        if r == 2:
            return text[:i]
        if r == 3:
            return text + rng.choice([")", ",nil)", " ", "x"])
        if r == 4:  # whitespace between tokens: still well formed
            return text.replace("(", "( ").replace(",", " , ")
        return rng.choice(["", " ", "cons(a)", "map(h)", "append(nil)", "corec(two)", "-x"]) + text[i:]

    def cert(self) -> tuple[str, tuple[str, str]]:
        rng = self.rng
        which = rng.randrange(len(CERTS))
        pair = CERT_EXPRS[which] if rng.random() < 0.7 else self.pair()
        r = rng.random()
        if r < 0.1:
            return rng.choice(self.bad_certs + [self.missing]), pair
        doc = json.loads(json.dumps(CERTS[which]))
        if r < 0.6:
            for _ in range(rng.randint(1, 3)):
                move = rng.randrange(4)
                if move == 0 and len(doc["pairs"]) > 1:
                    del doc["pairs"][rng.randrange(1, len(doc["pairs"]))]
                elif move == 1:
                    doc["pairs"].append([rng.choice(KEYS), rng.choice(KEYS)])
                elif move == 2:
                    doc["kind"] = rng.choice(["weak", "strong"])
                else:
                    doc["root"] = doc["root"][::-1]
        return self.file(json.dumps(doc)), pair

    def spec(self) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.15:
            return rng.choice(self.bad_specs + [self.missing])
        mode = rng.choice(["lfp", "gfp"])
        if r < 0.4:
            base = rng.sample(["a", "b", "c", "d"], rng.randint(0, 3)) + ["a,b"] * (rng.random() < 0.1)
            sets = {"{" + ",".join(sorted(rng.sample("abcd", rng.randint(0, 3)))) + "}"
                    for _ in range(rng.randint(1, 10))}
            carrier = sorted(sets, key=lambda _: rng.random())
            if rng.random() < 0.1:
                carrier.append(rng.choice(["{b,a}", "{a,a}", "{,a}", "x"]))
            doc = {"carrier": carrier, "operator": {"name": "fin", "base": base}, "mode": mode}
        elif r < 0.7:
            atoms = rng.sample(["a", "b", "c"], rng.randint(0, 2))
            carrier = []
            for _ in range(rng.randint(1, 9)):
                t = self.tree_term(rng.randint(0, 3))
                if t not in carrier:
                    carrier.append(t)
            doc = {"carrier": carrier, "operator": {"name": "list_fun", "atoms": atoms}, "mode": mode}
        elif r < 0.8:
            doc = {"carrier": rng.sample(["x", "y", "z"], rng.randint(0, 3)),
                   "operator": rng.choice(["identity", {"name": "identity"}]), "mode": mode}
        else:
            carrier = rng.sample(["x", "y", "z"], rng.randint(1, 3))
            table = {}
            for bits in range(1 << len(carrier)):  # now and then a subset without an entry
                if rng.random() < 0.97:
                    key = ",".join(sorted(x for i, x in enumerate(carrier) if bits >> i & 1))
                    table[key] = rng.sample(carrier, rng.randint(0, len(carrier)))
            doc = {"carrier": carrier, "operator": {"name": "table", "map": table}, "mode": mode}
        return self.file(json.dumps(doc))

    def tree_term(self, budget: int) -> str:
        rng = self.rng
        if budget <= 0 or rng.random() < 0.3:
            r = rng.random()
            if r < 0.4:
                return "nil"
            if r < 0.8:
                return f"leaf({rng.choice('abc')})"
            return f"numb({rng.choice(['0', '7', '42', '007', 'x'])})"
        head = rng.choice(["cons", "cons", "cons", "scons", "in0", "in1"])
        if head in ("in0", "in1"):
            text = f"{head}({self.tree_term(budget - 1)})"
        elif head == "cons" and rng.random() < 0.6:
            text = f"cons(leaf({rng.choice('abc')}),{self.tree_term(budget - 1)})"
        else:
            text = f"{head}({self.tree_term(budget - 1)},{self.tree_term(budget - 1)})"
        return self.mutate(text) if rng.random() < 0.05 else text

    def oddity(self) -> list[str]:
        """Help, abbreviations, unknown or missing words, and the like."""
        rng = self.rng
        d = self.defs
        return rng.choice([
            [], ["-h"], ["--help"], ["-h", "eval"], ["nonsense"], ["--defs", d],
            [rng.choice(["eval", "trunc", "eq", "bisim", "cert", "check", "lattice"]),
             rng.choice(["-h", "--help", "--he"])],
            ["cert", "verify", "--help"], ["cert", "-h"], ["cert"], ["cert", "nonsense"],
            ["eval", "--defs", d], ["eval", "--defs", d, "nil", "nil"], ["eval", "--de", d, "nil"],
            ["eval", "--de=3", "--defs", d, "nil"], ["eval", "--defs", d, "--nope", "nil"],
            ["eval", "--defs", d, "--depth", "3", "--depth", "4", "lconst(a)"],
            ["eval", "--defs", d, "--depth"], ["eval", "--defs", d, "--", "nil"],
            ["eval", "--defs", d, "-x"], ["eval", "--defs", "", "nil"],
            ["eval", "--defs", str(self.root), "nil"], ["lattice", "--spec", str(self.root)],
            ["bisim", "--defs", d, "--max", "3", "lconst(a)", "lconst(a)"],
            ["bisim", "--defs", d, "--kind=weak", "--max-pairs=1", *EQUAL_PAIRS[0]],
            ["check", "--defs", d, "--atoms=", "lconst(a)"],
            ["check", "--defs", d, "--at", "a,b", "corec(two,s0)"],
            ["lattice", "--sp", self.spec()], ["lattice", f"--spec={self.spec()}", "extra"],
        ])


def replay(argvs) -> list:
    """Run each command in this process: (exit code, stdout, stderr) each.

    A `SystemExit` that escapes `run_command` counts as the exit code it
    carries, as it would for the `coinduct` script; any other exception
    is reported in place of the exit code."""
    from coinduct.cli import run_command

    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = run_command(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code = f"raised {type(exc).__name__}: {exc}"
        results.append([code, out.getvalue(), err.getvalue()])
    return results


# run in a fresh interpreter: argv is [src, commands file, results file]
_REPLAY = """
import json, pathlib, sys
src, commands, results = sys.argv[1:]
sys.path[:0] = [src, {tests!r}]
import coinduct, corpus
assert pathlib.Path(coinduct.__file__).resolve().is_relative_to(pathlib.Path(src).resolve())
argvs = json.loads(pathlib.Path(commands).read_text())
pathlib.Path(results).write_text(json.dumps(corpus.replay(argvs)))
"""


def _run_tree(src: pathlib.Path, commands: pathlib.Path, results: pathlib.Path) -> list:
    script = _REPLAY.format(tests=str(pathlib.Path(__file__).resolve().parent))
    subprocess.run([sys.executable, "-c", script, str(src), str(commands), str(results)],
                   check=True, cwd=commands.parent)
    return json.loads(results.read_text())


def against(rev: str, count: int, seed: int) -> int:
    """Print every command whose outcome differs between `rev` and the
    working tree; the number of such commands."""
    repo = pathlib.Path(__file__).resolve().parents[1]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="coinduct-corpus-") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "files").mkdir()
        argvs = Corpus(tmp / "files", seed).commands(count)
        commands = tmp / "commands.json"
        commands.write_text(json.dumps(argvs))
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(repo), "worktree", "add", "--quiet", "--detach",
                        str(tree), rev], check=True)
        try:
            old = _run_tree(tree / "src", commands, tmp / "old.json")
        finally:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(tree)],
                           check=True)
        new = _run_tree(repo / "src", commands, tmp / "new.json")
    differ = 0
    for argv, a, b in zip(argvs, old, new):
        if a != b:
            differ += 1
            print(json.dumps({"argv": argv, rev: a, "working tree": b}))
    print(f"{count} commands, {differ} differ, seed {seed}, against {rev}, "
          f"{time.perf_counter() - started:.1f} s")
    return differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="a local git revision to compare the working tree with")
    parser.add_argument("--count", type=int, default=12000, help="commands to run (default 12000)")
    parser.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    args = parser.parse_args()
    sys.exit(1 if against(args.against, args.count, args.seed) else 0)


if __name__ == "__main__":
    main()
