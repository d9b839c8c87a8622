"""Command-line surface: golden reports, exit codes, file workflows."""

import hashlib
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import coinduct
from coinduct import cli, colist, dsl
from coinduct.bisim import KEY_TEXT_BOUND
from coinduct.cli import _build_parser, run_command
from coinduct.errors import CoinductError
from coinduct.syntax import NUMERAL_DIGITS
from coinduct.trees import dump_tree

DATA = pathlib.Path(__file__).parent / "data"
DEFS = str(DATA / "defs.json")
README = pathlib.Path(__file__).parents[1] / "README.md"


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_golden(capsys):
    code, out, err = run(
        capsys, "eval", "--defs", DEFS, "--depth", "4", "iterates(succ,x0)"
    )
    assert (code, out, err) == (0, "[x0,x1,x2,x3,...]\n", "")


def test_eval_finite_list(capsys):
    code, out, _ = run(capsys, "eval", "--defs", DEFS, "corec(fin3,t0)")
    assert (code, out) == (0, "[a,b]\n")


def test_eq_golden(capsys):
    code, out, err = run(
        capsys, "eq", "--defs", DEFS, "--depth", "20", "lconst(a)", "cons(a,lconst(a))"
    )
    assert (code, out, err) == (0, "EQUAL to depth 20\n", "")


def test_eq_differs(capsys):
    code, out, _ = run(capsys, "eq", "--defs", DEFS, "lconst(a)", "lconst(b)")
    assert code == 1
    assert out == "FAIL heads differ @ 0\n"


def test_bisim_golden(capsys):
    code, out, err = run(
        capsys, "bisim", "--defs", DEFS, "map(g,map(h,lconst(a)))", "map(gh,lconst(a))"
    )
    assert code == 0
    assert err == ""
    assert out == (
        "PASS\n"
        "certificate: kind=strong pairs=1\n"
        "  MAP(g,MAP(h,CONST(a))) ~ MAP(gh,CONST(a))\n"
    )


def test_bisim_counterexample(capsys):
    code, out, _ = run(capsys, "bisim", "--defs", DEFS, "lconst(a)", "lconst(b)")
    assert (code, out) == (1, "FAIL heads differ @ 0\n")
    code, out, _ = run(
        capsys, "bisim", "--defs", DEFS, "cons(a,cons(a,lconst(a)))", "cons(a,cons(b,lconst(a)))"
    )
    assert (code, out) == (1, "FAIL heads differ @ 1\n")


def test_one_grammar_table_per_command(capsys, monkeypatch, tmp_path):
    """A command builds the expression grammar's table once over its
    definitions, however many expressions it reads."""
    built = []
    real = dsl._elaborating
    monkeypatch.setattr(dsl, "_elaborating", lambda defs: built.append(defs) or real(defs))
    cert = tmp_path / "cert.json"
    pairs = [["CONST(a)", "CONS(a,CONST(a))"], ["CONST(a)", "CONST(a)"]]
    cert.write_text(json.dumps({"kind": "weak", "root": pairs[0], "pairs": pairs}))
    exprs = ("lconst(a)", "cons(a,lconst(a))")
    for argv in (("eq", "--defs", DEFS, *exprs), ("bisim", "--defs", DEFS, *exprs),
                 ("cert", "verify", "--defs", DEFS, "--cert", str(cert), *exprs),
                 ("eval", "--defs", DEFS, exprs[1])):
        built.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(built) == 1, argv


def run_fresh(*argv, entry=("-c", "from coinduct.cli import main; main()")):
    """One command in a new interpreter, started by the interpreter
    arguments `entry`: (exit code, stdout, stderr)."""
    src = str(pathlib.Path(coinduct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *entry, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_matches_fresh_process(capsys):
    usage = ("eval", "--defs", DEFS, "--depth", "four", "lconst(a)")
    valid = ("eval", "--defs", DEFS, "--depth", "4", "iterates(succ,x0)")
    in_process = [run(capsys, *usage), run(capsys, *valid)]
    assert in_process == [run_fresh(*usage), run_fresh(*valid)]
    assert [code for code, _, _ in in_process] == [2, 0]
    assert _build_parser() is _build_parser()


def test_module_entry_runs_a_command():
    """`python -m coinduct` runs the driver and writes nothing to stderr."""
    argv = ("eval", "--defs", DEFS, "--depth", "3", "lconst(a)")
    assert run_fresh(*argv, entry=("-m", "coinduct")) == (0, "[a,a,a,...]\n", "")


@pytest.mark.parametrize("argv", [["-h"], ["eval", "--help"]])
def test_help_returns_0(capsys, monkeypatch, argv):
    """Help prints usage on stdout and returns 0 from `run_command`, as
    the fresh process exits 0 with the same text."""
    monkeypatch.setenv("COLUMNS", "80")  # one help width in and out of process
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("usage: coinduct")
    assert run_fresh(*argv) == (code, out, err)


def test_bisim_bound(capsys):
    code, out, _ = run(
        capsys,
        "bisim",
        "--defs",
        DEFS,
        "--kind",
        "weak",
        "--max-pairs",
        "1",
        "lconst(a)",
        "cons(a,lconst(a))",
    )
    assert (code, out) == (3, "BOUND\n")


@pytest.mark.parametrize("value", ["0", "-3", "many"])
def test_bisim_max_pairs_below_one_is_a_usage_error(capsys, value):
    code, out, err = run(
        capsys, "bisim", "--defs", DEFS, "--max-pairs", value, "lconst(a)", "lconst(a)"
    )
    assert (code, out) == (2, "")
    assert err == f"error: argument --max-pairs: must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("command", ["eval", "trunc", "eq", "check"])
@pytest.mark.parametrize("value", ["-1", "-3", "deep"])
def test_depth_below_zero_is_a_usage_error(capsys, command, value):
    exprs = ["lconst(a)", "lconst(b)"] if command == "eq" else ["lconst(a)"]
    code, out, err = run(capsys, command, "--defs", DEFS, "--depth", value, *exprs)
    assert (code, out) == (2, "")
    assert err == f"error: argument --depth: must be a non-negative integer, got {value!r}\n"


@pytest.mark.parametrize("option, what", [("--depth", "a non-negative integer"),
                                          ("--max-pairs", "a positive integer")])
@pytest.mark.parametrize("value", [" 3_0 ", "3_0", " 3", "+3", "٣", "３", "3.0", ""])
def test_counts_take_ascii_digits_alone(capsys, option, what, value):
    """A count is ASCII decimal digits and nothing else: no space, sign,
    `_` or other script's digits, though `int` reads each of these."""
    command = "bisim" if option == "--max-pairs" else "eval"
    exprs = ["lconst(a)", "lconst(a)"] if command == "bisim" else ["lconst(a)"]
    code, out, err = run(capsys, command, "--defs", DEFS, option, value, *exprs)
    assert (code, out) == (2, "")
    assert err == f"error: argument {option}: must be {what}, got {value!r}\n"


def test_counts_read_leading_zeros(capsys):
    assert run(capsys, "eval", "--defs", DEFS, "--depth", "003", "lconst(a)") == (
        0, "[a,a,a,...]\n", ""
    )
    bisim = ("bisim", "--defs", DEFS, "--kind", "weak", "--max-pairs")
    exprs = ("lconst(a)", "cons(a,lconst(a))")
    assert run(capsys, *bisim, "01", *exprs) == run(capsys, *bisim, "1", *exprs)


def test_depth_zero_is_valid(capsys):
    assert run(capsys, "eq", "--defs", DEFS, "--depth", "0", "lconst(a)", "lconst(b)") == (
        0, "EQUAL to depth 0\n", ""
    )


def test_parse_error_golden(capsys):
    code, out, err = run(capsys, "eval", "--defs", DEFS, "--depth", "4", "append(nil,")
    assert (code, out) == (2, "")
    assert err == "error: parse error at offset 11: expected expression\n"


def test_trunc_golden(capsys):
    code, out, _ = run(capsys, "trunc", "--defs", DEFS, "--depth", "4", "cons(a,nil)")
    assert code == 0
    assert out == "0 num:1\n10 atom:a\n110 num:0\n111 num:0\n"


def test_check(capsys):
    code, out, _ = run(capsys, "check", "--defs", DEFS, "--depth", "20", "corec(two,s0)")
    assert (code, out) == (0, "PASS membership to depth 20\n")
    code, out, _ = run(
        capsys, "check", "--defs", DEFS, "--atoms", "a", "corec(two,s0)"
    )
    assert code == 1
    assert out == "FAIL head b outside allowed atoms @ 1\n"


def test_cert_verify_flow(capsys, tmp_path):
    from coinduct.bisim import find_bisimulation
    from coinduct.colist import Definitions
    from coinduct.dsl import elaborate, parse_expr

    defs = Definitions.load(DEFS)
    left = elaborate(parse_expr("lconst(a)"), defs)
    right = elaborate(parse_expr("cons(a,lconst(a))"), defs)
    cert = find_bisimulation(left, right, 100, kind="weak")
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert.to_dict()))

    code, out, _ = run(
        capsys,
        "cert",
        "verify",
        "--defs",
        DEFS,
        "--cert",
        str(path),
        "lconst(a)",
        "cons(a,lconst(a))",
    )
    assert (code, out) == (0, "PASS\n")

    doc = cert.to_dict()
    doc["pairs"] = [list(doc["root"])]
    path.write_text(json.dumps(doc))
    code, out, _ = run(
        capsys,
        "cert",
        "verify",
        "--defs",
        DEFS,
        "--cert",
        str(path),
        "lconst(a)",
        "cons(a,lconst(a))",
    )
    assert code == 1
    assert out.startswith("FAIL tail pair escapes the relation @ ")

    code, _, err = run(
        capsys,
        "cert",
        "verify",
        "--defs",
        DEFS,
        "--cert",
        str(path),
        "lconst(b)",
        "lconst(b)",
    )
    assert code == 2 and "error:" in err


def test_cert_verify_of_a_bisim_certificate_beyond_the_state_bound(capsys, tmp_path):
    """`cert verify` accepts the certificates `bisim` prints for a
    12000-seed ring machine, larger than the former 10^4 bound."""
    seeds = [f"s{i}" for i in range(12_000)]
    step = {s: {"emit": ["a", seeds[(i + 1) % len(seeds)]]} for i, s in enumerate(seeds)}
    defs = tmp_path / "big.json"
    defs.write_text(json.dumps({"alphabet": ["a"], "machines": {"big": {"seeds": seeds, "step": step}}}))
    cert = tmp_path / "cert.json"
    for left, size in (("corec(big,s0)", 1), ("cons(a,cons(a,corec(big,s2)))", 2)):
        code, out, _ = run(capsys, "bisim", "--defs", str(defs), left, "corec(big,s0)")
        assert (code, out.splitlines()[:2]) == (0, ["PASS", f"certificate: kind=strong pairs={size}"])
        pairs = [line.strip().split(" ~ ") for line in out.splitlines()[2:]]
        cert.write_text(json.dumps({"kind": "strong", "root": pairs[0], "pairs": pairs}))
        argv = ("cert", "verify", "--defs", str(defs), "--cert", str(cert), left, "corec(big,s0)")
        assert run(capsys, *argv) == (0, "PASS\n", "")


def test_lattice_command(capsys):
    code, out, _ = run(capsys, "lattice", "--spec", str(DATA / "lattice_fin.json"))
    assert (code, out) == (0, "lfp = {{},{a},{b},{a,b}}\n")


def test_lattice_gfp(capsys, tmp_path):
    doc = {"carrier": ["x", "y"], "operator": "identity", "mode": "gfp"}
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "lattice", "--spec", str(path))
    assert (code, out) == (0, "gfp = {x,y}\n")


UNPRODUCIBLE_DEMOS = {
    "fin": ({"carrier": ["{}", "{a}", "{b,a}", "{b}"],
             "operator": {"name": "fin", "base": ["a", "b"]}, "mode": "lfp"},
            "error: carrier: element '{b,a}' is not written as '{a,b}'\n"),
    "list_fun": ({"carrier": ["nil", "cons(leaf(a),nil)", "cons( leaf(a) , nil )"],
                  "operator": {"name": "list_fun", "atoms": ["a"]}, "mode": "lfp"},
                 "error: carrier: element 'cons( leaf(a) , nil )' is the same tree as "
                 "'cons(leaf(a),nil)'\n"),
}


@pytest.mark.parametrize("name", UNPRODUCIBLE_DEMOS)
def test_lattice_unproducible_element_exits_2(capsys, tmp_path, name):
    """A carrier element the operator never produces is named, not dropped."""
    doc, expected = UNPRODUCIBLE_DEMOS[name]
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "lattice", "--spec", str(path)) == (2, "", expected)


def test_long_numeral_exits_2(capsys, tmp_path):
    """A numeral longer than NUMERAL_DIGITS is a parse error of its
    carrier element, on one `error:` line, not an exception from `int`;
    one at the limit reads."""
    digits = 5000
    assert digits > NUMERAL_DIGITS
    path = tmp_path / "demo.json"
    for n, code in ((digits, 2), (NUMERAL_DIGITS, 0)):
        doc = {"carrier": ["numb(" + "7" * n + ")", "nil"],
               "operator": {"name": "list_fun", "atoms": ["a"]}, "mode": "lfp"}
        path.write_text(json.dumps(doc))
        assert run(capsys, "lattice", "--spec", str(path))[0] == code
    doc["carrier"][0] = "numb(" + "7" * digits + ")"
    path.write_text(json.dumps(doc))
    expected = (f"error: carrier: element {doc['carrier'][0]!r} is not a tree term (parse "
                f"error at offset 5: expected numeral of at most {NUMERAL_DIGITS} digits)\n")
    assert run(capsys, "lattice", "--spec", str(path)) == (2, "", expected)


@pytest.mark.parametrize("command", ["eval", "trunc"])
def test_out_of_memory_exits_2(capsys, monkeypatch, command):
    """Memory that runs out while `eval` or `trunc` reads its list is one
    `error:` line and exit 2, not a traceback.  Both read the list once,
    through `read_lasso`."""
    def read_lasso(*args):
        raise MemoryError

    monkeypatch.setattr(coinduct.cli.colist, "read_lasso", read_lasso)
    assert run(capsys, command, "--defs", DEFS, "--depth", "100000000", "lconst(a)") == (
        2, "", "error: out of memory\n")


def _eval_oracle(k, l):
    return cli._render_prefix(*colist.take(k, l)) + "\n"


def _trunc_oracle(k, l):
    return dump_tree(colist.tree_trunc(k, l))


def test_eval_and_trunc_match_their_oracles_on_the_corpus(capsys, monkeypatch, tmp_path):
    """`eval` and `trunc` write what `take` in `_render_prefix`'s format and
    `dump_tree(tree_trunc(k, l))` write, on the corpus's expressions at
    depths -1 to 64, and at 10^3 and 10^4: `eval` on all of them, `trunc`
    on those that end within 64 heads, at 10^3 on ten that do not and at
    10^4 on one (the oracle takes seconds there).  Through `run_command`,
    writes of a few characters join the same text."""
    from corpus import DEFS as CORPUS_DEFS, Corpus

    corpus = Corpus(tmp_path, seed=3)
    read = dsl.reader(colist.Definitions.from_dict(CORPUS_DEFS))
    cases = []
    while len(cases) < 40:
        text = corpus.expr()
        try:
            cases.append((text, read(text)))
        except CoinductError:
            pass
    infinite = 0
    for text, l in cases:
        for k in range(-1, 65):
            assert "".join(cli._eval_text(k, l)) == _eval_oracle(k, l), (text, k)
            assert "".join(cli._trunc_text(k, l)) == _trunc_oracle(k, l), (text, k)
        ends = colist.take(64, l)[1]
        infinite += not ends
        for k in (10**3, 10**4):
            assert "".join(cli._eval_text(k, l)) == _eval_oracle(k, l), (text, k)
            if ends or infinite <= (10 if k == 10**3 else 1):
                assert "".join(cli._trunc_text(k, l)) == _trunc_oracle(k, l), (text, k)
    assert 10 < infinite < len(cases)
    monkeypatch.setattr(cli, "_CHUNK", 5)
    for text, l in cases[:20]:
        for command, oracle in (("eval", _eval_oracle), ("trunc", _trunc_oracle)):
            argv = (command, "--defs", corpus.defs, "--depth", "37", text)
            assert run(capsys, *argv) == (0, oracle(37, l), ""), argv


class _Sink:
    """A stdout that keeps the length and a digest of what is written to it."""

    def __init__(self):
        self.size, self.digest = 0, hashlib.blake2b()

    def write(self, text):
        self.size += len(text)
        self.digest.update(text.encode())
        return len(text)


def _digest(pieces):
    """(length, digest) of the text `pieces` join."""
    sink = _Sink()
    for piece in pieces:
        sink.write(piece)
    return sink.size, sink.digest.hexdigest()


def _trunc_const(k):
    """`trunc --depth k "lconst(a)"` by the depth of each line: the cell at
    depth 2j + 1 has its tag there and its head one deeper."""
    for d in range(1, k):
        yield "1" * (d - 1) + ("0 atom:a\n" if d % 2 == 0 else "0 num:1\n")


@pytest.mark.parametrize("command, depth, expected", [
    ("eval", 10**7, lambda: iter(["[", *["a," * 10**4] * 10**3, "...]\n"])),
    ("trunc", 10**4, lambda: _trunc_const(10**4)),
])
def test_eval_and_trunc_memory_does_not_grow_with_depth(monkeypatch, command, depth, expected):
    """`eval` at depth 10^7 and `trunc` at depth 10^4 write their 20 MB and
    50 MB within a `tracemalloc` peak of 8 MB: a few writes of
    `cli._CHUNK` characters (10^6), one line of `trunc` and no list of
    heads.  Building the k heads (80 MB of list alone) or the joined dump
    would exceed it."""
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = run_command([command, "--defs", DEFS, "--depth", str(depth), "lconst(a)"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (sink.size, sink.digest.hexdigest()) == _digest(expected())
    assert peak < 8 * 2**20, peak


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command, depth", [("eval", 10**6), ("trunc", 3000)])
def test_a_closed_pipe_exits_2(command, depth, unbuffered):
    """Output into a pipe that its reader closes after one byte: one
    `error:` line, exit 2, and no complaint at exit about bytes left in
    stdout's buffer, with stdout buffered or not (`PYTHONUNBUFFERED`).
    Both outputs are far larger than a pipe holds."""
    src = str(pathlib.Path(coinduct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)  # "" leaves it buffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "coinduct", command, "--defs", DEFS, "--depth", str(depth),
         "lconst(a)"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.read(1) == (b"[" if command == "eval" else b"0")
        proc.stdout.close()
        assert proc.stderr.read() == b"error: [Errno 32] Broken pipe\n"
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_usage_errors(capsys):
    code, _, err = run(capsys, "eval")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "eval", "--defs", "/nonexistent.json", "nil")
    assert code == 2 and "error:" in err


MISSING_ARGUMENTS = {
    "": "command",
    "eval": "--defs, expr",
    "trunc": "--defs, expr",
    "eq": "--defs, left, right",
    "bisim": "--defs, left, right",
    "cert": "cert_command",
    "cert verify": "--defs, --cert, left, right",
    "check": "--defs, expr",
    "lattice": "--spec",
}


@pytest.mark.parametrize("command", MISSING_ARGUMENTS)
def test_missing_arguments_golden(capsys, command):
    """Each command names its missing required arguments in declaration order."""
    expected = f"error: the following arguments are required: {MISSING_ARGUMENTS[command]}\n"
    assert run(capsys, *command.split()) == (2, "", expected)


def test_defs_validation_error_exit(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": ["a", "a"]}))
    code, _, err = run(capsys, "eval", "--defs", str(path), "nil")
    assert code == 2
    assert "alphabet" in err


GOOD_DEFS = json.loads((DATA / "defs.json").read_text())
ROOT = ["CONST(a)", "CONS(a,CONST(a))"]
TABLE_DEMO = {"carrier": ["x"], "operator": {"name": "table", "map": {"": [["x"]], "x": ["x"]}},
              "mode": "lfp"}
MALFORMED = {
    "defs: functions not an object": ("defs", json.dumps(dict(GOOD_DEFS, functions=[1]))),
    "defs: machines not an object": ("defs", json.dumps(dict(GOOD_DEFS, machines=[1]))),
    "defs: non-string seed": ("defs", json.dumps(
        dict(GOOD_DEFS, machines={"m": {"seeds": [["x"]], "step": {}}}))),
    "defs: list-valued function entry": ("defs", json.dumps(
        {"alphabet": ["a"], "functions": {"f": {"a": ["a"]}}})),
    "defs: object-valued function entry": ("defs", json.dumps(
        {"alphabet": ["a"], "functions": {"f": {"a": {"b": "a"}}}})),
    "defs: invalid UTF-8": ("defs", b'{"alphabet": ["\xff"]}'),
    "lattice: non-string table members": ("spec", json.dumps(TABLE_DEMO)),
    "lattice: invalid UTF-8": ("spec", b'{"carrier": ["\xc3"]}'),
    "cert: nested root": ("cert", json.dumps({"kind": "weak", "root": [["a"], "b"],
                                              "pairs": [ROOT]})),
    "cert: invalid UTF-8": ("cert", b'{"kind": "\xfe"}'),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_file_exits_2(capsys, tmp_path, case):
    """Each file format reports a malformed file as one `error:` line and
    exit 2, whatever its fault."""
    role, content = MALFORMED[case]
    path = tmp_path / "input.json"
    if isinstance(content, str):
        path.write_text(content)
    else:
        path.write_bytes(content)
    argv = {
        "defs": ["eval", "--defs", str(path), "nil"],
        "spec": ["lattice", "--spec", str(path)],
        "cert": ["cert", "verify", "--defs", DEFS, "--cert", str(path), "lconst(a)", "lconst(a)"],
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_deep_input_exits_2(capsys, tmp_path):
    """JSON nested past what the decoder can follow is a validation error,
    not a crash."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    assert run(capsys, "eval", "--defs", str(path), "nil") == (
        2, "", "error: input nested too deeply\n")


# Deep expressions: n levels around an innermost list (n % 4 == 0), a
# shallow expression with the same observations, and its first two.
DEEP = {
    "cons": (lambda n: "cons(a," * n + "lconst(a)" + ")" * n, "lconst(a)",
             "cons(a,cons(a,nil))"),
    "map": (lambda n: "map(succ," * n + "iterates(succ,x0)" + ")" * n, "iterates(succ,x0)",
            "cons(x0,cons(x1,nil))"),
    "append": (lambda n: "append(nil," * n + "lconst(b)" + ")" * n, "lconst(b)",
               "cons(b,cons(b,nil))"),
}


@pytest.mark.parametrize("n", [3000, 10**5])
@pytest.mark.parametrize("kind", sorted(DEEP))
def test_deep_expressions_run(capsys, kind, n):
    """Expressions nested far past the recursion limit are read, observed
    and searched like shallow ones: `bisim` keys each root once and each
    tail it reads, so a refutation at pair 2 holds three keys a side."""
    make, shallow, prefix = DEEP[kind]
    deep = make(n)
    for argv in (["eval", "--depth", "7"], ["trunc", "--depth", "9"]):
        assert run(capsys, *argv, "--defs", DEFS, deep) == run(capsys, *argv, "--defs", DEFS, shallow)
    assert run(capsys, "bisim", "--defs", DEFS, deep, prefix) == (1, "FAIL nil/cons mismatch @ 2\n", "")


KEY_TEXT_ERROR = f"error: state keys of one list hold more than {KEY_TEXT_BOUND} characters\n"


def test_key_text_bound_at_the_argument_size_limit(capsys, tmp_path):
    """A cons chain as long as one command-line argument can be (128 KiB)
    is walked by ids, with no key text but its end's: a query that reads
    two of its states is answered, and a certificate is replayed down the
    whole chain to its verdict.  `bisim` finds a certificate for 10^4 of
    its cells under the default budget, and for 16000 under a larger
    one; their reports would write about 3.5 * 10^8 and 9 * 10^8
    characters of keys a side, and `bisim` refuses both once the ids
    tell that the text passes the bound."""
    n = 16000
    deep = "cons(a," * n + "nil" + ")" * n
    key = "CONS(a," * n + "NIL" + ")" * n
    assert len(deep) < 128 * 1024
    assert run(capsys, "bisim", "--defs", DEFS, deep, "nil") == (1, "FAIL nil/cons mismatch @ 0\n", "")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"kind": "strong", "root": [key, "NIL"], "pairs": [[key, "NIL"]]}))
    code, out, err = run(capsys, "cert", "verify", "--defs", DEFS, "--cert", str(cert), deep, "nil")
    assert (code, err) == (1, "") and out.startswith("FAIL nil/cons mismatch @ ")

    deep = "cons(a," * n + "lconst(a)" + ")" * n
    key = "CONS(a," * n + "CONST(a)" + ")" * n
    assert run(capsys, "bisim", "--defs", DEFS, deep, "lconst(a)") == (3, "BOUND\n", "")
    assert run(capsys, "bisim", "--defs", DEFS, "--max-pairs", "20000", deep, "lconst(a)") == (
        2, "", KEY_TEXT_ERROR)
    cells = "cons(a," * 10**4 + "lconst(a)" + ")" * 10**4
    assert run(capsys, "bisim", "--defs", DEFS, cells, "lconst(a)") == (2, "", KEY_TEXT_ERROR)
    pairs = [[key, "CONST(a)"]] + [[f"x{i}", f"x{i}"] for i in range(n)]
    cert.write_text(json.dumps({"kind": "strong", "root": pairs[0], "pairs": pairs}))
    assert run(capsys, "cert", "verify", "--defs", DEFS, "--cert", str(cert), deep, "lconst(a)") == (
        2, "", "error: key x0 names no reachable state\n")
    cert.write_text(json.dumps({"kind": "strong", "root": pairs[0], "pairs": pairs[:1]}))
    assert run(capsys, "cert", "verify", "--defs", DEFS, "--cert", str(cert), deep, "lconst(a)") == (
        1, f"FAIL tail pair escapes the relation @ ('{key[7:-1]}', 'CONST(a)')\n", "")


def test_key_text_bound_counts_characters_held(capsys, tmp_path):
    """The bound counts the key text a walk holds, not the cells or the
    length of the argument.  A 3000-deep `append` tower of `lconst(a)`
    (about 54 KB) repeats its root key after one step, so `bisim` proves
    it equal to `lconst(a)` with one pair.  A 5000-deep `append(nil,...)`
    tower over a 100-seed ring holds 100 keys of about 45 KB and passes;
    over a 10^4-seed ring it would hold about 4.5 * 10^8 characters, and
    `bisim` refuses it."""
    n = 3000
    tower = "append(lconst(a)," * n + "lconst(a)" + ")" * n
    code, out, err = run(capsys, "bisim", "--defs", DEFS, tower, "lconst(a)")
    assert (code, err) == (0, "")
    assert out.startswith("PASS\ncertificate: kind=strong pairs=1\n")

    def ring(k):
        seeds = [f"s{i}" for i in range(k)]
        return {"seeds": seeds, "step": {s: {"emit": ["a", seeds[(i + 1) % k]]} for i, s in enumerate(seeds)}}

    defs = tmp_path / "rings.json"
    defs.write_text(json.dumps({"alphabet": ["a"], "machines": {"small": ring(100), "big": ring(10**4)}}))
    n = 5000
    code, out, err = run(capsys, "bisim", "--defs", str(defs),
                         "append(nil," * n + "corec(small,s0)" + ")" * n, "lconst(a)")
    assert (code, err) == (0, "")
    assert out.startswith("PASS\ncertificate: kind=strong pairs=100\n")
    assert run(capsys, "bisim", "--defs", str(defs),
               "append(nil," * n + "corec(big,s0)" + ")" * n, "lconst(a)") == (2, "", KEY_TEXT_ERROR)


def test_bisim_implies_eq(capsys):
    family = [
        "nil",
        "lconst(a)",
        "cons(a,cons(b,nil))",
        "iterates(succ,x1)",
        "append(cons(a,nil),lconst(b))",
        "map(succ,iterates(succ,x0))",
        "corec(two,s0)",
    ]
    for left in family:
        for right in family:
            bis_code = run_command(["bisim", "--defs", DEFS, left, right])
            capsys.readouterr()
            eq_code = run_command(["eq", "--defs", DEFS, "--depth", "50", left, right])
            capsys.readouterr()
            if bis_code == 0:
                assert eq_code == 0


def test_deep_nesting_one_frame_per_level(capsys):
    """Parsing, elaboration and observation take one Python frame per
    nesting level, so 850 levels fit under the default recursion limit
    with the test runner's own frames on the stack."""
    n = 850
    deep_cons = "cons(a," * n + "nil" + ")" * n
    code, out, err = run(capsys, "eval", "--defs", DEFS, "--depth", "3", deep_cons)
    assert (code, out, err) == (0, "[a,a,a,...]\n", "")
    tower = "append(nil," * n + "lconst(a)" + ")" * n
    code, out, err = run(capsys, "bisim", "--defs", DEFS, tower, "lconst(a)")
    assert (code, err) == (0, "")
    assert out.startswith("PASS\ncertificate: kind=strong pairs=1\n  APP(NIL,APP(NIL,")


def test_readme_bisim_session(capsys, monkeypatch):
    """The README's example session is what the CLI prints."""
    session = re.search(r"```\n\$ coinduct (bisim .*)\n((?:.*\n)*?)```", README.read_text())
    monkeypatch.chdir(README.parent)
    code, out, err = run(capsys, *shlex.split(session.group(1)))
    assert (code, out, err) == (0, session.group(2), "")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs RLIMIT_AS")
def test_out_of_memory_is_one_line(tmp_path):
    """`bisim` on coprime rings of 10^4 and 10^4 + 1 seeds under a pair
    budget of 10^8 runs out of the address space CI's `ulimit -v 400000`
    allows, set on the child process alone.  Its stderr is the one line `error: out of memory`:
    no finalizer allocates while the error unwinds, so none reports an
    ignored exception before it."""
    import resource

    def ring(n, p):
        return {"seeds": [f"{p}{i}" for i in range(n)],
                "step": {f"{p}{i}": {"emit": ["a", f"{p}{(i + 1) % n}"]} for i in range(n)}}

    defs = tmp_path / "rings.json"
    defs.write_text(json.dumps({"alphabet": ["a"], "machines": {"p": ring(10**4, "s"), "q": ring(10**4 + 1, "t")}}))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400000 << 10, resource.getrlimit(resource.RLIMIT_AS)[1]))

    done = subprocess.run(
        [sys.executable, "-m", "coinduct", "bisim", "--defs", str(defs), "--max-pairs", "100000000",
         "corec(p,s0)", "corec(q,t0)"],
        capture_output=True, text=True, timeout=60, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(coinduct.__file__).parents[1])})
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")
