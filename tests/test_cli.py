"""Command-line surface: golden reports, exit codes, file workflows."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import coinduct
from coinduct.cli import KEY_TEXT_BOUND, _build_parser, run_command

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


def run_fresh(*argv):
    """One command in a new interpreter: (exit code, stdout, stderr)."""
    src = str(pathlib.Path(coinduct.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "from coinduct.cli import main; main()", *argv],
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
    and searched like shallow ones.  `bisim` keys the whole root, and a
    cons chain keeps one key per cell, O(n^2) text, so past the key text
    bound it refuses the query (ROADMAP item 6)."""
    make, shallow, prefix = DEEP[kind]
    deep = make(n)
    for argv in (["eval", "--depth", "7"], ["trunc", "--depth", "9"]):
        assert run(capsys, *argv, "--defs", DEFS, deep) == run(capsys, *argv, "--defs", DEFS, shallow)
    code, out, err = run(capsys, "bisim", "--defs", DEFS, deep, prefix)
    if kind == "cons" and n > 3000:
        assert (code, out) == (2, "") and err.startswith("error: too many cons cells to key: ")
    else:
        assert (code, out, err) == (1, "FAIL nil/cons mismatch @ 2\n", "")


def test_key_text_bound_at_the_argument_size_limit(capsys, tmp_path):
    """A cons chain as long as one command-line argument can be (128 KiB)
    would memoize about 10^9 characters of keys: `bisim` and `cert`
    refuse it at once, while a 3000-cell chain stays under the bound."""
    n = 16000
    deep = "cons(a," * n + "nil" + ")" * n
    assert len(deep) < 128 * 1024
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"kind": "strong", "root": ["NIL", "NIL"], "pairs": [["NIL", "NIL"]]}))
    bound = f"bound {n * len(deep)} > {KEY_TEXT_BOUND} characters"
    for argv in (["bisim", "--defs", DEFS], ["cert", "verify", "--defs", DEFS, "--cert", str(cert)]):
        assert run(capsys, *argv, deep, "nil") == (
            2, "", f"error: too many cons cells to key: {bound}\n")
    assert 3000 * len(DEEP["cons"][0](3000)) < KEY_TEXT_BOUND


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
