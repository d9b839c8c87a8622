"""The shared term reader: tree terms against the former hand-written parser
and the former recursive reader; no reader recurses."""

import ast
import pathlib
import random
import re

import pytest

import coinduct
from conftest import reference_read
from coinduct.errors import ParseError
from coinduct.trees import (
    NIL_TREE,
    cons_tree,
    in0,
    in1,
    leaf,
    numb,
    parse_tree_term,
    scons,
)


def reference_parse_tree_term(text):
    """The tree-term parser as it was before it moved onto `syntax.Grammar`."""
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch):
        nonlocal pos
        skip_ws()
        if pos >= len(text) or text[pos] != ch:
            raise ParseError(pos, f"'{ch}'")
        pos += 1

    def word():
        nonlocal pos
        skip_ws()
        m = re.match(r"[A-Za-z0-9_]+", text[pos:])
        if not m:
            raise ParseError(pos, "name")
        pos += m.end()
        return m.group(0)

    def term():
        start = pos
        w = word()
        if w == "nil":
            return NIL_TREE
        if w == "leaf":
            expect("(")
            sym = word()
            expect(")")
            return leaf(sym)
        if w == "numb":
            expect("(")
            k = word()
            expect(")")
            if not k.isdigit():
                raise ParseError(start, "numeral")
            return numb(int(k))
        if w in ("scons", "cons"):
            expect("(")
            a = term()
            expect(",")
            b = term()
            expect(")")
            return scons(a, b) if w == "scons" else cons_tree(a, b)
        if w in ("in0", "in1"):
            expect("(")
            a = term()
            expect(")")
            return in0(a) if w == "in0" else in1(a)
        raise ParseError(start, "tree term")

    t = term()
    skip_ws()
    if pos != len(text):
        raise ParseError(pos, "end of input")
    return t


def random_tree_term(rng, depth=0):
    heads = ["nil", "leaf", "numb", "scons", "in0", "in1", "cons"]
    head = rng.choice(heads[:3] if depth > 3 else heads)
    if head == "nil":
        return "nil"
    if head == "leaf":
        return f"leaf({rng.choice(['a', 'b', 'x0', 'nil', '7'])})"
    if head == "numb":
        return f"numb({rng.choice(['0', '1', '12', '007'])})"
    if head in ("in0", "in1"):
        return f"{head}({random_tree_term(rng, depth + 1)})"
    return f"{head}({random_tree_term(rng, depth + 1)},{random_tree_term(rng, depth + 1)})"


def tree_term_corpus(seed, count):
    """Well-formed terms, respaced, then with one token replaced or cut short."""
    rng = random.Random(seed)
    replacements = ["nil", "leaf", "numb", "cons", "x", "3", "(", ")", ",", "", "!", "-1", " "]
    for _ in range(count):
        tokens = re.findall(r"[A-Za-z0-9_]+|[(),]", random_tree_term(rng))
        yield "".join(tokens)
        yield " ".join(tokens) + "\t"
        i = rng.randrange(len(tokens))
        yield "".join(tokens[:i])
        for rep in rng.sample(replacements, 4):
            yield " ".join(tokens[:i] + [rep] + tokens[i + 1:])


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        assert 0 <= err.offset <= len(text)
        return ParseError


def test_tree_terms_agree_with_reference_parser():
    checked = accepted = 0
    for text in tree_term_corpus(seed=211, count=400):
        expected = outcome(reference_parse_tree_term, text)
        assert outcome(parse_tree_term, text) == expected, text
        checked += 1
        accepted += expected is not ParseError
    assert accepted > 400 and checked - accepted > 1000


TREE_RULES = {
    "nil": (lambda: NIL_TREE, ()),
    "leaf": (leaf, ("symbol",)),
    "numb": (numb, ("numeral",)),
    "scons": (scons, (None, None)),
    "in0": (in0, (None,)),
    "in1": (in1, (None,)),
    "cons": (cons_tree, (None, None)),
}


def test_tree_terms_agree_with_recursive_reader():
    """Values, and errors with their offsets, as the recursive reader gives them."""

    def result(parse, text):
        try:
            return parse(text)
        except ParseError as err:
            return err.offset, err.expected

    for text in tree_term_corpus(seed=223, count=300):
        expected = result(lambda t: reference_read("tree term", TREE_RULES, t), text)
        assert result(parse_tree_term, text) == expected, text


def test_no_function_calls_itself():
    """No function in the package calls itself, so no input depth can
    exhaust the stack."""
    for path in pathlib.Path(coinduct.__file__).parent.glob("*.py"):
        module = path.stem
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    itself = callee.value.id in ("self", "cls") and callee.attr == fn.name
                else:
                    itself = isinstance(callee, ast.Name) and callee.id == fn.name
                assert not itself, f"{module}.{fn.name} calls itself"


def test_deep_tree_terms():
    n = 10**4
    tree = NIL_TREE
    for _ in range(n):
        tree = in1(tree)
    assert parse_tree_term("in1(" * n + "nil" + ")" * n) == tree


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        ("numb(x)", 5, "numeral"),
        ("numb( 1x )", 6, "numeral"),
        ("numb()", 5, "numeral"),
        ("leaf(,)", 5, "symbol"),
        ("cons(leaf(a)", 12, "','"),
        ("in0 numb(0)", 4, "'('"),
        ("scons(numb(0),numb(1)", 21, "')'"),
        ("nil extra", 4, "end of input"),
        ("  widget(a)", 2, "tree term"),
        ("cons(leaf(a),nil!)", 16, "tree term"),
        # a character offset: the no-break space is whitespace, one character, two UTF-8 bytes
        ("\u00a0widget", 1, "tree term"),
    ],
)
def test_tree_term_errors(text, offset, expected):
    with pytest.raises(ParseError) as exc:
        parse_tree_term(text)
    assert (exc.value.offset, exc.value.expected) == (offset, expected)


def test_numerals_read_as_naturals():
    assert parse_tree_term("numb(007)") == numb(7)
    assert parse_tree_term("leaf(007)") == leaf("007")
