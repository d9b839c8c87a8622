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
from coinduct.syntax import Grammar
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
    """Two runs of `in1` and `in0`, 10^5 terms deep in all: their rules
    give no run constructor, so they are read one term at a time on the
    explicit stack of open terms."""
    h = 5 * 10**4
    tree = numb(3)
    for _ in range(h):
        tree = in0(tree)
    for _ in range(h):
        tree = in1(tree)
    text = "in1(" * h + "in0(" * h + "numb(3)" + ")" * (2 * h)
    assert parse_tree_term(text) == tree
    with pytest.raises(ParseError) as exc:
        parse_tree_term(text[:-1])
    assert (exc.value.offset, exc.value.expected) == (len(text) - 1, "')'")


@pytest.mark.parametrize(
    "text, offset, expected",
    [
        ("numb(x)", 5, "numeral"),
        ("numb( 1x )", 6, "numeral"),
        ("numb(1a)", 5, "numeral"),
        ("in0(in0(numb(1a)))", 13, "numeral"),
        ("in1( in1( numb( a ) ) )", 16, "numeral"),
        ("cons(numb(2),numb(x2))", 18, "numeral"),
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


# `f` and `g` have a word slot after a TERM slot, which a grammar refuses.
MIXED_RULES = {
    "f": (lambda a, w, b, n: ("f", a, w, b, n), (None, "word", None, "numeral")),
    "g": (lambda w, a, v, n: ("g", w, a, v, n), ("word", None, "word", "numeral")),
    "h": (lambda a: ("h", a), (None,)),
    "k": (lambda: ("k",), ()),
    "p": (lambda n, a: ("p", n, a), ("numeral", None)),
}

# the heads of MIXED_RULES that a grammar reads, and one with two TERM slots
ONE_SHAPE_RULES = {
    "h": MIXED_RULES["h"],
    "k": MIXED_RULES["k"],
    "p": MIXED_RULES["p"],
    "q": (lambda w, a, b: ("q", w, a, b), ("word", None, None)),
}


def test_word_after_term_slot_is_refused():
    for head in "fg":
        with pytest.raises(ValueError, match=f"'{head}': a word slot follows a TERM slot"):
            Grammar("mixed", {head: MIXED_RULES[head]})
    with pytest.raises(ValueError):
        Grammar("mixed", MIXED_RULES)


def random_one_shape_term(rng, depth=0):
    head = rng.choice("kkp" if depth > 3 else "hkpq")
    term = lambda: random_one_shape_term(rng, depth + 1)
    if head == "h":
        return f"h({term()})"
    if head == "p":
        return f"p({rng.choice(['0', '7', '012'])},{term() if depth < 4 else 'k'})"
    if head == "q":
        return f"q({rng.choice(['a', 'b', 'x_1'])},{term()},{term()})"
    return "k"


def test_terms_of_one_shape_agree_with_recursive_reader():
    grammar = Grammar("mixed", ONE_SHAPE_RULES)
    rng = random.Random(229)
    replacements = ["h", "k", "p", "q", "a", "7", "(", ")", ",", "", "!"]

    def result(read, text):
        try:
            return read(text)
        except ParseError as err:
            return err.offset, err.expected

    checked = 0
    for _ in range(400):
        tokens = re.findall(r"[A-Za-z0-9_]+|[(),]", random_one_shape_term(rng))
        texts = ["".join(tokens), " ".join(tokens)]
        for _ in range(3):
            i = rng.randrange(len(tokens))
            texts.append("".join(tokens[:i] + [rng.choice(replacements)] + tokens[i + 1:]))
        for text in texts:
            expected = result(lambda t: reference_read("mixed", ONE_SHAPE_RULES, t), text)
            assert result(grammar.read, text) == expected, text
            checked += not isinstance(expected[0], int)
    assert checked > 800

    # a word is resolved when it is read, in the order of the text
    log = []

    def resolving(label):
        return label, lambda w: log.append(w) or w.upper()

    table = grammar.table({
        "h": ONE_SHAPE_RULES["h"],
        "k": ONE_SHAPE_RULES["k"],
        "p": (ONE_SHAPE_RULES["p"][0], (resolving("numeral"), None)),
        "q": (ONE_SHAPE_RULES["q"][0], (resolving("word"), None, None)),
    })
    text = "q(a,p(7,q(b,k,h(p(0,k)))),q(x_1,p(012,p(3,k)),k))"
    assert grammar.read(text, table) == (
        "q", "A", ("p", "7", ("q", "B", ("k",), ("h", ("p", "0", ("k",))))),
        ("q", "X_1", ("p", "012", ("p", "3", ("k",))), ("k",)))
    assert log == ["a", "7", "b", "0", "x_1", "012", "3"]
