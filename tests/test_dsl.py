"""Expression grammar: parsing, printing, elaboration."""

import pathlib
import random

import pytest

from coinduct.cli import run_command
from coinduct.colist import observe, take
from coinduct.dsl import (
    Append,
    Cons,
    Corec,
    Iterates,
    Lconst,
    Map,
    Nil,
    elaborate,
    parse_expr,
    print_expr,
)
from coinduct.errors import (
    ParseError,
    UnknownFunction,
    UnknownMachine,
    UnknownSeed,
    UnknownSymbol,
)


def test_parse_examples():
    assert parse_expr("append(cons(a,nil),lconst(b))") == Append(
        Cons("a", Nil()), Lconst("b")
    )
    assert parse_expr("map(f,iterates(f,x0))") == Map("f", Iterates("f", "x0"))
    assert parse_expr("corec(two,s0)") == Corec("two", "s0")
    assert parse_expr("  nil  ") == Nil()


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expr("append(nil,")
    assert exc.value.offset == 11
    assert exc.value.expected == "expression"

    with pytest.raises(ParseError) as exc:
        parse_expr("widget(a)")
    assert exc.value.offset == 0

    with pytest.raises(ParseError) as exc:
        parse_expr("cons(a nil)")
    assert exc.value.offset == 7
    assert exc.value.expected == "','"

    with pytest.raises(ParseError) as exc:
        parse_expr("nil)")
    assert exc.value.offset == 3
    assert exc.value.expected == "end of input"

    with pytest.raises(ParseError) as exc:
        parse_expr("cons(a,nil]")
    assert exc.value.offset == 10

    # a stray character anywhere is reported before any grammar error
    for text, offset, expected in [
        ("widget(]", 7, "expression"),
        ("cons( ,nil)", 6, "symbol"),
        ("map(f,nil", 9, "')'"),
        ("corec(two,)", 10, "seed"),
        ("iterates(,a)", 9, "name"),
        ("lconst a", 7, "'('"),
        ("", 0, "expression"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (exc.value.offset, exc.value.expected) == (offset, expected), text


def random_expr(rng, depth=0):
    choices = ["nil", "cons", "lconst", "iterates", "map", "append", "corec"]
    if depth > 4:
        choices = ["nil", "lconst", "iterates", "corec"]
    kind = rng.choice(choices)
    sym = lambda: rng.choice(["a", "b", "x0", "x1", "x2", "x3", "A_9"])
    name = lambda: rng.choice(["succ", "g", "h", "gh", "two", "fin3", "f_1"])
    if kind == "nil":
        return Nil()
    if kind == "cons":
        return Cons(sym(), random_expr(rng, depth + 1))
    if kind == "lconst":
        return Lconst(sym())
    if kind == "iterates":
        return Iterates(name(), sym())
    if kind == "map":
        return Map(name(), random_expr(rng, depth + 1))
    if kind == "append":
        return Append(random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    return Corec(name(), sym())


def test_print_parse_roundtrip_corpus():
    rng = random.Random(101)
    for _ in range(1000):
        e = random_expr(rng)
        assert parse_expr(print_expr(e)) == e


def test_whitespace_insensitive():
    spaced = " append( cons( a , nil ) , lconst( b ) ) "
    assert parse_expr(spaced) == parse_expr("append(cons(a,nil),lconst(b))")


def test_single_token_mutations_never_crash():
    rng = random.Random(103)
    replacements = ["nil", "cons", "map", "x0", "(", ")", ",", "", "zz"]
    for _ in range(200):
        text = print_expr(random_expr(rng))
        tokens = _tokenize(text)
        for i in range(len(tokens)):
            for rep in rng.sample(replacements, 3):
                mutated = "".join(tokens[:i] + [rep] + tokens[i + 1 :])
                try:
                    parse_expr(mutated)
                except ParseError as err:
                    assert 0 <= err.offset <= len(mutated)


def _tokenize(text):
    out, word = [], ""
    for ch in text:
        if ch in "(),":
            if word:
                out.append(word)
                word = ""
            out.append(ch)
        else:
            word += ch
    if word:
        out.append(word)
    return out


def test_elaborate_examples(defs):
    l = elaborate(parse_expr("lconst(b)"), defs)
    assert take(3, l) == (["b", "b", "b"], False)

    l = elaborate(parse_expr("append(nil,cons(a,lconst(b)))"), defs)
    assert take(3, l) == (["a", "b", "b"], False)

    assert observe(elaborate(parse_expr("map(g,nil)"), defs)) is None

    l = elaborate(parse_expr("corec(fin3,t0)"), defs)
    assert take(9, l) == (["a", "b"], True)


def test_elaborate_resolution_errors(defs):
    with pytest.raises(UnknownSymbol):
        elaborate(parse_expr("lconst(zz)"), defs)
    with pytest.raises(UnknownSymbol):
        elaborate(parse_expr("cons(zz,nil)"), defs)
    with pytest.raises(UnknownFunction):
        elaborate(parse_expr("map(zz,nil)"), defs)
    with pytest.raises(UnknownFunction):
        elaborate(parse_expr("iterates(zz,a)"), defs)
    with pytest.raises(UnknownMachine):
        elaborate(parse_expr("corec(zz,s0)"), defs)
    with pytest.raises(UnknownSeed):
        elaborate(parse_expr("corec(two,zz)"), defs)


DEFS = str(pathlib.Path(__file__).parent / "data" / "defs.json")


@pytest.mark.parametrize("expr, stderr", [
    ("lconst(zz)", "error: symbol 'zz' not in alphabet\n"),
    ("cons(zz,nil)", "error: symbol 'zz' not in alphabet\n"),
    ("iterates(succ,zz)", "error: symbol 'zz' not in alphabet\n"),
    ("map(zz,nil)", "error: function 'zz' not defined\n"),
    ("corec(zz,s0)", "error: machine 'zz' not defined\n"),
    ("corec(two,zz)", "error: two: unknown seed 'zz'\n"),
    # the tail is elaborated before the cons cell checks its symbol
    ("cons(zz,map(qq,nil))", "error: function 'qq' not defined\n"),
])
def test_resolution_error_text(capsys, expr, stderr):
    """Names are resolved by `elaborate`, symbols and seeds by the colist
    constructors; the CLI reports either as one line."""
    assert run_command(["eval", "--defs", DEFS, expr]) == 2
    assert capsys.readouterr() == ("", stderr)
