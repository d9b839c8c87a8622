"""Expression grammar: parsing, printing, elaboration, and the one-pass
read against parsing then elaborating recursively."""

import pathlib
import random

import pytest

from coinduct import colist
from conftest import reference_read
from coinduct.cli import run_command
from coinduct.colist import observe, state_key, take
from coinduct.dsl import (
    Append,
    Cons,
    Corec,
    Expr,
    Iterates,
    Lconst,
    Map,
    Nil,
    elaborate,
    parse_expr,
    print_expr,
    read_states,
)
from coinduct.errors import (
    CoinductError,
    ParseError,
    UnknownAtom,
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


EXPR_RULES = {
    "nil": (Nil, ()),
    "cons": (Cons, ("symbol", None)),
    "lconst": (Lconst, ("symbol",)),
    "iterates": (Iterates, ("name", "symbol")),
    "map": (Map, ("name", None)),
    "append": (Append, (None, None)),
    "corec": (Corec, ("name", "seed")),
}


def reference_parse(text):
    return reference_read("expression", EXPR_RULES, text)


def reference_elaborate(e, defs):
    """`dsl.elaborate` as it was before it became a loop: one Python frame
    per nesting level, names checked before the arguments are built."""
    if isinstance(e, Nil):
        return colist.nil()
    if isinstance(e, Cons):
        return colist.cons(e.sym, reference_elaborate(e.tail, defs), defs.alphabet)
    if isinstance(e, Lconst):
        return colist.lconst(e.sym, defs.alphabet)
    if isinstance(e, Iterates):
        if e.fn not in defs.functions:
            raise UnknownFunction(f"function {e.fn!r} not defined")
        if e.sym not in defs.alphabet:
            raise UnknownAtom(f"symbol {e.sym!r} not in alphabet")
        return colist.iterates(defs.functions[e.fn], e.sym)
    if isinstance(e, Map):
        if e.fn not in defs.functions:
            raise UnknownFunction(f"function {e.fn!r} not defined")
        return colist.lmap(defs.functions[e.fn], reference_elaborate(e.arg, defs))
    if isinstance(e, Append):
        return colist.lappend(reference_elaborate(e.left, defs), reference_elaborate(e.right, defs))
    if isinstance(e, Corec):
        if e.machine not in defs.machines:
            raise UnknownMachine(f"machine {e.machine!r} not defined")
        return colist.corec(e.seed, defs.machines[e.machine])
    raise TypeError(f"not an expression: {e!r}")


def mutation_corpus():
    """The texts of `test_single_token_mutations_never_crash`: printed
    random expressions with one token replaced."""
    rng = random.Random(103)
    replacements = ["nil", "cons", "map", "x0", "(", ")", ",", "", "zz"]
    for _ in range(200):
        tokens = _tokenize(print_expr(random_expr(rng)))
        for i in range(len(tokens)):
            for rep in rng.sample(replacements, 3):
                yield "".join(tokens[:i] + [rep] + tokens[i + 1 :])


# Two faults in one text: the first in the recursive order wins, and a
# parse error anywhere beats any resolution error.
TWO_FAULTS = [
    "map(zz,cons(qq,nil))",
    "cons(zz,map(qq,nil))",
    "append(map(zz,nil),corec(yy,s0))",
    "append(cons(zz,nil),iterates(qq,a))",
    "iterates(zz,qq)",
    "corec(zz,qq)",
    "corec(two,qq) x",
    "map(zz,nil))",
    "cons(zz,nil",
    "append(lconst(zz),nil,",
    "map(zz,cons(a,nil)]",
]


def outcome(run, text):
    """A state by its key, or an error by class, message and offset."""
    try:
        value = run(text)
    except CoinductError as err:
        return type(err), str(err), getattr(err, "offset", None)
    return state_key(value)


def test_one_pass_read_agrees_with_recursive_parse_and_elaborate(defs):
    rng = random.Random(101)
    corpus = [print_expr(random_expr(rng)) for _ in range(1000)]
    corpus += list(mutation_corpus()) + TWO_FAULTS
    kinds = set()
    for text in corpus:
        expected = outcome(lambda t: reference_elaborate(reference_parse(t), defs), text)
        assert outcome(lambda t: read_states(t, defs), text) == expected, text
        assert outcome(lambda t: elaborate(parse_expr(t), defs), text) == expected, text
        try:
            parsed = reference_parse(text)
        except ParseError as err:
            parsed = err.offset, err.expected
        try:
            assert parse_expr(text) == parsed, text
        except ParseError as err:
            assert (err.offset, err.expected) == parsed, text
        kinds.add(expected if isinstance(expected, str) else expected[0])
    assert {ParseError, UnknownAtom, UnknownFunction, UnknownMachine, UnknownSeed} < kinds
    assert len(kinds) > 100  # many distinct states


def test_deep_expressions_round_trip_at_the_default_recursion_limit(defs):
    """Parsing, printing and elaborating 10^5 levels loop.  Big strings are
    compared outside `assert`, whose report would diff them."""
    k = 33334
    text = "append(nil," * k + "map(h," * k + "cons(a," * k + "nil" + ")" * 3 * k
    e = parse_expr(text)
    same = print_expr(e) == text
    assert same
    l = elaborate(e, defs)
    assert take(6, l) == take(6, read_states(text, defs)) == (["a"] * 6, False)
    # a cons chain is not keyed here: each cell memoizes its own key
    towers = "append(nil," * 20000 + "map(h," * 20000 + "lconst(a)" + ")" * 40000
    key = state_key(elaborate(parse_expr(towers), defs))
    same = key == state_key(read_states(towers, defs))
    same &= key == "APP(NIL," * 20000 + "MAP(h," * 20000 + "CONST(a)" + ")" * 40000
    assert same


def test_expressions_compare_hash_and_show_by_text():
    """`Expr` values compare, hash and print by their `print_expr` text,
    with loops, so 10^5 levels work at the default recursion limit.  Big
    strings are compared outside `assert`, whose report would diff them."""
    assert repr(Cons("a", Nil())) == "Cons(cons(a,nil))"
    assert repr(Nil()) == "Nil(nil)"
    assert Map("h", Nil()) != Map("g", Nil()) and Nil() != "nil"
    assert {Iterates("succ", "x0"): 1}[parse_expr("iterates(succ, x0)")] == 1

    class Stray(Expr):
        pass

    with pytest.raises(TypeError, match="^no expression head for Stray$"):
        repr(Cons("a", Stray()))
    n = 10**5
    text = "cons(a," * n + "nil" + ")" * n
    one, two = parse_expr(text), parse_expr(text)
    other = parse_expr("cons(a," * n + "lconst(a)" + ")" * n)
    same = one == two and hash(one) == hash(two) and one is not two
    same &= one != other and not one == other
    same &= repr(one) == "Cons(" + text + ")"
    assert same
