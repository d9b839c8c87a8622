"""Expression grammar: canonical text, elaboration, and the one-pass
read against parsing then elaborating recursively."""

import pathlib
import random
import re
from functools import partial

import pytest

from coinduct import colist
from conftest import reference_read
from coinduct.cli import run_command
from coinduct.colist import observe, state_key, take
from coinduct.dsl import elaborate, parse_expr, read_states
from coinduct.errors import (
    CoinductError,
    ParseError,
    UnknownAtom,
    UnknownFunction,
    UnknownMachine,
    UnknownSeed,
    UnknownSymbol,
)


TOKEN = re.compile("[A-Za-z0-9_]+|[(),]")


def test_parse_examples():
    """An expression is its canonical text: its tokens, unspaced."""
    assert parse_expr("append(cons(a,nil),lconst(b))") == "append(cons(a,nil),lconst(b))"
    assert parse_expr(" map( f ,\titerates(f,x0) )\n") == "map(f,iterates(f,x0))"
    assert parse_expr("corec(two,s0)") == "corec(two,s0)"
    assert parse_expr("  nil  ") == "nil"


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
        # offsets index characters, not UTF-8 bytes: a no-break space is
        # whitespace and one character, so `widget` starts at offset 1
        ("\u00a0widget", 1, "expression"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_expr(text)
        assert (exc.value.offset, exc.value.expected) == (offset, expected), text


def random_expr(rng, depth=0):
    """The canonical text of a random expression."""
    choices = ["nil", "cons", "lconst", "iterates", "map", "append", "corec"]
    if depth > 4:
        choices = ["nil", "lconst", "iterates", "corec"]
    kind = rng.choice(choices)
    sym = lambda: rng.choice(["a", "b", "x0", "x1", "x2", "x3", "A_9"])
    name = lambda: rng.choice(["succ", "g", "h", "gh", "two", "fin3", "f_1"])
    if kind == "nil":
        return "nil"
    if kind == "cons":
        return f"cons({sym()},{random_expr(rng, depth + 1)})"
    if kind == "lconst":
        return f"lconst({sym()})"
    if kind == "iterates":
        return f"iterates({name()},{sym()})"
    if kind == "map":
        return f"map({name()},{random_expr(rng, depth + 1)})"
    if kind == "append":
        return f"append({random_expr(rng, depth + 1)},{random_expr(rng, depth + 1)})"
    return f"corec({name()},{sym()})"


def test_print_parse_roundtrip_corpus():
    """A canonical text with whitespace put between its tokens reads
    back as itself."""
    rng = random.Random(101)
    spaces = ["", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
    for _ in range(1000):
        text = random_expr(rng)
        spaced = "".join(rng.choice(spaces) + tok for tok in TOKEN.findall(text)) + rng.choice(spaces)
        assert parse_expr(spaced) == text


def test_whitespace_insensitive():
    spaced = " append( cons( a , nil ) , lconst( b ) ) "
    assert parse_expr(spaced) == parse_expr("append(cons(a,nil),lconst(b))")


def test_single_token_mutations_never_crash():
    rng = random.Random(103)
    replacements = ["nil", "cons", "map", "x0", "(", ")", ",", "", "zz"]
    for _ in range(200):
        text = random_expr(rng)
        tokens = TOKEN.findall(text)
        for i in range(len(tokens)):
            for rep in rng.sample(replacements, 3):
                mutated = "".join(tokens[:i] + [rep] + tokens[i + 1 :])
                try:
                    parse_expr(mutated)
                except ParseError as err:
                    assert 0 <= err.offset <= len(mutated)


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


EXPR_SLOTS = {
    "nil": (),
    "cons": ("symbol", None),
    "lconst": ("symbol",),
    "iterates": ("name", "symbol"),
    "map": ("name", None),
    "append": (None, None),
    "corec": ("name", "seed"),
}


def reference_parse(text):
    """The expression `text` spells as nested tuples, `(head, *slots)`,
    such as `("cons", "a", ("nil",))`."""
    rules = {head: (partial(lambda *args: args, head), slots)
             for head, slots in EXPR_SLOTS.items()}
    return reference_read("expression", rules, text)


def reference_elaborate(e, defs):
    """`dsl.elaborate` as it was before it became a loop: one Python frame
    per nesting level, names checked before the arguments are built."""
    match e:
        case ("nil",):
            return colist.nil()
        case ("cons", sym, tail):
            return colist.cons(sym, reference_elaborate(tail, defs), defs.alphabet)
        case ("lconst", sym):
            return colist.lconst(sym, defs.alphabet)
        case ("iterates", fn, sym):
            if fn not in defs.functions:
                raise UnknownFunction(f"function {fn!r} not defined")
            if sym not in defs.alphabet:
                raise UnknownAtom(f"symbol {sym!r} not in alphabet")
            return colist.iterates(defs.functions[fn], sym)
        case ("map", fn, arg):
            if fn not in defs.functions:
                raise UnknownFunction(f"function {fn!r} not defined")
            return colist.lmap(defs.functions[fn], reference_elaborate(arg, defs))
        case ("append", left, right):
            return colist.lappend(reference_elaborate(left, defs), reference_elaborate(right, defs))
        case ("corec", machine, seed):
            if machine not in defs.machines:
                raise UnknownMachine(f"machine {machine!r} not defined")
            return colist.corec(seed, defs.machines[machine])
    raise TypeError(f"not an expression: {e!r}")


def mutation_corpus():
    """The texts of `test_single_token_mutations_never_crash`: random
    canonical texts with one token replaced."""
    rng = random.Random(103)
    replacements = ["nil", "cons", "map", "x0", "(", ")", ",", "", "zz"]
    for _ in range(200):
        tokens = TOKEN.findall(random_expr(rng))
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
    corpus = [random_expr(rng) for _ in range(1000)]
    corpus += list(mutation_corpus()) + TWO_FAULTS
    kinds = set()
    for text in corpus:
        expected = outcome(lambda t: reference_elaborate(reference_parse(t), defs), text)
        assert outcome(lambda t: read_states(t, defs), text) == expected, text
        assert outcome(lambda t: elaborate(parse_expr(t), defs), text) == expected, text
        try:
            reference_parse(text)
            parsed = "".join(TOKEN.findall(text))
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
    """Parsing and elaborating 10^5 levels loop.  Big strings are
    compared outside `assert`, whose report would diff them."""
    k = 33334
    text = "append(nil," * k + "map(h," * k + "cons(a," * k + "nil" + ")" * 3 * k
    spaced = "append( nil , " * k + "map( h , " * k + "cons( a , " * k + "nil" + " )" * 3 * k
    e = parse_expr(spaced)
    same = e == text
    assert same
    l = elaborate(e, defs)
    assert take(6, l) == take(6, read_states(text, defs)) == (["a"] * 6, False)
    # towers alone are keyed here; `test_a_run_reads_into_one_state` keys a cons run
    towers = "append(nil," * 20000 + "map(h," * 20000 + "lconst(a)" + ")" * 40000
    key = state_key(elaborate(parse_expr(towers), defs))
    same = key == state_key(read_states(towers, defs))
    same &= key == "APP(NIL," * 20000 + "MAP(h," * 20000 + "CONST(a)" + ")" * 40000
    assert same


SPACES = ["", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]


def respaced(rng, text):
    """`text` with random whitespace before each token and at the end
    (stray characters kept), and now and then one word split in two by
    a space: a word-space-word fault."""
    pieces = re.findall(r"[A-Za-z0-9_]+|\S", text)
    if rng.random() < 0.2:
        long = [i for i, p in enumerate(pieces) if len(p) > 1 and TOKEN.fullmatch(p)]
        if long:
            i = rng.choice(long)
            cut = rng.randrange(1, len(pieces[i]))
            pieces[i] = pieces[i][:cut] + rng.choice(SPACES[2:]) + pieces[i][cut:]
    return "".join(rng.choice(SPACES) + p for p in pieces) + rng.choice(SPACES)


def test_spaced_read_agrees_with_recursive_parse_and_elaborate(defs):
    """The random, mutation and two-fault corpora with whitespace between
    their tokens: the same states, or the same error and offset, as
    the recursive reader gives."""
    rng = random.Random(107)
    corpus = [random_expr(rng) for _ in range(1000)]
    corpus += list(mutation_corpus()) + TWO_FAULTS
    kinds = set()
    for text in corpus:
        spaced = respaced(rng, text)
        expected = outcome(lambda t: reference_elaborate(reference_parse(t), defs), spaced)
        assert outcome(lambda t: read_states(t, defs), spaced) == expected, spaced
        kinds.add(expected if isinstance(expected, str) else expected[:2])
    assert len(kinds) > 200


@pytest.mark.parametrize("text, offset, expected", [
    ("cons(a b,nil)", 7, "','"),
    ("cons( a b , nil )", 8, "','"),
    ("map(suc c,nil)", 8, "','"),
    ("corec(two,s 0)", 12, "')'"),
    ("iterates(succ,x 0)", 16, "')'"),
    ("cons(a,cons(b,cons(c d,nil)))", 21, "','"),
    ("ni l", 0, "expression"),
    ("nil nil", 4, "end of input"),
])
def test_word_space_word_faults(defs, text, offset, expected):
    """Whitespace between two words never joins them: the reader names
    the second word's offset, as the recursive reader does."""
    assert outcome(reference_parse, text) == (ParseError, str(ParseError(offset, expected)), offset)
    for read in (parse_expr, lambda t: read_states(t, defs)):
        with pytest.raises(ParseError) as exc:
            read(text)
        assert (exc.value.offset, exc.value.expected) == (offset, expected), text


@pytest.mark.parametrize("text, message", [
    # a word slot resolves as it is read, outer terms first, also inside a run
    ("map(zz,map(qq,nil))", "function 'zz' not defined"),
    ("map(succ,map(zz,map(qq,nil)))", "function 'zz' not defined"),
    ("map(zz,cons(qq,nil))", "function 'zz' not defined"),
    # a cons cell checks its symbol when it closes, inner cells first
    ("cons(zz,cons(qq,nil))", "symbol 'qq' not in alphabet"),
    ("cons(a,cons(zz,cons(qq,lconst(yy))))", "symbol 'yy' not in alphabet"),
    ("cons(zz,map(succ,cons(qq,nil)))", "symbol 'qq' not in alphabet"),
    # two symbols outside the alphabet in one run, above an unknown
    # function: the function, read first, is reported first; with the
    # tail built, the run's innermost bad symbol is
    ("cons(zz,cons(a,cons(yy,map(qq,nil))))", "function 'qq' not defined"),
    ("cons(zz,cons(a,cons(yy,map(succ,nil))))", "symbol 'yy' not in alphabet"),
    ("cons(zz,cons(yy,append(nil,append(nil,lconst(a)))))", "symbol 'yy' not in alphabet"),
])
def test_resolution_order_inside_runs(defs, text, message):
    expected = outcome(lambda t: reference_elaborate(reference_parse(t), defs), text)
    assert expected[1] == message
    assert outcome(lambda t: read_states(t, defs), text) == expected


@pytest.mark.parametrize("layer, kind", [("cons(a,", "ConsList"), ("map(succ,", "MapList"),
                                         ("append(nil,", "AppendList")])
def test_a_run_reads_into_one_state(defs, monkeypatch, layer, kind):
    """A text of 10^4 nested `cons`, `map` or `append(nil, .)` layers
    builds one state for the run, counted as each state's `__init__` is
    called, and reads, keys and observes as the nested layers do."""
    built = []
    for cls in (colist.ConsList, colist.MapList, colist.AppendList):
        def counted(self, *args, init=cls.__init__):
            built.append(type(self).__name__)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    k = 10**4
    text = layer * k + "iterates(succ,x0)" + ")" * k
    l = read_states(text, defs)
    assert built == [kind]
    head = {"cons(a,": "CONS(a,", "map(succ,": "MAP(succ,", "append(nil,": "APP(NIL,"}[layer]
    same = state_key(l) == head * k + "ITER(succ,x0)" + ")" * k
    assert same
    first = ["a"] * 4 if kind == "ConsList" else ["x0", "x1", "x2", "x3"]
    assert take(4, l) == (first, False)
