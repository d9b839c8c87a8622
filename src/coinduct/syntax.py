"""Term syntax shared by the expression language and the tree terms.

A term is a head word, optionally followed by a parenthesised list of
slots, its word slots first and then its TERM slots:

    term  := word | word `(` slots `)`
    slots := word (`,` word)* | (word `,`)* term (`,` term)*

Words are over [A-Za-z0-9_] and whitespace between tokens is ignored.
A grammar maps each head word to its constructor and its slots; a slot
is TERM (a nested term) or the label of a word ("symbol", "name", ...),
and a head with a word slot after a TERM slot is refused (ValueError).
A word slot labelled "numeral" takes digits only, at most
NUMERAL_DIGITS of them, and passes an int.

Reading raises ParseError with the offset at which the expected token
would start and what was expected there: the grammar's term label
where a term is due (and at any character outside the token set), the
slot's label where a word is due, "'('", "','", "')'", or
"end of input".

Terms are read by coarse tokens, from the text with its whitespace
taken out; that changes no token unless whitespace separates two words,
which is a parse error.  Each head has an opening -- the head and its
word slots up to its first TERM slot (`cons(a,`, `map(f,`, `append(`),
or the whole term when it has none (`corec(m,s)`, `leaf(a)`, `nil`) --
and its TERM slots follow, separated by `,` and closed by `)`.  The
openings are one regex, so one match opens a term and reads its words;
a `,` is matched together with the opening after it.  A rule keyed by
a text that is no word is a fixed opening: that text, then one TERM
slot, then `)`.  It is tried before the heads, so `append(nil,` reads
as one opening, not as `append(` and a `nil` term.

A fixed opening, or a head with one TERM slot and at most one word,
whose rule gives a run constructor (`cons`, `map`, `append(nil,`)
reads a run of nested openings of itself with one match; the run's
words are the matched text split at its openings, one `startswith` of
its `)`s closes it, and one call of the run constructor builds it from
the run's words, outermost first, or its number of layers when it has
no word, and the term inside.  Other heads (the tree terms' `in0` and
`in1`) are read one term at a time.  Reading is a loop over an explicit stack
of open terms and runs, so any nesting depth works at the default
recursion limit.  A word slot is resolved when it is read, outer terms
first, also inside a run; a term is built when it closes, inner terms
first.

A text that does not read is read again one token at a time with the
grammar's slots alone (`Grammar._parse_error`).  That loop only names
the error -- the offset and what was expected there -- and builds
nothing, so values are built on one path.

A term can be read with another constructor table of the same syntax
(`Grammar.table`): its constructors then build something else, and a
word slot may resolve its word as it is read.  `Grammar.canonical`
reads a term with no constructors and returns its tokens joined without
whitespace.
"""

from __future__ import annotations

import re
from itertools import repeat
from typing import Optional

from .errors import CoinductError, ParseError

_WORD_CHARS = "A-Za-z0-9_"

WORD = re.compile(f"[{_WORD_CHARS}]+")
_WORD_SET = frozenset(filter(WORD.fullmatch, map(chr, range(128))))

_TOKEN = re.compile(f"[{_WORD_CHARS}]+|[(),]")
_STRAY = re.compile(rf"[^{_WORD_CHARS}(),\s]")
_NOT_TOKEN = re.compile(f"[^{_WORD_CHARS}(),]")
_WORD_GAP = re.compile(rf"[{_WORD_CHARS}]\s+[{_WORD_CHARS}]")


def all_words(strings) -> bool:
    """Whether every item of `strings` is a string and a word."""
    return (all(map(isinstance, strings, repeat(str))) and "" not in strings
            and _WORD_SET.issuperset("".join(strings)))


_NOT_WORD = frozenset(("(", ")", ",", ""))

TERM = None  # the slot of a nested term

# The most digits a numeral may have: the longest decimal text that
# Python's `int` reads and `str` writes under the default limit of
# Python 3.11 on (sys.int_info.default_max_str_digits), so a numeral
# that reads also prints, on every version.
NUMERAL_DIGITS = 4300


def _resolve(label: str):
    """How a word slot labelled `label` passes its word by default."""
    return int if label == "numeral" else None


def _word(label: str, capture: bool = True) -> str:
    """The regex of a word slot labelled `label`, a group if `capture`."""
    word = f"[0-9]{{1,{NUMERAL_DIGITS}}}" if label == "numeral" else f"[{_WORD_CHARS}]+"
    return f"({word})" if capture else word


class Grammar:
    """A head table read in the term syntax.

    `what` names a term in errors; `rules` maps a head, or a fixed
    opening, to its constructor and slots, its word slots (labels)
    before its TERM slots, and may add a run constructor as a third
    item.  A grammar whose constructors are None is only read with
    `canonical` or with a `table` of its own.
    """

    def __init__(self, what: str, rules: dict):
        self.what = what
        self._slots = {head: tuple(rule[1]) for head, rule in rules.items()}
        # head -> its table entry less its constructors: (group of its opening,
        # (group, resolve) of each word slot, number of TERM slots, run)
        self._layout = {}
        openings = []
        group = 1
        # fixed openings first, so the regex tries them before the heads
        # they start with
        fixed_first = sorted(self._slots.items(), key=lambda rule: bool(WORD.fullmatch(rule[0])))
        for head, slots in fixed_first:
            terms = slots.count(TERM)
            labels = slots[:len(slots) - terms]
            if TERM in labels:
                raise ValueError(f"{what} {head!r}: a word slot follows a TERM slot")
            start = head + "("
            if not WORD.fullmatch(head):
                if slots != (TERM,):
                    raise ValueError(f"{what} {head!r}: a fixed opening has one TERM slot alone")
                start, opening = head, re.escape(head)
            elif slots:
                opening = (re.escape(head) + r"\(" + ",".join(map(_word, labels))
                           + (r"\)" if not terms else "," if labels else ""))
            else:
                opening = re.escape(head) + f"(?![{_WORD_CHARS}])"
            words = tuple((group + 1 + j, _resolve(label)) for j, label in enumerate(labels))
            # a run head: its terms close by `)` and need no `,`; a run is
            # (the text each further layer starts with, the regex of them all)
            run = None
            if terms == 1 and len(words) <= 1:
                layer = re.escape(start) + "".join(_word(label, False) + "," for label in labels)
                run = (start, re.compile(f"(?:{layer})+"))
            self._layout[head] = (group, words, terms, run)
            openings.append(opening)
            group += 1 + len(words)
        self._groups = group
        self._opening = re.compile("|".join(f"({opening})" for opening in openings))
        # a `,` and the next term's opening, in the opening regex's groups
        self._then_open = re.compile(f",(?:{self._opening.pattern})")
        self.rules = self.table(rules)
        # the same syntax with no constructors, to check a text
        nothing = lambda *args: None  # noqa: E731
        self._syntax = self.table({
            head: (nothing, tuple(s if s is TERM else (s, None) for s in slots), nothing)
            for head, slots in self._slots.items()})

    def table(self, rules: dict) -> list:
        """`rules` made ready for `read`.

        `rules` has this grammar's heads and slots, each head with its
        own constructor.  A word slot may be given as (label, resolve):
        the constructor then receives resolve(word) in place of the
        word, called as soon as the word is read.  A run head may add a
        run constructor; it is called once per run with the run's words,
        outermost first, or its number of layers when it has no word,
        and the term inside the run; without one, it is read one term
        at a time.

        The table is indexed by the group of a head's opening in the
        opening regex; its entry is (make, words, TERM slots, run), as
        in `_layout`, with the resolves `rules` gives.  A run is
        (the text each further layer starts with, the regex of a run of
        them, its run constructor).
        """
        entries = [None] * self._groups
        layout = self._layout
        for head, rule in rules.items():
            group, words, terms, run = layout[head]
            make, slots = rule[0], rule[1]
            if words and tuple in map(type, slots):  # some word is resolved as it is read
                words = tuple([(g, slot[1] if isinstance(slot, tuple) else r)
                               for (g, r), slot in zip(words, slots)])
            run = (*run, rule[2]) if run is not None and len(rule) > 2 else None
            entries[group] = (make, words, terms, run)
        return entries

    def read(self, text: str, table: Optional[list] = None):
        """The term `text` spells, built with this grammar's constructors
        or with `table`'s.

        One pass over coarse tokens: a word slot is resolved when it is
        read, outer terms first, and a term is built when its `)` is
        read, inner terms first.  A resolution or constructor error (any
        CoinductError) is raised only once the whole text is known to
        parse, so a parse error anywhere in the text comes first.
        """
        canon = text if _NOT_TOKEN.search(text) is None else self._unspaced(text)
        try:
            return self._build(text, canon, self.rules if table is None else table)
        except ParseError:
            raise
        except CoinductError:
            self._build(text, canon, self._syntax)  # raises the text's parse error, if any
            raise

    def canonical(self, text: str) -> str:
        """The tokens of `text` joined without whitespace, once `text`
        reads as a term; else the ParseError `read` raises."""
        canon = text if _NOT_TOKEN.search(text) is None else self._unspaced(text)
        self._build(text, canon, self._syntax)
        return canon

    def _unspaced(self, text: str) -> Optional[str]:
        """`text` without its whitespace, or None where whitespace
        separates two words; a character outside the token set is a
        ParseError at once."""
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(stray.start(), self.what)
        if _WORD_GAP.search(text):
            return None
        return "".join(text.split())

    def _build(self, text: str, canon: Optional[str], table: list):
        """The term that `canon`, `text` unspaced, spells, built with
        `table`; a text that does not read raises its ParseError."""
        if canon is None:
            raise self._parse_error(text)
        opening, then_open = self._opening.match, self._then_open.match
        # open terms: (make, args, TERM slots after the one being read),
        # or a run's (run constructor, its words or layers, its `)`s)
        stack = []
        m = opening(canon)
        while True:  # m opens a term, if the text reads
            if m is None:
                raise self._parse_error(text)
            make, words, terms, run = table[m.lastindex]
            pos = m.end()
            args = []
            for g, resolve in words:
                args.append(m[g] if resolve is None else resolve(m[g]))
            if run is not None:
                start, more, build = run
                r = more.match(canon, pos) if canon.startswith(start, pos) else None
                end = pos if r is None else r.end()
                if words:
                    if r is not None:  # `start` and a word, then `,`, per further layer
                        found = canon[pos + len(start):end - 1].split("," + start)
                        resolve = words[0][1]
                        args += found if resolve is None else map(resolve, found)
                    layers = len(args)
                else:
                    args = layers = 1 + (end - pos) // len(start)
                stack.append((build, args, ")" * layers))
                pos = end
                m = opening(canon, pos)
                continue
            if terms:
                stack.append((make, args, terms - 1))
                m = opening(canon, pos)
                continue
            value = make(*args)
            while stack:  # close what the value completes
                make, args, left = stack.pop()
                if left.__class__ is str:  # a run, closed by its `)`s
                    if not canon.startswith(left, pos):
                        raise self._parse_error(text)
                    pos += len(left)
                    value = make(args, value)
                    continue
                args.append(value)
                if left:
                    stack.append((make, args, left - 1))
                    m = then_open(canon, pos)
                    break
                if not canon.startswith(")", pos):
                    raise self._parse_error(text)
                pos += 1
                value = make(*args)
            else:
                if pos != len(canon):
                    raise self._parse_error(text)
                return value

    def _parse_error(self, text: str) -> ParseError:
        """The ParseError of a text that does not read: the first token
        the grammar's slots refuse, read one token at a time."""
        toks = _TOKEN.findall(text)
        toks.append("")  # end of input
        stack = []  # open terms above the current one: (slots, next slot)
        i = 0
        while True:  # a term is due at token i
            slots = self._slots.get(toks[i])
            if slots is None:
                return _error(text, i, self.what)
            i += 1
            k = 0
            while True:  # read the open term's slots; close it when they are read
                if k < len(slots):
                    sep = "," if k else "("
                    if toks[i] != sep:
                        return _error(text, i, f"'{sep}'")
                    i += 1
                    slot = slots[k]
                    k += 1
                    if slot is TERM:
                        stack.append((slots, k))
                        break
                    tok = toks[i]
                    if tok in _NOT_WORD or (slot == "numeral" and not tok.isdigit()):
                        return _error(text, i, slot)
                    if slot == "numeral" and len(tok) > NUMERAL_DIGITS:
                        return _error(text, i, f"numeral of at most {NUMERAL_DIGITS} digits")
                    i += 1
                    continue
                if slots:
                    if toks[i] != ")":
                        return _error(text, i, "')'")
                    i += 1
                if not stack:
                    if toks[i]:
                        return _error(text, i, "end of input")
                    raise AssertionError(f"{self.what} {text!r} reads one token at a time only")
                slots, k = stack.pop()


def _error(text: str, i: int, expected: str) -> ParseError:
    """The error for token i of `text`, where `expected` was due."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    return ParseError(starts[i], expected)
