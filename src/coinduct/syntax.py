"""Term syntax shared by the expression language and the tree terms.

A term is a word, optionally followed by a parenthesised list of slots:

    term := word | word `(` slot (`,` slot)* `)`

Words are over [A-Za-z0-9_] and whitespace between tokens is ignored.
A grammar maps each head word to its constructor and its slots; a slot
is TERM (a nested term) or the label of a word ("symbol", "name", ...).
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
and one continuation after each TERM slot: `,` or `)` and any word
slots between.  The openings are one regex, so one match opens a term and
reads its leading words; a `,` continuation is matched together with
the opening after it.  A head whose only TERM slot is its last (`cons`,
`map`, `in0`) reads a run of nested openings of itself with one match,
splits the run's words with one `findall`, and closes the run with one
`startswith` of its `)`s.  Reading is a loop over an explicit stack of
open terms and runs, so any nesting depth works at the default
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
from typing import Optional

from .errors import CoinductError, ParseError

_WORD_CHARS = "A-Za-z0-9_"

WORD = re.compile(f"[{_WORD_CHARS}]+")

_TOKEN = re.compile(f"[{_WORD_CHARS}]+|[(),]")
_STRAY = re.compile(rf"[^{_WORD_CHARS}(),\s]")
_NOT_TOKEN = re.compile(f"[^{_WORD_CHARS}(),]")
_WORD_GAP = re.compile(rf"[{_WORD_CHARS}]\s+[{_WORD_CHARS}]")

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


def _slot_resolve(slot):
    """How a word slot, a label or (label, resolve), passes its word."""
    return slot[1] if isinstance(slot, tuple) else _resolve(slot)


def _resolved(cont: tuple, resolves) -> tuple:
    """A chain of continuations with the resolves of its words taken,
    in order, from the iterator `resolves`."""
    pieces = []
    while cont is not None:
        piece, r, cont = cont
        pieces.append((piece, r and tuple(next(resolves) for _ in r)))
    for piece, r in reversed(pieces):
        cont = (piece, r, cont)
    return cont


def _pattern(piece: list) -> str:
    """The regex of a piece of a term's text, one group per word slot."""
    return "".join(
        re.escape(tok) if isinstance(tok, str)
        else f"([0-9]{{1,{NUMERAL_DIGITS}}})" if tok[0] == "numeral" else f"([{_WORD_CHARS}]+)"
        for tok in piece)


class Grammar:
    """A head table read in the term syntax.

    `what` names a term in errors; `rules` maps a head to its
    constructor and slots.  A grammar whose constructors are None is
    only read with `canonical` or with a `table` of its own.
    """

    def __init__(self, what: str, rules: dict):
        self.what = what
        self._slots = {head: tuple(s if s is TERM or isinstance(s, str) else s[0] for s in slots)
                       for head, (_, slots) in rules.items()}
        # Each head's text cut at its TERM slots: the opening, then one
        # continuation after each TERM.  A word slot is a 1-tuple of its label.
        cuts = {}
        for head, slots in self._slots.items():
            pieces = [[head]]
            for k, slot in enumerate(slots):
                pieces[-1].append("," if k else "(")
                if slot is TERM:
                    pieces.append([])
                else:
                    pieces[-1].append((slot,))
            if slots:
                pieces[-1].append(")")
            cuts[head] = pieces
        openings = [_pattern(pieces[0]) + ("" if len(pieces[0]) > 1 else f"(?![{_WORD_CHARS}])")
                    for pieces in cuts.values()]
        self._opening = re.compile("|".join(f"({opening})" for opening in openings))
        then_open = "(?:" + self._opening.pattern + ")"
        # head -> its table entry, less its constructor: (group of its
        # opening, (group, resolve) of each word of the opening, first
        # continuation, run).  A continuation is (piece, resolves, next
        # continuation).  A piece with words is a regex, with one resolve
        # per word; a piece without is its text when it closes the term,
        # and else a regex that matches it and the next term's opening.
        self._layout = {}
        group = 1
        for (head, pieces), opening in zip(cuts.items(), openings):
            labels = [tok[0] for tok in pieces[0] if isinstance(tok, tuple)]
            words = tuple((group + 1 + j, _resolve(label)) for j, label in enumerate(labels))
            cont = run = None
            if len(pieces) == 2 and self._slots[head][-1] is TERM and len(words) <= 1:
                # a run head: its terms close by `)` and need no continuation
                run = (head + "(", re.compile(f"(?:{opening})+"), re.compile(opening))
            else:
                for piece in reversed(pieces[1:]):
                    labels = [tok[0] for tok in piece if isinstance(tok, tuple)]
                    if labels:
                        cont = (re.compile(_pattern(piece)), tuple(map(_resolve, labels)), cont)
                    elif cont is None:
                        cont = ("".join(piece), None, None)
                    else:
                        cont = (re.compile(_pattern(piece) + then_open), None, cont)
            self._layout[head] = (group, words, cont, run)
            group += 1 + len(words)
        self._groups = group
        self.rules = self.table(rules)
        # the same syntax with no constructors, to check a text
        self._syntax = self.table({
            head: (lambda *args: None, tuple(s if s is TERM else (s, None) for s in slots))
            for head, slots in self._slots.items()})

    def table(self, rules: dict) -> list:
        """`rules` made ready for `read`.

        `rules` has this grammar's heads and slots, each head with its
        own constructor.  A word slot may be given as (label, resolve):
        the constructor then receives resolve(word) in place of the
        word, called as soon as the word is read.

        The table is indexed by the group of a head's opening in the
        opening regex; its entry is (make, words, continuation, run), as
        in `_layout`, with the resolves `rules` gives.  A run is
        (`head(`, the regex of a run of openings, the regex of one).
        """
        entries = [None] * self._groups
        for head, (make, slots) in rules.items():
            group, words, cont, run = self._layout[head]
            if tuple in map(type, slots):  # some word is resolved as it is read
                # the opening's words are the slots before the first TERM
                words = tuple([(g, slot[1] if isinstance(slot, tuple) else r)
                               for (g, r), slot in zip(words, slots)])
                if cont is not None:  # the later word slots; TERM is None
                    cont = _resolved(cont, map(_slot_resolve, filter(None, slots[len(words):])))
            entries[group] = (make, words, cont, run)
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
        opening = self._opening.match
        stack = []  # open terms: (make, args, continuation due), or a run's (make, words, terms)
        m = opening(canon)
        while True:  # m opens a term, if the text reads
            if m is None:
                raise self._parse_error(text)
            make, words, cont, run = table[m.lastindex]
            pos = m.end()
            args = []
            for g, resolve in words:
                args.append(m[g] if resolve is None else resolve(m[g]))
            if run is not None:
                start, more, one = run
                count = 1
                if canon.startswith(start, pos):
                    r = more.match(canon, pos)
                    if r is not None:
                        if words:
                            found = one.findall(canon, pos, r.end())
                            resolve = words[0][1]
                            args += found if resolve is None else map(resolve, found)
                            count = len(args)
                        else:
                            count += (r.end() - pos) // len(start)
                        pos = r.end()
                stack.append((make, args, count))
                m = opening(canon, pos)
                continue
            if cont is not None:
                stack.append((make, args, cont))
                m = opening(canon, pos)
                continue
            value = make(*args)
            while stack:  # close what the value completes
                make, args, cont = stack.pop()
                if cont.__class__ is int:  # a run of `cont` terms
                    if not canon.startswith(")" * cont, pos):
                        raise self._parse_error(text)
                    pos += cont
                    if args:
                        for word in reversed(args):
                            value = make(word, value)
                    else:
                        for _ in range(cont):
                            value = make(value)
                    continue
                args.append(value)
                piece, resolves, cont = cont
                if resolves is None:
                    if cont is not None:  # the piece and the next term's opening
                        stack.append((make, args, cont))
                        m = piece.match(canon, pos)
                        break
                    if not canon.startswith(piece, pos):
                        raise self._parse_error(text)
                    pos += len(piece)
                else:
                    c = piece.match(canon, pos)
                    if c is None:
                        raise self._parse_error(text)
                    pos = c.end()
                    for word, resolve in zip(c.groups(), resolves):
                        args.append(word if resolve is None else resolve(word))
                    if cont is not None:
                        stack.append((make, args, cont))
                        m = opening(canon, pos)
                        break
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
