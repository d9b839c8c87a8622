"""Term syntax shared by the expression language and the tree terms.

A term is a word, optionally followed by a parenthesised list of slots:

    term := word | word `(` slot (`,` slot)* `)`

Words are over [A-Za-z0-9_] and whitespace between tokens is ignored.
A grammar maps each head word to its constructor and its slots; a slot
is TERM (a nested term) or the label of a word ("symbol", "name", ...).
A word slot labelled "numeral" takes digits only and passes an int.

Reading raises ParseError with the offset at which the expected token
would start and what was expected there: the grammar's term label
where a term is due (and at any character outside the token set), the
slot's label where a word is due, "'('", "','", "')'", or
"end of input".

Reading is a loop over an explicit stack of open terms, so any nesting
depth works at the default recursion limit.  A term can be read with
another constructor table of the same syntax (`Grammar.table`): its
constructors then build something else, and a word slot may resolve its
word as it is read.  `Grammar.canonical` reads a term with no
constructors and returns its tokens joined without whitespace.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import CoinductError, ParseError

_WORD_CHARS = "A-Za-z0-9_"

WORD = re.compile(f"[{_WORD_CHARS}]+")

_TOKEN = re.compile(f"[{_WORD_CHARS}]+|[(),]")
_STRAY = re.compile(rf"[^{_WORD_CHARS}(),\s]")

_NOT_WORD = frozenset(("(", ")", ",", ""))

TERM = None  # the slot of a nested term


class Grammar:
    """A head table read in the term syntax.

    `what` names a term in errors; `rules` maps a head to its
    constructor and slots.  A grammar whose constructors are None is
    only read with `canonical` or with a `table` of its own.
    """

    def __init__(self, what: str, rules: dict):
        self.what = what
        self.rules = self.table(rules)
        # the same syntax with no constructors, to check a text and to look for its parse error
        self._syntax = {head: (lambda *args: None, tuple(s and (s[0], None) for s in slots))
                        for head, (_, slots) in self.rules.items()}

    def table(self, rules: dict) -> dict:
        """`rules` made ready for `read`.

        `rules` has this grammar's heads and slots, each head with its
        own constructor.  A word slot may be given as (label, resolve):
        the constructor then receives resolve(word) in place of the
        word, called as soon as the word is read.
        """
        return {
            head: (make, tuple(
                slot if slot is TERM or isinstance(slot, tuple)
                else (slot, int if slot == "numeral" else None)
                for slot in slots
            ))
            for head, (make, slots) in rules.items()
        }

    def read(self, text: str, table: Optional[dict] = None):
        """The term `text` spells, built with this grammar's constructors
        or with `table`'s.

        One pass over the tokens: a word slot is resolved when it is
        read and a term is built when its `)` is read, children before
        parents.  A resolution or constructor error (any CoinductError)
        is raised only once the whole text is known to parse, so a parse
        error anywhere in the text comes first.
        """
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(stray.start(), self.what)
        toks = _TOKEN.findall(text)
        toks.append("")  # end of input
        try:
            return self._build(text, toks, self.rules if table is None else table)
        except ParseError:
            raise
        except CoinductError:
            self._build(text, toks, self._syntax)  # raises the text's parse error, if any
            raise

    def canonical(self, text: str) -> str:
        """The tokens of `text` joined without whitespace, once `text`
        reads as a term; else the ParseError `read` raises."""
        self.read(text, self._syntax)
        # a term's text is tokens and whitespace, and whitespace never separates two words
        return "".join(text.split())

    def _build(self, text: str, toks: list, rules: dict):
        """The term the tokens of `text` spell, built with `rules`."""
        stack = []  # open terms above the current one: (make, slots, args, next slot)
        i = 0
        while True:  # a term is due at token i
            rule = rules.get(toks[i])
            if rule is None:
                raise _error(text, i, self.what)
            i += 1
            make, slots = rule
            args = []
            k = 0
            while True:  # fill the open term's slots; close it when they are full
                if k < len(slots):
                    sep = "," if k else "("
                    if toks[i] != sep:
                        raise _error(text, i, f"'{sep}'")
                    i += 1
                    slot = slots[k]
                    k += 1
                    if slot is TERM:
                        stack.append((make, slots, args, k))
                        break
                    label, resolve = slot
                    tok = toks[i]
                    if tok in _NOT_WORD or (label == "numeral" and not tok.isdigit()):
                        raise _error(text, i, label)
                    args.append(tok if resolve is None else resolve(tok))
                    i += 1
                    continue
                if slots:
                    if toks[i] != ")":
                        raise _error(text, i, "')'")
                    i += 1
                value = make(*args)
                if not stack:
                    if toks[i]:
                        raise _error(text, i, "end of input")
                    return value
                make, slots, args, k = stack.pop()
                args.append(value)


def _error(text: str, i: int, expected: str) -> ParseError:
    """The error for token i of `text`, where `expected` was due."""
    starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
    return ParseError(starts[i], expected)
