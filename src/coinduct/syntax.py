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
"""

from __future__ import annotations

import re

from .errors import ParseError

_WORD_CHARS = "A-Za-z0-9_"

WORD = re.compile(f"[{_WORD_CHARS}]+")

_TOKEN = re.compile(f"[{_WORD_CHARS}]+|[(),]")
_STRAY = re.compile(rf"[^{_WORD_CHARS}(),\s]")

_NOT_WORD = frozenset(("(", ")", ",", ""))

TERM = None  # the slot of a nested term


class Grammar:
    """A head table read and written in the term syntax.

    `what` names a term in errors; `rules` maps a head to its
    constructor and slots, and a constructed value's dataclass fields
    are its slot values in order, which is what `write` prints.
    """

    def __init__(self, what: str, rules: dict):
        self.what = what
        self.rules = rules
        self.heads = {make: (head, slots) for head, (make, slots) in rules.items()}

    def read(self, text: str):
        stray = _STRAY.search(text)
        if stray:
            raise ParseError(stray.start(), self.what)
        toks = _TOKEN.findall(text)
        toks.append("")  # end of input
        rules, what = self.rules, self.what
        i = 0

        def error(expected: str) -> ParseError:  # at token i
            starts = [m.start() for m in _TOKEN.finditer(text)] + [len(text)]
            return ParseError(starts[i], expected)

        def term():  # recurses once per nesting level, nowhere else
            nonlocal i
            rule = rules.get(toks[i])
            if rule is None:
                raise error(what)
            i += 1
            make, slots = rule
            if not slots:
                return make()
            args = []
            sep = "("
            for slot in slots:
                if toks[i] != sep:
                    raise error(f"'{sep}'")
                sep = ","
                i += 1
                if slot is TERM:
                    args.append(term())
                    continue
                tok = toks[i]
                if tok in _NOT_WORD or (slot == "numeral" and not tok.isdigit()):
                    raise error(slot)
                args.append(int(tok) if slot == "numeral" else tok)
                i += 1
            if toks[i] != ")":
                raise error("')'")
            i += 1
            return make(*args)

        value = term()
        if toks[i]:
            raise error("end of input")
        return value

    def write(self, value) -> str:
        try:
            head, slots = self.heads[type(value)]
        except KeyError:
            raise TypeError(f"no {self.what} head for {value!r}") from None
        if not slots:
            return head
        parts = []
        for slot, field in zip(slots, type(value).__match_args__):
            part = getattr(value, field)
            parts.append(self.write(part) if slot is TERM else str(part))
        return f"{head}({','.join(parts)})"
