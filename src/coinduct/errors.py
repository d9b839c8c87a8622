"""Exception types, the shared check-verdict value, and the JSON file reader."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


class CoinductError(Exception):
    """Base class for all library errors."""


class EmptyOperand(CoinductError):
    """A tree constructor received an empty node set."""


class Malformed(CoinductError):
    """A node set is not the image of any constructor."""


class CarrierTooLarge(CoinductError):
    """An exhaustive lattice check was asked for on a carrier above the bound."""


class NotMonotone(CoinductError):
    """Fixedpoint iteration observed non-monotone behaviour."""


class UnknownAtom(CoinductError):
    """Symbol not in the alphabet (or not in a function's table)."""


class UnknownSeed(CoinductError):
    """Seed key not declared by the step function."""


# A DSL symbol that does not resolve is an atom outside the alphabet.
UnknownSymbol = UnknownAtom


class UnknownFunction(CoinductError):
    """DSL function name does not resolve against the definitions file."""


class UnknownMachine(CoinductError):
    """DSL machine name does not resolve against the definitions file."""


class NotAList(CoinductError):
    """A tree is not in the image of the finite-list encoding."""


class IllFoundedCall(CoinductError):
    """A recursive body asked for a value not strictly below its argument."""


class SizeExceeded(CoinductError):
    """An enumeration request is outside the configured size guard."""


class RootMissing(CoinductError):
    """Certificate root does not match the queried pair; a root absent from
    the certificate's own pairs is a `CertificateError` instead."""


class UnresolvableKey(CoinductError):
    """A certificate key names no state on replay's walk of the queried lists."""


class DefsError(CoinductError):
    """Definitions file failed validation; the message names the offending key."""


class LatticeFileError(CoinductError):
    """Lattice demo file failed validation; the message names the offending key."""


class CertificateError(CoinductError):
    """Certificate file is structurally malformed."""


class ParseError(CoinductError):
    """Expression text deviates from the grammar.

    `offset` is the character offset (an index into the text, not into
    its UTF-8 bytes) where the expected token would start;
    `expected` is a short summary of what was expected there.
    """

    def __init__(self, offset: int, expected: str):
        super().__init__(f"parse error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: `ok`, with a reason and witness on failure.

    The witness is whatever pins the failure down: a subset pair for
    monotonicity, a subset for extremality, a prefix index for list
    disagreements, a state-key pair for closure checks.
    """

    ok: bool
    reason: str = ""
    witness: Any = None

    def __bool__(self) -> bool:
        return self.ok


def read_json(path: str, error: type[CoinductError], what: str) -> Any:
    """Parse the JSON file at `path`.

    Text that is not UTF-8 or not JSON raises `error`, with `what` naming
    the file format, and so does JSON nested past what the decoder's
    recursion can follow; OSError passes through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{what}: invalid JSON ({exc})") from None
        except RecursionError:
            raise error("input nested too deeply") from None
