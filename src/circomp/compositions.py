"""Integer compositions: ordered words of positive parts with a fixed sum.

A composition is the ordered counterpart of a partition, so 1+3 and 3+1
are distinct compositions of 4. The operations here cover the word-level
structure the rest of the package builds on: reversal and palindromicity,
the gcd of the parts, the smallest period under concatenation, and the
rescaling that trades a common factor d for a d-fold repetition.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import eq

from ._value import INTS, Value


class Composition(Value):
    """An ordered word of one or more positive integer parts."""

    __slots__ = _fields = ("parts",)
    parts: tuple[int, ...]

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition needs at least one part")
        if not (INTS.issuperset(map(type, parts)) and min(parts) > 0):
            raise ValueError(f"parts must be positive integers: {parts}")
        _set_parts(self, parts)

    @classmethod
    def _unchecked(cls, parts: tuple[int, ...]) -> Composition:
        """Wrap a tuple of positive parts that is valid by construction.

        Skips the checks of ``__init__``; only the enumerators use it, on
        words they build themselves. The public constructor always validates.
        """
        self = object.__new__(cls)
        _set_parts(self, parts)
        return self

    @property
    def total(self) -> int:
        """The composed integer n, recomputed as the sum of the parts."""
        return sum(self.parts)

    @property
    def part_count(self) -> int:
        return len(self.parts)

    def is_palindrome(self) -> bool:
        """True iff the word reads the same forwards and backwards."""
        return self.parts == self.parts[::-1]

    def gcd(self) -> int:
        """Greatest common divisor of all parts; always divides ``total``."""
        return math.gcd(*self.parts)

    def period(self) -> int:
        """Smallest p such that the word is its length-p prefix repeated.

        Candidate periods are the divisors of the part count m, tried in
        increasing order; p works iff parts[i + p] == parts[i] for every i.
        A one-part word has period 1. The comparison runs lazily, so a
        divisor is dropped at its first mismatch: a slice per divisor
        would copy the word once for each of them.
        """
        parts = self.parts
        m = len(parts)
        return next(p for p in range(1, m + 1) if not m % p and all(map(eq, islice(parts, p, None), parts)))

    def is_aperiodic(self) -> bool:
        """True iff the smallest period equals the part count."""
        return self.period() == len(self.parts)

    def rescale(self) -> Composition:
        """Trade the common factor d = gcd(parts) > 1 for a d-fold repeat.

        Divides every part by d and concatenates the quotient word d
        times, preserving the total while making the parts coprime. Only
        defined when d > 1; a word whose parts are already coprime is
        rejected, since there is nothing to rescale.
        """
        d = self.gcd()
        if d == 1:
            raise ValueError(f"{self} has coprime parts; rescale is undefined")
        return Composition(tuple(p // d for p in self.parts) * d)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


# The slot setter of the field: it stores past Value.__setattr__, which refuses assignment.
_set_parts = Composition.parts.__set__


def parse_composition(text: str) -> Composition:
    """Parse "2,1,2" (canonical comma form) or a comma-less numeral.

    A comma-less numeral is read one part per digit ("212" is 2,1,2 and
    "14" is 1,4, the juxtaposition idiom), unless some digit is 0, in
    which case the digit reading would be invalid and the numeral is
    taken as a single part ("10" is the one-part word 10). A lone
    multi-digit part with all digits nonzero therefore has no comma-less
    spelling; its str() form reads back as the digit word. A comma-less
    literal with any character int() does not read as a digit, such as
    "-3" or "²", is a bad composition literal, as is a comma form with a
    part int() cannot read.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty composition literal")
    try:
        if "," in s:
            parts = tuple(map(int, s.split(",")))
        else:
            digits = tuple(map(int, s))  # int() fails here on any character that is not a digit
            parts = (int(s),) if 0 in digits else digits
    except ValueError:
        raise ValueError(f"bad composition literal: {text!r}") from None
    return Composition(parts)
