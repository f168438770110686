"""Words over named generators.

A word is a finite sequence of (generator name, nonzero exponent) letters,
kept merged: adjacent letters never share a generator.  This is pure syntax;
whether a word is trivial in a given group is the oracle's business
(see :mod:`treegroups.oracles`).
"""

from __future__ import annotations

import re
from typing import Hashable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

GEN_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_TOKEN_RE = re.compile(r"([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?\Z")

Letter = Tuple[str, int]
# a word over abstract symbols as (symbol, +1 or -1) units, as ``shortlex`` lists them
Units = Tuple[Tuple[Hashable, int], ...]


class WordError(ValueError):
    """Malformed word syntax or a letter over a foreign generator."""


def valid_gen_name(name: str) -> bool:
    return isinstance(name, str) and bool(GEN_NAME_RE.match(name))


def _merge(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """Merge adjacent same-generator letters, dropping zero exponents."""
    out: list[Letter] = []
    for name, exp in letters:
        if exp == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            if merged == 0:
                out.pop()
            else:
                out[-1] = (name, merged)
        else:
            out.append((name, exp))
    return tuple(out)


class Word(NamedTuple):
    """A merged sequence of (generator, exponent) letters.

    ``Word(letters)`` takes letters that are merged already (no zero
    exponent, no two adjacent letters on one generator); ``Word.of`` merges
    any letters.  Products and powers rely on it: they merge only where
    their operands meet.
    """

    letters: Tuple[Letter, ...] = ()

    @staticmethod
    def of(letters: Iterable[Letter]) -> "Word":
        return Word(_merge(letters))

    @staticmethod
    def gen(name: str, exp: int = 1) -> "Word":
        if exp == 0:
            return Word()
        return Word(((name, exp),))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def letter_length(self) -> int:
        """Total letter count with multiplicity (sum of |exponent|)."""
        return sum(abs(e) for _, e in self.letters)

    def __mul__(self, other: "Word") -> "Word":
        if not self.letters:
            return other
        if not other.letters:
            return self
        # both sides are merged, so only letters at the junction can meet
        a, b = self.letters, other.letters
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            exp = a[i - 1][1] + b[j][1]
            if exp:
                return Word(a[:i - 1] + ((b[j][0], exp),) + b[j + 1:])
            i, j = i - 1, j + 1
        return Word(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word(tuple((name, -exp) for name, exp in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        if len(self.letters) == 1:
            (name, exp), = self.letters
            return Word(((name, exp * n),))
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = Word()
        while n:  # binary powering; exponents may be huge
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugated_by(self, t: "Word") -> "Word":
        """t^-1 * self * t."""
        return t.inverse() * self * t

    def gen_names(self) -> Iterator[str]:
        for name, _ in self.letters:
            yield name

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for name, exp in self.letters:
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse whitespace-separated ``gen^exp`` tokens; "" and "1" are identity."""
        if not isinstance(text, str):
            raise WordError(f"a word must be a string, got {text!r}")
        text = text.strip()
        if not text or text == "1":
            return Word()
        letters: list[Letter] = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if not m:
                raise WordError(f"bad word token: {token!r}")
            name, exp = m.group(1), m.group(2)
            letters.append((name, 1 if exp is None else int(exp)))
        return Word.of(letters)


def shortlex(symbols: Sequence[Hashable], max_len: Optional[int] = None) -> Iterator[Units]:
    """Freely reduced words over ``symbols`` in shortlex order, as unit tuples.

    A unit is ``(symbol, 1)`` or ``(symbol, -1)``; the alphabet runs through
    the symbols in order, each before its inverse.  The empty word comes
    first; the levels stop after ``max_len`` letters (never when None).
    """
    alphabet = [(s, e) for s in symbols for e in (1, -1)]
    level: List[Units] = [()]
    length = 0
    while level:
        yield from level
        if length == max_len:
            return
        length += 1
        level = [u + (a,) for u in level for a in alphabet
                 if not u or u[-1] != (a[0], -a[1])]
