"""Alphabet and word primitives.

A word is an immutable sequence of integer symbols drawn from {0, ..., q-1}
where q is the word's alphabet size.  Internally the symbols are packed into
a str (symbol i stored as chr(i)), which makes slicing, reversal, hashing and
substring search run at C speed; the packed form is never the display form.

Positions in operation contracts are 1-based where stated (mirror); storage
is 0-based half-open everywhere else.  Equality, hashing and ordering look at
the symbol sequence only, never at the alphabet size, so words over different
declared alphabets compare by content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

MAX_ALPHABET = 255
DISPLAY_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"

_DISPLAY_VALUE = {c: i for i, c in enumerate(DISPLAY_DIGITS)}
# str.translate table from a packed symbol to its display form
_DISPLAY_TEXT = {i: DISPLAY_DIGITS[i] if i < len(DISPLAY_DIGITS) else f"<{i}>"
                 for i in range(MAX_ALPHABET)}


class ParseError(ValueError):
    """A display string contains a character outside the alphabet."""

    def __init__(self, char: str, position: int, reason: str):
        self.char = char
        self.position = position
        super().__init__(
            f"cannot parse character {char!r} at position {position}: {reason}"
        )


class Word:
    """Immutable word over {0..q-1} with value semantics on the symbols."""

    __slots__ = ("chars", "alphabet_size")

    chars: str
    alphabet_size: int

    def __init__(self, chars: str = "", alphabet_size: int | None = None):
        if alphabet_size is None:
            alphabet_size = max(ord(max(chars)) + 1 if chars else 0, 1)
        if not 1 <= alphabet_size <= MAX_ALPHABET:
            raise ValueError(f"alphabet size {alphabet_size} outside 1..{MAX_ALPHABET}")
        if chars and ord(max(chars)) >= alphabet_size:
            bad = next(c for c in chars if ord(c) >= alphabet_size)
            raise ValueError(
                f"symbol {ord(bad)} outside alphabet of size {alphabet_size}"
            )
        object.__setattr__(self, "chars", chars)
        object.__setattr__(self, "alphabet_size", alphabet_size)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Word is immutable")

    @classmethod
    def _trusted(cls, chars: str, alphabet_size: int) -> "Word":
        """A Word built without validation.

        Only for chars cut or reversed out of an already-validated word
        with the same alphabet size, so every symbol is known to fit.
        """
        w = object.__new__(cls)
        object.__setattr__(w, "chars", chars)
        object.__setattr__(w, "alphabet_size", alphabet_size)
        return w

    @classmethod
    def from_symbols(
        cls, symbols: Iterable[int], alphabet_size: int | None = None
    ) -> "Word":
        return cls("".join(chr(s) for s in symbols), alphabet_size)

    @classmethod
    def parse(cls, text: str, alphabet: str | None = None) -> "Word":
        """Parse a display string.

        Default mapping is char-value order: '0'-'9' -> 0-9, 'a'-'z' -> 10-35,
        with q inferred as (max symbol + 1).  An explicit alphabet string wins:
        each character's symbol is its index and q = len(alphabet).
        """
        if alphabet is not None:
            if len(set(alphabet)) != len(alphabet):
                raise ValueError("alphabet has repeated characters")
            if not 1 <= len(alphabet) <= MAX_ALPHABET:
                raise ValueError("alphabet size outside 1..255")
            index = {c: i for i, c in enumerate(alphabet)}
            symbols = []
            for pos, c in enumerate(text, start=1):
                if c not in index:
                    raise ParseError(c, pos, "not in the declared alphabet")
                symbols.append(index[c])
            return cls.from_symbols(symbols, len(alphabet))
        symbols = []
        for pos, c in enumerate(text, start=1):
            v = _DISPLAY_VALUE.get(c)
            if v is None:
                raise ParseError(c, pos, "expected one of 0-9, a-z")
            symbols.append(v)
        return cls.from_symbols(symbols)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(ord(c) for c in self.chars)

    @property
    def text(self) -> str:
        """Display string; symbols beyond the 36 digit/letter glyphs render as <i>."""
        return self.chars.translate(_DISPLAY_TEXT)

    def __len__(self) -> int:
        return len(self.chars)

    def __iter__(self) -> Iterator[int]:
        return (ord(c) for c in self.chars)

    def __getitem__(self, item: Union[int, slice]):
        if isinstance(item, slice):
            return Word._trusted(self.chars[item], self.alphabet_size)
        return ord(self.chars[item])

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word(
            self.chars + other.chars, max(self.alphabet_size, other.alphabet_size)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.chars == other.chars

    def __hash__(self) -> int:
        return hash(self.chars)

    def __lt__(self, other: "Word") -> bool:
        return self.chars < other.chars

    def __le__(self, other: "Word") -> bool:
        return self.chars <= other.chars

    def __repr__(self) -> str:
        return f"Word({self.text!r}, q={self.alphabet_size})"

    def __getstate__(self):
        return (self.chars, self.alphabet_size)

    def __setstate__(self, state):
        object.__setattr__(self, "chars", state[0])
        object.__setattr__(self, "alphabet_size", state[1])


EMPTY = Word()


def reverse(w: Word) -> Word:
    return Word._trusted(w.chars[::-1], w.alphabet_size)


def is_palindrome(w: Word) -> bool:
    return w.chars == w.chars[::-1]


def trim(w: Word) -> Word:
    """Drop the first and last symbol; empty for |w| <= 2."""
    return Word._trusted(w.chars[1:-1], w.alphabet_size)


def mirror(n: int, j: int) -> int:
    """Position-reversal map on 1-based positions of a length-n word."""
    if not 1 <= j <= n:
        raise ValueError(f"position {j} outside 1..{n}")
    return n - j + 1


@dataclass(frozen=True)
class FactorSet:
    """The distinct factors of one fixed length of some word."""

    length: int
    factors: frozenset[Word] = field(default_factory=frozenset)

    def __len__(self) -> int:
        return len(self.factors)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.factors)

    def __contains__(self, item) -> bool:
        return item in self.factors

    def sorted_words(self) -> list[Word]:
        return sorted(self.factors, key=lambda w: w.chars)


def factors(w: Word, n: int) -> FactorSet:
    """All length-n factors of w; {empty} for n = 0, empty set for n > |w|."""
    if n < 0:
        raise ValueError("factor length must be >= 0")
    if n == 0:
        return FactorSet(0, frozenset([Word("", w.alphabet_size)]))
    q = w.alphabet_size
    s = w.chars
    return FactorSet(
        n, frozenset(Word(s[i : i + n], q) for i in range(len(s) - n + 1))
    )


def palindromic_factors(w: Word, n: int) -> FactorSet:
    return FactorSet(
        n, frozenset(u for u in factors(w, n) if u.chars == u.chars[::-1])
    )


def is_reversal_closed(s: FactorSet) -> bool:
    """True iff the set is stable under word reversal."""
    return all(Word(u.chars[::-1], u.alphabet_size) in s.factors for u in s.factors)
