"""Plain record types shared by the fast paths and the oracle; JSON of dataclasses."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .words import Word


@dataclass(frozen=True)
class SwitchRecord:
    """A factor a·u·b with u a palindrome and a != b."""

    left: int
    core: Word
    right: int

    @property
    def word(self) -> Word:
        q = max(self.core.alphabet_size, self.left + 1, self.right + 1)
        return Word(chr(self.left) + self.core.chars + chr(self.right), q)

    def to_json_dict(self) -> dict:
        return {
            "left": Word.from_symbols([self.left]).text,
            "core": self.core.text,
            "right": Word.from_symbols([self.right]).text,
            "word": self.word.text,
        }


class SwitchPair(NamedTuple):
    """A palindromic core plus one of the letters it can be wrapped with."""

    core: Word
    letter: int

    def to_json_dict(self) -> dict:
        return {"core": self.core.text, "letter": Word.from_symbols([self.letter]).text}


@functools.cache
def _json_keys(cls, derived: tuple[str, ...]) -> tuple[tuple[str, ...], Callable]:
    """cls's field names in order, and a getter of their values."""
    keys = []
    for f in fields(cls):
        keys.append(f.name)
        if derived and f.name == derived[0]:
            keys.append(derived[1])
    return tuple(keys), operator.attrgetter(*keys)


def json_fields(record, derived: tuple[str, ...] = ()) -> dict:
    """The fields of a dataclass record, in order, as a JSON-ready dict.

    A tuple becomes a list, with each item that has to_json_dict replaced
    by its dict.  derived, a (field, property) pair, writes the property's
    value right after the field.
    """
    keys, get = _json_keys(type(record), derived)
    return {
        k: [x.to_json_dict() if hasattr(x, "to_json_dict") else x for x in v]
        if isinstance(v, tuple) else v
        for k, v in zip(keys, get(record))
    }


def from_json_fields(cls, d: dict):
    """The record of dataclass cls that json_fields turned into d."""
    values = (d[f.name] for f in fields(cls))
    return cls(*(tuple(v) if isinstance(v, list) else v for v in values))
