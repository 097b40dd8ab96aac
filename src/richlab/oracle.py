"""Brute-force reference implementations.

Everything in this module chases definitions literally: palindromic factors
by checking every substring whose end letters agree, richness by counting
that set, switches by testing every window, returns by testing every
occurrence pair.  Nothing here imports from the fast-path modules (paltree,
structures, enumeration, bounds); only the shared data model (Word,
SwitchRecord) is used.  Slow on purpose; input length is capped
(RICHLAB_MAX_WORD_LEN, default 5000).  The switch scan of the last few
(word, n) is remembered, which changes no answer.
"""

from __future__ import annotations

import functools
import os
from bisect import bisect_left, bisect_right

from .records import SwitchRecord, SwitchPair
from .words import Word

DEFAULT_MAX_LEN = 5000
ENV_MAX_LEN = "RICHLAB_MAX_WORD_LEN"


class OracleLimitError(ValueError):
    """Input exceeds the configured oracle length cap."""


def _max_len() -> int:
    raw = os.environ.get(ENV_MAX_LEN)
    if raw is None:
        return DEFAULT_MAX_LEN
    try:
        return int(raw)
    except ValueError:
        raise OracleLimitError(f"{ENV_MAX_LEN}={raw!r} is not an integer") from None


def _check_length(length: int) -> None:
    cap = _max_len()
    if length > cap:
        raise OracleLimitError(f"word length {length} exceeds oracle cap {cap}")


def _guard(w: Word) -> str:
    _check_length(len(w))
    return w.chars


def oracle_palindrome_set(w: Word) -> frozenset[Word]:
    """Every distinct palindromic factor, including the empty word."""
    s = _guard(w)
    q = w.alphabet_size
    found = {""}
    # a palindrome starts and ends with the same letter, so each start i is
    # tried against the positions j >= i of its own letter only
    ends: dict[str, list[int]] = {}
    for j, c in enumerate(s):
        ends.setdefault(c, []).append(j)
    for i, c in enumerate(s):
        same = ends[c]
        for j in same[bisect_left(same, i) :]:
            sub = s[i : j + 1]
            if sub == sub[::-1]:
                found.add(sub)
    return frozenset(Word._trusted(p, q) for p in found)


def oracle_factor_set(w: Word, n: int) -> frozenset[Word]:
    s = _guard(w)
    q = w.alphabet_size
    if n == 0:
        return frozenset([Word("", q)])
    return frozenset(Word(s[i : i + n], q) for i in range(len(s) - n + 1))


def oracle_is_rich(w: Word) -> bool:
    return len(oracle_palindrome_set(w)) == len(w) + 1


def oracle_defect(w: Word) -> int:
    return len(w) + 1 - len(oracle_palindrome_set(w))


# One cross-check asks for the switches of one (word, n) directly, through
# the pairs, through the maximum over orders and once per lpps class; the
# scan is kept for the last few keys.  The guard runs before every lookup,
# and q is part of the key because Words compare by chars alone.
@functools.lru_cache(maxsize=64)
def _switch_scan(s: str, q: int, n: int) -> frozenset[SwitchRecord]:
    """Windows a·u·b of s of length n with u a palindrome and a != b."""
    if n <= 2:
        return frozenset()
    found = set()
    for i in range(len(s) - n + 1):
        a, b = s[i], s[i + n - 1]
        if a == b:
            continue
        core = s[i + 1 : i + n - 1]
        if core == core[::-1]:
            found.add((a, core, b))
    return frozenset(
        SwitchRecord(ord(a), Word._trusted(core, q), ord(b)) for a, core, b in found
    )


def oracle_switches(w: Word, n: int) -> frozenset[SwitchRecord]:
    """Windows a·u·b of length n with u a palindrome and a != b."""
    return _switch_scan(_guard(w), w.alphabet_size, n)


def oracle_switch_pairs(w: Word, n: int) -> frozenset[SwitchPair]:
    out = set()
    for rec in oracle_switches(w, n):
        out.add(SwitchPair(rec.core, rec.left))
        out.add(SwitchPair(rec.core, rec.right))
    return frozenset(out)


def oracle_complete_returns(w: Word, u: Word) -> frozenset[Word]:
    """Factors with exactly two occurrences of u: one prefix, one suffix."""
    if len(u) == 0:
        raise ValueError("returns to the empty word are undefined")
    s = _guard(w)
    q = w.alphabet_size
    m = len(u)
    pat = u.chars
    positions = [i for i in range(len(s) - m + 1) if s[i : i + m] == pat]
    out = set()
    for a in range(len(positions)):
        for b in range(a + 1, len(positions)):
            p1, p2 = positions[a], positions[b]
            # occurrences of u inside s[p1 : p2+m] start exactly at the
            # global positions within [p1, p2]; positions is sorted
            inside = bisect_right(positions, p2) - bisect_left(positions, p1)
            if inside == 2:
                out.add(Word(s[p1 : p2 + m], q))
    return frozenset(out)


def oracle_lps(w: Word) -> Word:
    if len(w) == 0:
        raise ValueError("lps of the empty word is undefined")
    s = _guard(w)
    for L in range(len(s), 0, -1):
        suf = s[len(s) - L :]
        if suf == suf[::-1]:
            return Word(suf, w.alphabet_size)
    raise AssertionError("unreachable: single letters are palindromes")


def oracle_lpp(w: Word) -> Word:
    if len(w) == 0:
        raise ValueError("lpp of the empty word is undefined")
    s = _guard(w)
    for L in range(len(s), 0, -1):
        pre = s[:L]
        if pre == pre[::-1]:
            return Word(pre, w.alphabet_size)
    raise AssertionError("unreachable: single letters are palindromes")


def _lpps_str(s: str) -> str:
    for L in range(len(s) - 1, 0, -1):
        suf = s[len(s) - L :]
        if suf == suf[::-1]:
            return suf
    return ""


def oracle_lpps(w: Word) -> Word:
    return Word(_lpps_str(_guard(w)), w.alphabet_size)


def oracle_lppp(w: Word) -> Word:
    s = _guard(w)
    for L in range(len(s) - 1, 0, -1):
        pre = s[:L]
        if pre == pre[::-1]:
            return Word(pre, w.alphabet_size)
    return Word("", w.alphabet_size)


def oracle_closure(w: Word) -> Word:
    """Shortest palindrome having w as a prefix: p·lps(w)·reverse(p)."""
    s = _guard(w)
    if len(s) == 0:
        return w
    lps_len = len(oracle_lps(w))
    p = s[: len(s) - lps_len]
    return Word(s + p[::-1], w.alphabet_size)


def oracle_cores_with_lpps(w: Word, n: int, r: Word) -> frozenset[Word]:
    """Length-n switch cores whose longest proper palindromic suffix is r."""
    out = set()
    for rec in oracle_switches(w, n + 2):
        core = rec.core
        if _lpps_str(core.chars) == r.chars:
            out.add(core)
    return frozenset(out)


def oracle_max_switch_count(w: Word, n: int) -> int:
    s, q = _guard(w), w.alphabet_size
    best = 1
    for i in range(3, n + 1):
        best = max(best, len(_switch_scan(s, q, i)))
    return best
