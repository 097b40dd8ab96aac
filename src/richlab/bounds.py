"""Inequality suite over rich-word statistics.

Twelve inequalities (B1..B12) relate palindromic complexity, factor
complexity, switch counts and reversal closure.  One table, _TABLE, holds
each bound once: where it applies (orders, richness, reversal closure), and
its two sides as columns, lhs(p, ns) and rhs(p, ns), the values at every
order in ns read straight from a profile's per-length arrays.  A
right-hand side is an exact integer or, when the value is astronomically
large, its base-2 logarithm with a closed form in integers; one that depends
only on (q, n) is given one order at a time, rhs(p, n), and computed once
per (q, n) in a process: _RHS_MEMO keeps its value and float log2, not the
form, for every order up to the longest word met so far.  Beside them it
keeps the detail text of B5-B7, B10 and B11, which reads only that value,
and B12's reports whole, which read n alone, so every word shares them.

One step, _judge, decides every verdict lhs <= rhs, and the richness
check, from a bound's left-hand column at its orders: _bound_reports
builds every BoundReport from its output, and the sweep's _fold_columns
counts passes, equalities and slacks (_slacks) from it.  Explicit
orders, those of evaluate_word(ns=...) and of every check_* wrapper
(none of which takes a profile), take one path: _explicit checks them
and _rows reads them.  An explicit order computes its right-hand side
afresh, reads and grows no memo column, and past |w| reads the arrays
through _AnyOrder views (_beyond).  A palindromic closure, whose B8/B9
reports evaluate_word and the sweep add, is profiled by one function,
_closure_profile: a palindrome's factor sets are closed under reversal
at every order, and B8/B9 read no switch, so it needs only the
closure's suffix automaton and an Eertree extended by the letters the
closure adds: the word's own, the carried tree in the sweep and in
evaluate_word the run that profiled the word (_profile_run), so no
letter of the word is appended twice.  evaluate_word, the CLI's verify
and the sweep's violating words build each word's batch of reports with
the cyclic garbage collector paused (_collected): a report holds no
container, so reference counting frees all that a batch drops, and a
collector pass would only re-walk the reports built so far.  No result
changes, and the collector's state comes back on every exit.

sweep_rich walks every canonical rich word, weighted by the size of its
letter orbit, and folds the columns straight into per-bound units
(_fold_columns), building a BoundReport only for a violation; B12 reads
no word, so it is folded once per sweep.  It carries the profile down
the walk (_CarriedProfile), one letter pushed or popped at a time,
instead of profiling each word.  Both profiles, and the switch queries of
richlab.structures, find switches with the one Eertree step that module
holds, _new_cores.  Each table entry names the profile fields it reads,
so the sweep folds a bound once per distinct (bound, fields) and adds up
the weights of the words that share them; the sums are exact.  B2's
signature, and its left-hand column, is the sorted sizes of its lpps
fibres at each n.

Comparison policy: the RHS is exact when its closed form is an integer
(integral exponent) and log2(RHS) <= 512; otherwise _decide_log compares in
float64 log-domain with margin 1e-9.  Anything inside the margin, or any
candidate violation, is decided in integers from the closed form (_Form),
both sides' logarithms bracketed ever finer (_lg_bracket), and one still
undecided at _BRACKET_CAP bits raises UndecidedComparisonError: no
verdict is a floating-point artifact or an assumed tie.

Checks whose statement holds only for rich words reject non-rich input;
force=True evaluates anyway and marks the report as not covered.
"""

from __future__ import annotations

import gc
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, replace
from itertools import accumulate, chain, repeat
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .enumeration import DEFAULT_SHARD_PREFIX, _check_alphabet, _orbit, _sharded, _walk
from .paltree import Eertree, is_rich
from .records import from_json_fields, json_fields
from .structures import (
    _closure_chars, _first_switches, _new_cores, _suffix_automaton, _switch_table,
)
from .words import Word

BOUND_IDS = (
    "B1", "B2", "B3", "B4", "B5", "B6",
    "B7", "B8", "B9", "B10", "B11", "B12",
)

MARGIN = 1e-9
EXACT_LOG2_CAP = 512
_BRACKET_CAP = 4096  # the finest precision, in bits, of _decide_log's brackets


class RichnessRequiredError(ValueError):
    """The inequality is proved for rich words only."""


class ClosureRequiredError(ValueError):
    """The factor set of order n+1 must be closed under reversal."""


class UndecidedComparisonError(ArithmeticError):
    """A log-domain comparison that _BRACKET_CAP bits of precision did not decide."""


_setattr = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class BoundReport:
    """Outcome of one inequality check on one word (or pure arithmetic)."""

    bound_id: str
    word_length: Optional[int]
    n: int
    q: Optional[int]
    lhs: int
    rhs: Optional[int]
    rhs_log2: Optional[float]
    holds: bool
    equality: Optional[bool]
    covered: bool
    citation: str
    detail: str

    def __init__(
        self, bound_id, word_length, n, q, lhs, rhs, rhs_log2, holds, equality,
        covered, citation, detail,
    ):
        # filled as a _Filling, which has the same slots and plain stores,
        # then turned back: the generated frozen __init__ goes through
        # object.__setattr__ per field, and verify builds thousands of
        # reports per word
        _setattr(self, "__class__", _Filling)
        self.bound_id = bound_id
        self.word_length = word_length
        self.n = n
        self.q = q
        self.lhs = lhs
        self.rhs = rhs
        self.rhs_log2 = rhs_log2
        self.holds = holds
        self.equality = equality
        self.covered = covered
        self.citation = citation
        self.detail = detail
        self.__class__ = BoundReport

    @property
    def rhs_is_log(self) -> bool:
        return self.rhs is None

    def slack_log2(self) -> Optional[float]:
        """log2(rhs) - log2(lhs); None when lhs is 0."""
        return next(iter(_slacks((self.lhs,), (self.rhs,), (self.rhs_log2,))), None)

    def to_json_dict(self) -> dict:
        return json_fields(self, ("rhs_log2", "rhs_is_log"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "BoundReport":
        return from_json_fields(cls, d)


class _Filling:
    """A BoundReport while BoundReport.__init__ fills its slots."""

    __slots__ = BoundReport.__slots__


@dataclass(frozen=True)
class WordProfile:
    """Per-length statistics of one word, computed by word_profile.

    sw, gamma_max and fibres are None in the profile of a palindromic
    closure, which _closure_profile computes.
    """

    word: Word
    q: int
    rich: bool
    fac: tuple[int, ...]        # fac[n] = |F(w,n)|, 0..|w|
    pal: tuple[int, ...]        # pal[n] = |F_p(w,n)|
    sw: Optional[tuple[int, ...]]         # sw[n] = number of length-n switches
    gamma_max: Optional[tuple[int, ...]]  # max(1, max sw[i] for i<=n)
    pal_max: tuple[int, ...]    # pal_max[n] = max pal[j] for j<=n
    closed: tuple[bool, ...]    # closed[n] = F(w,n) stable under reversal
    # fibres[n]: the length-n switch cores grouped by lpps, as sorted
    # (lpps chars, core count) pairs
    fibres: Optional[tuple[tuple[tuple[str, int], ...], ...]]
    lps_length = None  # |lps(word)|, set by word_profile; not a field


def word_profile(w: Word) -> WordProfile:
    """Per-length statistics of w from three passes of O(|w|) steps each.

    fac: each suffix-automaton state adds 1 to every length it stands for.
    closed: F(w,n) is reversal-closed iff every length-n factor of
    reverse(w) occurs in w, read off the matching statistics of reverse(w)
    against the same automaton.  pal, rich, lps_length: one Eertree run.
    sw and fibres: the distinct switches that _first_switches lists on that
    run, given the longest earlier suffixes that the automaton records.  A
    new core u's lpps is the suffix link of u's node, a suffix of the word
    read so far, sliced out in C.

    A palindromic closure is never profiled here: _closure_profile needs
    only its suffix automaton and an Eertree.
    """
    return _profile_run(w)[0]


def _profile_run(w: Word) -> tuple[WordProfile, Eertree, list[int]]:
    """word_profile(w), the Eertree run that holds w, and its palindrome
    counts per length as a list, so the closure extends that run."""
    s = w.chars
    L = len(s)

    length, link, nxt, earlier = _suffix_automaton(s)
    fac = _factor_counts(length, link, L)

    # matching statistics: ml[j] = longest suffix of reverse(w)[:j+1] in F(w)
    ml = []
    v = k = 0
    for c in reversed(s):
        while v and c not in nxt[v]:
            v = link[v]
            k = length[v]
        v = nxt[v][c]  # c occurs in w, so the root always has this edge
        k += 1
        ml.append(k)
    closed = [True] * (L + 1)
    low = L
    for j in range(L - 1, -1, -1):
        low = min(low, ml[j])
        closed[j + 1] = low >= j + 1
    del length, link, nxt, ml  # freed before the Eertree run raises the peak

    tree = Eertree()
    node_length, suffix_link = tree.node_length, tree.suffix_link
    sw = [0] * (L + 1)
    known = bytearray(L + 2)  # known[x]: node x was met as a core
    fibres: dict[tuple[int, str], int] = {}  # (|u|, lpps chars) -> its cores
    for i, x in _first_switches(tree, s, earlier):
        n = node_length(x)
        sw[n + 2] += 1
        if not known[x]:
            known[x] = 1
            key = (n, s[i - node_length(suffix_link(x)) : i])
            fibres[key] = fibres.get(key, 0) + 1
    pal = [1] + [0] * L
    for node in range(2, tree.node_count):
        pal[node_length(node)] += 1
    by_order = [()] * (L + 1)
    for (n, r), size in sorted(fibres.items()):
        by_order[n] += ((r, size),)
    profile = WordProfile(
        word=w,
        q=w.alphabet_size,
        rich=tree.distinct_nonempty == L,
        fac=fac,
        pal=tuple(pal),
        sw=tuple(sw),
        gamma_max=tuple(accumulate(sw, max, initial=1))[1:],
        pal_max=tuple(accumulate(pal, max)),
        closed=tuple(closed),
        fibres=tuple(by_order),
    )
    _setattr(profile, "lps_length", node_length(tree.last_node()))
    return profile, tree, pal


def _factor_counts(length: list[int], link: list[int], L: int) -> tuple[int, ...]:
    """fac[n] for n = 0..L: each automaton state adds 1 to each length it stands for."""
    delta = [0] * (L + 2)
    for v in range(1, len(length)):
        delta[length[link[v]] + 1] += 1
        delta[length[v] + 1] -= 1
    delta[0] = 1  # the empty factor
    delta[1] -= 1
    return tuple(accumulate(delta[: L + 1]))


def _closure_profile(c: str, q: int, tree: Eertree, pal: list[int]) -> WordProfile:
    """The profile of c, a palindromic closure, less switches.

    tree holds a prefix of c and pal counts that prefix's palindromes per
    length: the sweep passes its carried tree and counts, _word_rows the
    tree and counts of _profile_run, which hold the word.  pal and rich:
    tree is extended by the rest of c and left holding c (the sweep pops
    it back); the list pal is not changed.  fac: c's suffix automaton, as
    in word_profile.  closed: all True, since the factors of a palindrome
    are closed under reversal.
    sw, gamma_max and fibres are None: a closure's B8/B9 reports read none
    of them.
    """
    L = len(c)
    tail = c[len(tree) :]
    pal = pal + [0] * len(tail)
    append, length, last = tree.append, tree.node_length, tree.last_node
    for ch in tail:
        if append(ord(ch)):
            pal[length(last())] += 1
    length, link, _, _ = _suffix_automaton(c)
    return WordProfile(
        Word._trusted(c, q), q, tree.distinct_nonempty == L,
        _factor_counts(length, link, L),
        tuple(pal), None, None, tuple(accumulate(pal, max)), (True,) * (L + 1),
        None,
    )


# Each profile field the table reads, as one hashable value built from the
# arrays of a _CarriedProfile.  B2's reports read the lpps fibres only
# through their sizes at each n, so its value is the sorted (n, size)
# pairs, one per fibre.
_CARRIED = {
    "fac": lambda s: tuple(s.fac),
    "pal": lambda s: tuple(s.pal),
    "sw": lambda s: tuple(s.sw),
    "gamma_max": lambda s: tuple(accumulate(s.sw, max, initial=1))[1:],
    "pal_max": lambda s: tuple(accumulate(s.pal, max)),
    "closed": lambda s: tuple(map(operator.not_, s.unpaired)),
    "fibres": lambda s: tuple(sorted((k[0], size) for k, size in s.fibres.items())),
}


class _CarriedProfile:
    """The profile of a word that grows and shrinks by its last letter.

    push(c) appends the symbol c and pop() undoes the latest push, so a
    depth-first walk carries the profile of the word it stands on instead
    of profiling each word from scratch.  A push changes each field by a
    small delta:

    - fac: the new factors are the suffixes longer than m, the longest
      suffix that occurred before; they are found longest first, stopping
      at the first one already in the factor set.
    - closed: unpaired[n] counts the length-n factors whose reversal is
      absent; F(w,n) is reversal-closed exactly when it is 0.
    - pal: the new Eertree node, if any, has the length of the new lps.
    - sw: the cores of the new switches come from _new_cores, given m,
      as in word_profile.
    - B2's fibres: lpps(u) of a core u is the suffix link of u's node, so
      the cores of one fibre share (|u|, link node).

    The factor set holds every nonempty factor as a string, O(|w|^2)
    characters, so this serves the short words of a sweep; word_profile
    serves the rest.
    """

    __slots__ = (
        "q", "tree", "words", "factors", "fac", "pal", "sw", "unpaired",
        "switches", "fibres", "undo",
    )

    def __init__(self, q: int) -> None:
        self.q = q
        self.tree = Eertree()
        self.words = [""]  # words[i] is the first i letters, packed as chars
        self.factors: set[str] = set()  # every nonempty factor
        self.fac, self.pal, self.sw, self.unpaired = [1], [1], [0], [0]
        self.switches: dict[int, int] = {}  # core node -> its distinct switches
        self.fibres: dict[tuple, int] = {}  # (|u|, lpps node) -> its cores
        self.undo: list[tuple] = []  # per push: (m, node created, core nodes)

    def __len__(self) -> int:
        return len(self.undo)

    def push(self, c: int) -> None:
        """Append the symbol c."""
        s = self.words[-1] + chr(c)
        L = len(s)
        factors, fac, unpaired, sw = self.factors, self.fac, self.unpaired, self.sw
        fac.append(0)
        unpaired.append(0)
        self.pal.append(0)
        sw.append(0)
        m = 0
        for n in range(L, 0, -1):
            t = s[L - n :]
            if t in factors:
                m = n
                break
            factors.add(t)
            fac[n] += 1
            r = t[::-1]
            if r != t:
                unpaired[n] += -1 if r in factors else 1
        tree = self.tree
        length, link = tree.node_length, tree.suffix_link
        switches = self.switches
        cores = _new_cores(tree, s, L - 1, m)
        for x in cores:
            n = length(x)
            sw[n + 2] += 1
            count = switches.get(x, 0)
            switches[x] = count + 1
            if not count:
                key = (n, link(x))
                self.fibres[key] = self.fibres.get(key, 0) + 1
        created = tree.append(c)
        if created:
            self.pal[length(tree.last_node())] += 1
        self.undo.append((m, created, cores))
        self.words.append(s)

    def pop(self) -> None:
        """Undo the latest push."""
        m, created, cores = self.undo.pop()
        s = self.words.pop()
        tree = self.tree
        length, link = tree.node_length, tree.suffix_link
        if created:
            self.pal[length(tree.last_node())] -= 1
        tree.pop()
        switches, sw = self.switches, self.sw
        for x in cores:
            n = length(x)
            sw[n + 2] -= 1
            count = switches[x] - 1
            if count:
                switches[x] = count
            else:
                del switches[x]
                key = (n, link(x))
                if self.fibres[key] == 1:
                    del self.fibres[key]
                else:
                    self.fibres[key] -= 1
        factors, fac, unpaired = self.factors, self.fac, self.unpaired
        L = len(s)
        for n in range(m + 1, L + 1):
            t = s[L - n :]
            factors.remove(t)
            fac[n] -= 1
            r = t[::-1]
            if r != t:
                unpaired[n] += 1 if r in factors else -1
        fac.pop()
        unpaired.pop()
        self.pal.pop()
        sw.pop()

    def closure_profile(self, c: str) -> WordProfile:
        """The profile of c, the palindromic closure of the word, less switches.

        The carried Eertree and palindrome counts hold the word already, so
        _closure_profile extends them by the letters c adds only, which
        are popped back off the tree.
        """
        tree = self.tree
        added = len(c) - len(tree)
        profile = _closure_profile(c, self.q, tree, self.pal)
        for _ in range(added):
            tree.pop()
        return profile


def _require_rich(w: Word, force: bool) -> bool:
    """The covered flag of w, a word that is not rich: False if forced, else raise."""
    if force:
        return False
    raise RichnessRequiredError(
        f"word {w.text!r} is not rich; pass force=True to evaluate anyway"
    )


def _require_closed(profile: WordProfile, n: int) -> None:
    if n <= 0:
        raise ValueError("needs n > 0")
    if len(profile.word) < n + 1:
        raise ValueError(f"needs |w| >= {n + 1}")
    if not profile.closed[n + 1]:
        raise ClosureRequiredError(
            f"factors of length {n + 1} of {profile.word.text!r} "
            "are not closed under reversal"
        )


def _decide_log(lhs: int, rhs_log2: float, b: _Bound, p, n: int) -> bool:
    """lhs <= rhs = b.rhs(p, n), a log-domain value of float log2 rhs_log2.

    Past the float margin, lhs - addend (a pass unless positive) and the
    closed form built again from b.rhs are compared on _lg_bracket's
    brackets, p doubling from 64 up to _BRACKET_CAP bits.
    """
    if lhs <= 0 or math.log2(lhs) <= rhs_log2 - MARGIN:
        return True
    f = b.rhs(p, n).form
    x = lhs - f.addend
    if x <= 0:
        return True
    prec = 64
    while prec <= _BRACKET_CAP:
        (x0, x1), (n0, n1), (d0, d1), (a0, a1), (b0, b1) = (
            _lg_bracket(m, prec) for m in (x, f.c_num, f.c_den, f.a, f.b)
        )
        # each side's log2 times k_den * 2^(2 prec), between integers
        if f.k_den * x1 << prec <= (f.k_den * (n0 - d1) << prec) + f.k_num * a0 * b0:
            return True
        if f.k_den * x0 << prec > (f.k_den * (n1 - d0) << prec) + f.k_num * a1 * b1:
            return False
        prec *= 2
    raise UndecidedComparisonError(
        f"{b.bound_id} at n={n}: lhs={lhs} vs rhs undecided at {_BRACKET_CAP} bits"
    )


def _lg_bracket(m: int, p: int) -> tuple[int, int]:
    """Integers lo <= 2^p * log2(m) <= hi for an integer m >= 1, equal when
    m is a power of two.

    Each squaring of m's mantissa y in [1, 2) gives the next bit of
    log2(y), 1 when y^2 >= 2, which then halves y^2.  y runs in fixed point
    rounded down, then up, each run on its side of the true y under the
    same bits: the first run's bits bound 2^p * log2(y) from below, its y
    being >= 1, and the second's from above once 1 is added where its y,
    at most 2, ends above 1 (y stays exactly 1 for a power of two).
    """
    e = m.bit_length() - 1
    bits = p + 16
    ends = []
    for sign in (1, -1):  # sign * (sign * v >> s): v / 2^s rounded down, up
        y, acc = sign * (sign * m << bits >> e), e
        for _ in range(p):
            y = sign * (sign * y * y >> bits)
            acc <<= 1
            if y >> bits + 1:
                y, acc = sign * (sign * y >> 1), acc + 1
        ends.append(acc + (sign < 0 and y > 1 << bits))
    return ends[0], ends[1]


def _slacks(lhs: Iterable[int], rhs: Iterable, rhs_log2: Iterable) -> list[float]:
    """log2(rhs) - log2(lhs) at each lhs > 0, with rhs_log2 where rhs is None."""
    log2 = math.log2
    return [
        (g if r is None else log2(r)) - log2(left)
        for left, r, g in zip(lhs, rhs, rhs_log2) if left
    ]


# ---------------------------------------------------------------- right-hand sides


# A right-hand side rhs in plain integers, all positive but k_num >= 0:
# log2(rhs - addend) = log2(c_num/c_den) + (k_num/k_den)*log2(a)*log2(b)
_Form = namedtuple("_Form", "c_num c_den k_num k_den a b addend", defaults=(0,))


class _Rhs(NamedTuple):
    """A closed-form right-hand side that may be too large to hold exactly."""

    exact: Optional[int]  # the value, when integral and at most EXACT_LOG2_CAP bits
    log2: float
    form: Optional[_Form]  # for decisions past the float margin; None in _RHS_MEMO


def _exact(f: _Form) -> Optional[int]:
    """f's value when it is c_num times an integral power of b, plus addend,
    of at most EXACT_LOG2_CAP bits by its float log2; else None."""
    e, r = divmod(f.k_num * (f.a.bit_length() - 1), f.k_den)  # k * lg a, if a = 2^i
    if f.a & (f.a - 1) or f.c_den != 1 or r:
        return None
    if math.log2(f.c_num) + e * math.log2(f.b) <= EXACT_LOG2_CAP:
        return f.c_num * f.b**e + f.addend
    return None


def _power_rhs(coeff: int, k: int, q: int, n: int) -> _Rhs:
    """coeff * (4*q^10*n)**(k*log2(n)), the closed form of B5, B6 and B7."""
    f, lg = _Form(coeff, 1, k, 1, n, 4 * q**10 * n), math.log2
    return _Rhs(_exact(f), lg(coeff) + k * lg(n) * (2 + 10 * lg(q) + lg(n)), f)


def _final_rhs(coeff: int, addend: int, q: int, n: int) -> _Rhs:
    """coeff * (8*q^10*n)**log2(2n) + addend, the closed form of B10 and B11."""
    f = _Form(coeff, 1, 1, 1, 2 * n, 8 * q**10 * n, addend)
    t = math.log2(coeff) + math.log2(2 * n) * math.log2(f.b)
    # fold in the small additive term; beyond float range it vanishes anyway
    log2 = t + math.log1p(addend * 2.0**-t) / math.log(2) if t <= 1020 else t
    return _Rhs(_exact(f), log2, f)


def _ceil_product_rhs(n: int) -> _Rhs:
    """(2*sqrt(n))**log2(n) = n**(1 + log2(n)/2), exact when n = 4^t."""
    f, ln = _Form(n, 1, 1, 2, n, n), math.log2(n)
    return _Rhs(_exact(f), ln * (1 + ln / 2), f)


def _ceil_product(n: int) -> int:
    """prod_{j=1..floor(log2 n)} ceil(n/2^j)."""
    lhs = 1
    for j in range(1, n.bit_length()):
        lhs *= (n + (1 << j) - 1) >> j
    return lhs


# ---------------------------------------------------------------- the table


@dataclass(frozen=True)
class _Bound:
    """One inequality: where it applies, its two sides, and its report text.

    Both sides come as columns: lhs(p, ns) and rhs(p, ns) list them at each
    order in ns, read straight from p's per-length arrays.  A right-hand
    side that reads only q and n (by_order) is given one order at a time,
    rhs(p, n), and its values are kept in _RHS_MEMO instead.
    """

    bound_id: str
    citation: str
    lhs: Optional[Callable]  # (p, ns) -> list[int]; None for B2's lpps fibres
    rhs: Callable  # (p, ns) -> list[int]; by_order: (p, n) -> int or _Rhs
    detail: Callable  # (profile, n, lhs, rhs, r) -> str
    min_n: int = 1  # smallest admissible order
    domain: Optional[str] = None  # error for an explicit order below min_n
    rich: bool = True  # proved for rich words only
    closed: bool = False  # needs |w| >= n+1 and F(w,n+1) closed under reversal
    # rhs reads only q and n: computed once per (q, n) in a process
    by_order: bool = False
    # attach the equality verdict on rich words; only with a column rhs,
    # the one that _judge compares for equality
    equality: bool = False
    # the profile fields that lhs, rhs, orders and detail read, besides q,
    # rich and word; a sweep folds b once per distinct (rich, *reads)
    reads: tuple[str, ...] = ()


def _log_detail(p, n, lhs, rhs, r):
    return f"log2(rhs)={rhs.log2:.6g}"


def _approx_log_detail(p, n, lhs, rhs, r):
    return f"log2(rhs)~{rhs.log2:.6g}"


# left-hand sides that several bounds share
_PAL = lambda p, ns: [p.pal[n] for n in ns]  # noqa: E731
_FAC = lambda p, ns: [p.fac[n] for n in ns]  # noqa: E731
_GAMMA_MAX = lambda p, ns: [p.gamma_max[n] for n in ns]  # noqa: E731

_TABLE = (
    _Bound(
        "B1", "pal(n) <= 2*switch(n) + pal(n-2)",
        lhs=_PAL,
        rhs=lambda p, ns: [2 * p.sw[n] + p.pal[n - 2] for n in ns],
        detail=lambda p, n, lhs, rhs, r: (
            f"2*{p.sw[n]}+{p.pal[n - 2]}={rhs} >= {lhs}"
        ),
        min_n=3, domain="B1 needs n > 2",
        reads=("pal", "sw"),
    ),
    _Bound(
        "B2", "|cores of length n with lpps r| <= q(q-1)",
        lhs=None,
        rhs=lambda p, n: p.q * (p.q - 1),
        detail=lambda p, n, lhs, rhs, r: f"r={Word(r, p.q).text!r}: {lhs} <= {rhs}",
        domain="B2 needs n > 0", by_order=True,
        reads=("fibres",),
    ),
    _Bound(
        "B3", "pal(n) <= (q+1)*n*maxswitch(n)",
        lhs=_PAL,
        rhs=lambda p, ns: [(p.q + 1) * n * p.gamma_max[n] for n in ns],
        detail=lambda p, n, lhs, rhs, r: (
            f"({p.q}+1)*{n}*{p.gamma_max[n]}={rhs} >= {lhs}"
        ),
        domain="B3 needs n > 0",
        reads=("pal", "gamma_max"),
    ),
    _Bound(
        "B4", "maxswitch(n) <= q^5*ceil(n/2)^2*maxswitch(ceil(n/2))",
        lhs=_GAMMA_MAX,
        rhs=lambda p, ns: [
            p.q**5 * ((n + 1) // 2) ** 2 * p.gamma_max[(n + 1) // 2] for n in ns
        ],
        detail=lambda p, n, lhs, rhs, r: (
            f"q^5*{(n + 1) // 2}^2*{p.gamma_max[(n + 1) // 2]}={rhs} >= {lhs}"
        ),
        domain="B4 needs n > 0",
        reads=("gamma_max",),
    ),
    _Bound(
        "B5", "maxswitch(n) <= (4*q^10*n)^log2(n)",
        lhs=_GAMMA_MAX,
        rhs=lambda p, n: _power_rhs(1, 1, p.q, n),
        detail=_log_detail,
        domain="B5 needs n > 0", by_order=True,
        reads=("gamma_max",),
    ),
    _Bound(
        "B6", "pal(n) <= (q+1)*n*(4*q^10*n)^log2(n)",
        lhs=_PAL,
        rhs=lambda p, n: _power_rhs((p.q + 1) * n, 1, p.q, n),
        detail=_log_detail,
        domain="B6 needs n > 0", by_order=True,
        reads=("pal",),
    ),
    _Bound(
        "B7", "fac(n) <= (q+1)^2*n^4*(4*q^10*n)^(2*log2(n))",
        lhs=_FAC,
        rhs=lambda p, n: _power_rhs((p.q + 1) ** 2 * n**4, 2, p.q, n),
        detail=_log_detail,
        domain="B7 needs n > 0", by_order=True,
        reads=("fac",),
    ),
    _Bound(
        "B8", "pal(n)+pal(n+1) <= fac(n+1)-fac(n)+2 (equality on rich words)",
        lhs=lambda p, ns: [p.pal[n] + p.pal[n + 1] for n in ns],
        rhs=lambda p, ns: [p.fac[n + 1] - p.fac[n] + 2 for n in ns],
        detail=lambda p, n, lhs, rhs, r: (
            f"{p.pal[n]}+{p.pal[n + 1]} {'=' if lhs == rhs else '<='} "
            f"{p.fac[n + 1]}-{p.fac[n]}+2"
        ),
        rich=False, closed=True, equality=True,
        reads=("fac", "pal", "closed"),
    ),
    _Bound(
        "B9", "fac(n) <= 2(n-1)*maxpal(n) - 2(n-1) + q",
        lhs=_FAC,
        rhs=lambda p, ns: [2 * (n - 1) * p.pal_max[n] - 2 * (n - 1) + p.q for n in ns],
        detail=lambda p, n, lhs, rhs, r: (
            f"{lhs} <= 2*{n - 1}*{p.pal_max[n]} - 2*{n - 1} + {p.q} = {rhs}"
        ),
        closed=True,
        reads=("fac", "pal_max", "closed"),
    ),
    _Bound(
        "B10", "fac(n) <= 2(2n-1)*(q+1)*2n*(8*q^10*n)^log2(2n) - 2(2n-1) + q",
        lhs=_FAC,
        rhs=lambda p, n: _final_rhs(
            2 * (2 * n - 1) * (p.q + 1) * 2 * n, p.q - 2 * (2 * n - 1), p.q, n
        ),
        detail=_approx_log_detail,
        domain="B10/B11 need n > 0", by_order=True,
        reads=("fac",),
    ),
    _Bound(
        "B11", "fac(n) <= (q+1)*8*n^2*(8*q^10*n)^log2(2n) + q",
        lhs=_FAC,
        rhs=lambda p, n: _final_rhs((p.q + 1) * 8 * n**2, p.q, p.q, n),
        detail=_approx_log_detail,
        domain="B10/B11 need n > 0", by_order=True,
        reads=("fac",),
    ),
    _Bound(
        "B12", "prod_{j<=floor(log2 n)} ceil(n/2^j) <= (2*sqrt(n))^log2(n)",
        lhs=lambda p, ns: [_ceil_product(n) for n in ns],
        rhs=lambda p, n: _ceil_product_rhs(n),
        detail=lambda p, n, lhs, rhs, r: (
            f"k={n.bit_length() - 1}, lhs={lhs if lhs < 10**24 else 'big'}"
        ),
        domain="B12 needs n >= 1", rich=False, by_order=True,
    ),
)
_BOUNDS = {b.bound_id: b for b in _TABLE}


def _require_known(bound_ids: Sequence[str]) -> tuple[str, ...]:
    """bound_ids once each, in BOUND_IDS order; raises on an id not in BOUND_IDS."""
    wanted = set(bound_ids)
    unknown = wanted - set(BOUND_IDS)
    if unknown:
        raise ValueError(f"unknown bound ids: {sorted(unknown)}")
    return tuple(b for b in BOUND_IDS if b in wanted)


# Report order when every admissible order is checked: bound by bound, except
# that B10 and B11 alternate at each n.
_WORD_GROUPS = tuple((b,) for b in BOUND_IDS[:9]) + (("B10", "B11"),)
# On a palindromic closure, B8 and B9 alternate at each n.
_CLOSURE_GROUP = ("B8", "B9")


def _orders(b: _Bound, p, L: int) -> Sequence[int]:
    """Every order at which b applies to p's word, of length L.

    A bound that reads no word (B12) runs at orders 1..max(L, 1).
    """
    if b.closed:
        closed = p.closed
        return [n for n in range(b.min_n, L) if closed[n + 1]]
    return range(b.min_n, (L if b.reads else max(L, 1)) + 1)


def _admissible(
    bound_ids: Sequence[str], p: WordProfile, ns: Sequence[int], skipped: dict
) -> list[str]:
    """The bounds that apply to p's word at every order in ns.

    Each other bound goes into skipped with the reason _explicit gives.
    Richness is not an order condition, so it is left to the check itself.
    """
    kept = []
    for bound_id in bound_ids:
        try:
            _explicit(p, (bound_id,), ns, True)
        except ValueError as exc:
            skipped[bound_id] = str(exc)
        else:
            kept.append(bound_id)
    return kept


class _AnyOrder:
    """A per-length array read at any order: past its end it holds past."""

    __slots__ = ("array", "past")

    def __init__(self, array: Sequence, past) -> None:
        self.array, self.past = array, past

    def __getitem__(self, n: int):
        try:
            return self.array[n]
        except IndexError:
            return self.past


def _beyond(p: WordProfile) -> WordProfile:
    """p with its per-length arrays read at any order, past |w| too.

    The table's columns and detail text index the arrays directly; this
    view serves explicit orders past |w|, where there is no factor,
    palindrome, switch or core and the running maxima keep their value at
    |w|.  No bound reads closed there: _require_closed checks |w| first.
    """
    return replace(
        p, fac=_AnyOrder(p.fac, 0), pal=_AnyOrder(p.pal, 0),
        sw=_AnyOrder(p.sw, 0), gamma_max=_AnyOrder(p.gamma_max, p.gamma_max[-1]),
        pal_max=_AnyOrder(p.pal_max, p.pal_max[-1]), fibres=_AnyOrder(p.fibres, ()),
    )


# The (q, n)-only state met so far in this process, as columns whose entry
# n is for order n (entry 0 is None).  Each key starts with a bound's rhs
# callable, so a bound that dataclasses.replace gave a new rhs never reads
# another's columns:
# - (b.rhs, q): b.rhs(p, n) at that q, its closed form dropped (form=None),
#   so a decision past the float margin builds b.rhs(p, n) again;
#   B12 reads no q, and its q is None;
# - (b.rhs, q, b.detail): the report detail of B5-B7, B10 and B11, a text
#   that reads only that right-hand side (_VALUE_DETAILS);
# - (b.rhs, None, BoundReport): B12's reports, which read n alone, so
#   every word shares the same frozen objects.
# The columns grow to the longest word a caller walks; an explicit order
# never reads or grows them.
_RHS_MEMO: dict[tuple, list] = {}

# report details that read only the (q, n)-only right-hand side
_VALUE_DETAILS = (_log_detail, _approx_log_detail)


def _memo(key: tuple, top: int, entries: Callable) -> list:
    """The _RHS_MEMO column under key, holding orders 0..top at least;
    entries(ns) lists its entries at the orders ns it lacks."""
    column = _RHS_MEMO.get(key)
    if column is None:
        column = _RHS_MEMO[key] = [None]
    if len(column) <= top:
        column += entries(range(len(column), top + 1))
    return column


def _by_order(b: _Bound, p, ns: Iterable[int]) -> list:
    """b.rhs(p, n) at each order in ns, numbers only (form=None): the memo
    keeps no closed form, which _decide_log builds again where it needs one."""
    return [
        v if v.__class__ is int else _Rhs(v.exact, v.log2, None)
        for v in map(b.rhs, repeat(p), ns)
    ]


def _column(b: _Bound, p, top: int) -> list:
    """b's (q, n)-only right-hand sides at orders 0..top, at least (see _RHS_MEMO)."""
    key = (b.rhs, p.q if b.reads else None)  # B12 reads no q either
    return _memo(key, top, lambda ns: _by_order(b, p, ns))


def _judge(
    b: _Bound, p, orders: Sequence[int], lhs: Sequence[int], force=False, explicit=False
) -> tuple:
    """The verdict step: b's right-hand sides at orders, and each lhs <= rhs.

    p is the profile or sweep signature that b reads, lhs b's left-hand
    column.  Returns (covered, values, rhs, rhs_log2, holds, equal): the
    richness check (RichnessRequiredError unless forced); then per order
    the right-hand side (an int or an _Rhs, for the detail text), the
    report fields rhs, rhs_log2, holds (an integer comparison, or
    _decide_log for a log-domain value, which past the float margin
    rebuilds the closed form from b.rhs) and equality (lhs == rhs where b
    attaches it on p's word, else equal is None).  A (q, n)-only right-hand side comes from
    _RHS_MEMO, or afresh at explicit orders.  rhs_log2, holds and equal
    may be iterators, to be read once, in step with orders.
    """
    covered = not b.rich or p.rich or _require_rich(p.word, force)
    if not b.by_order:
        values = rights = b.rhs(p, orders)
        logs = repeat(None)
        holds = map(operator.le, lhs, values)
    else:
        values = (_by_order(b, p, orders) if explicit
                  else list(map(_column(b, p, orders[-1]).__getitem__, orders)))
        rights, logs, holds = [], [], []
        for left, v, n in zip(lhs, values, orders):
            e = v if v.__class__ is int else v.exact
            g = None if e is not None else v.log2
            rights.append(e)
            logs.append(g)
            holds.append(left <= e if g is None else _decide_log(left, g, b, p, n))
    equal = map(operator.eq, lhs, values) if b.equality and p.rich else None
    return covered, values, rights, logs, holds, equal


def _bound_reports(
    b: _Bound, p, orders: Sequence[int], force: bool, explicit: bool = False
) -> list[BoundReport]:
    """b's reports on p's word at each order, in order, built from _judge's
    output, which runs only if b has a report.

    Every bound but B2 gives one report per order, B2 one per lpps value r
    of the order's switch cores.  A detail text in _VALUE_DETAILS and B12's
    reports whole come from _RHS_MEMO, except at explicit orders, checked
    already: the caller's own, at which B2 with no switch cores still
    reports the empty value, or those that B12's memo column lacks.
    """
    if b.reads:
        L, q = len(p.word.chars), p.q
    elif explicit:
        L = q = None  # B12 reads no word
    else:
        shared = _memo(
            (b.rhs, None, BoundReport), orders[-1],
            lambda ns: _bound_reports(b, p, ns, force, True),
        )
        return [shared[n] for n in orders]
    if b.lhs is not None:
        if not orders:
            return []
        lhs, rs = b.lhs(p, orders), repeat(None)
    else:
        rows = [(n, left, r) for n in orders for r, left in p.fibres[n]]
        if not rows:
            if not explicit:
                return []
            rows = [(orders[0], 0, "")]
        orders, lhs, rs = zip(*rows)
    covered, values, rights, logs, holds, equal = _judge(b, p, orders, lhs, force, explicit)
    detail = b.detail
    if b.by_order and not explicit and detail in _VALUE_DETAILS:
        column = _column(b, p, orders[-1])
        texts = _memo(
            (b.rhs, q, detail), orders[-1],
            lambda ns: [detail(p, n, None, column[n], None) for n in ns],
        )
        details = map(texts.__getitem__, orders)
    else:
        details = map(detail, repeat(p), orders, lhs, values, rs)
    return list(map(
        BoundReport, repeat(b.bound_id), repeat(L), orders, repeat(q), lhs, rights, logs,
        holds, repeat(None) if equal is None else equal, repeat(covered),
        repeat(b.citation), details,
    ))


def _explicit(
    p: Optional[WordProfile], group: Sequence[str], ns: Sequence[int], force: bool
) -> Optional[WordProfile]:
    """p, read past |w| if some order in ns lies there, once group is checked at ns.

    Raises the first error an order-by-order walk of group would meet: an
    order where a bound does not apply, or a word that is not rich for a
    bound proved for rich words only (unless forced).
    """
    for n in ns:
        for bound_id in group:
            b = _BOUNDS[bound_id]
            if b.domain is not None and n < b.min_n:
                raise ValueError(b.domain)
            if b.closed:
                _require_closed(p, n)
            if b.rich and not p.rich:
                _require_rich(p.word, force)
    if p is not None and ns and max(ns) > len(p.word.chars):
        return _beyond(p)
    return p


def _rows(
    p: Optional[WordProfile],
    groups: Sequence[Sequence[str]],
    ns: Optional[Iterable[int]],
    force: bool,
) -> Iterator[BoundReport]:
    """The reports of p's word, group by group, in report order.

    ns=None walks each group's admissible orders, and the group's bounds
    alternate order by order (a group of several holds no B2, so each of
    its bounds has one report per order).  Explicit orders are checked
    first (see _explicit), so one where a bound does not apply raises
    before any report of its group; then each order gives its reports
    bound by bound.  p may be None for a group that reads no word (B12)
    at explicit orders.
    """
    if ns is not None:
        ns = list(ns)
    for group in groups:
        if ns is None:
            bs = [_BOUNDS[bound_id] for bound_id in group]
            orders = _orders(bs[0], p, len(p.word))
            sides = [_bound_reports(b, p, orders, force) for b in bs]
            if len(sides) == 1:
                yield from sides[0]
            else:
                for at_n in zip(*sides):
                    yield from at_n
        else:
            at = _explicit(p, group, ns, force)
            for n in ns:
                for bound_id in group:
                    yield from _bound_reports(_BOUNDS[bound_id], at, (n,), force, True)


def _word_rows(
    w: Word,
    bound_ids: Sequence[str],
    ns: Optional[Sequence[int]],
    force: bool,
    include_closure: bool,
    skipped: Optional[dict] = None,
) -> Iterator[BoundReport]:
    """The reports of evaluate_word(w, bound_ids, ns, force, include_closure).

    With skipped, a dict, and explicit orders, a bound that does not apply
    to w at ns is dropped and recorded in skipped with the reason before
    any report is built, and the closure's B8/B9 run wherever they apply
    to the closure, whether or not they apply to w.
    """
    bound_ids = _require_known(bound_ids)
    profile, tree, pal = _profile_run(w)
    closure_ids = [b for b in _CLOSURE_GROUP if b in bound_ids]
    if skipped is not None:
        bound_ids = _admissible(bound_ids, profile, ns, skipped)
    if ns is None:
        wanted = set(bound_ids)
        groups = [[b for b in g if b in wanted] for g in _WORD_GROUPS]
        groups = [g for g in groups if g]
    else:
        groups = [[b for b in bound_ids if b != "B12"]]
    parts = [_rows(profile, groups, ns, force)]
    if "B12" in bound_ids:
        parts.append(_rows(profile, [("B12",)], ns, force))
    if include_closure and closure_ids:
        closure = _closure_chars(w.chars, profile.lps_length)
        if closure != w.chars:
            cp = _closure_profile(closure, profile.q, tree, pal)
            if skipped is not None:
                closure_ids = _admissible(closure_ids, cp, ns, {})
            # none left: an order past the closure, which has no switch
            # arrays for _beyond to read
            if closure_ids:
                parts.append(_rows(cp, [closure_ids], ns, force))
    return chain.from_iterable(parts)


def _collected(rows: Callable[[], Iterable]) -> list:
    """list(rows()), rows called with the cyclic garbage collector paused.

    The pause relies on reports being acyclic: a report, or its JSON dict,
    holds only str, int, float, bool and None, so reference counting frees
    all that a batch drops.  It changes no result, and on every exit the
    collector is on exactly when it was on at entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(rows())
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------- check_*
# Each builds its reports through _rows at its one explicit order, as
# evaluate_word(w, ids, [n]) does.


def check_switch_palindrome_bound(w: Word, n: int, force: bool = False) -> BoundReport:
    """B1: pal(n) <= 2*|switches(n)| + pal(n-2) on rich words, n > 2."""
    return next(_rows(word_profile(w), [("B1",)], (n,), force))


def check_upsilon_bound(w: Word, n: int, r: Word, force: bool = False) -> BoundReport:
    """B2: at most q(q-1) length-n switch cores share one lpps value r, n > 0."""
    p = word_profile(w)
    # B2's one report at n is then r's fibre, of size 0 if no core has r;
    # at an order where B2 does not apply, _rows raises before reading it
    size = dict(_AnyOrder(p.fibres, ())[n]).get(r.chars, 0)
    one = replace(p, fibres=_AnyOrder((), ((r.chars, size),)))
    return next(_rows(one, [("B2",)], (n,), force))


def check_gamma_palindrome_bound(w: Word, n: int, force: bool = False) -> BoundReport:
    """B3: pal(n) <= (q+1)*n*maxswitch(n) on rich words, n > 0."""
    return next(_rows(word_profile(w), [("B3",)], (n,), force))


def check_gamma_recursion(w: Word, n: int, force: bool = False) -> BoundReport:
    """B4: maxswitch(n) <= q^5*ceil(n/2)^2*maxswitch(ceil(n/2)), n > 0."""
    return next(_rows(word_profile(w), [("B4",)], (n,), force))


def check_gamma_closed_form(w: Word, n: int, force: bool = False) -> BoundReport:
    """B5: maxswitch(n) <= (4*q^10*n)**log2(n), n > 0."""
    return next(_rows(word_profile(w), [("B5",)], (n,), force))


def check_palindromic_complexity_bound(
    w: Word, n: int, force: bool = False
) -> BoundReport:
    """B6: pal(n) <= (q+1)*n*(4*q^10*n)**log2(n), n > 0."""
    return next(_rows(word_profile(w), [("B6",)], (n,), force))


def check_factor_complexity_bound(w: Word, n: int, force: bool = False) -> BoundReport:
    """B7: fac(n) <= (q+1)^2*n^4*(4*q^10*n)**(2*log2(n)), n > 0."""
    return next(_rows(word_profile(w), [("B7",)], (n,), force))


def check_reversal_inequality(w: Word, n: int) -> BoundReport:
    """B8: pal(n)+pal(n+1) <= fac(n+1)-fac(n)+2 when F(w,n+1) is reversal-closed.

    Equality verdict is attached when the word is rich (it then always holds).
    """
    return next(_rows(word_profile(w), [("B8",)], (n,), False))


def check_factor_vs_palindrome_bound(
    w: Word, n: int, force: bool = False
) -> BoundReport:
    """B9: fac(n) <= 2(n-1)*maxpal(n) - 2(n-1) + q under B8's preconditions plus richness."""
    return next(_rows(word_profile(w), [("B9",)], (n,), force))


def check_final_bounds(
    w: Word, n: int, force: bool = False
) -> tuple[BoundReport, BoundReport]:
    """B10 and B11: factor-complexity bounds free of closure preconditions.

    B10: fac(n) <= 2(2n-1)*(q+1)*2n*(8*q^10*n)^log2(2n) - 2(2n-1) + q
    B11: fac(n) <= (q+1)*8*n^2*(8*q^10*n)^log2(2n) + q
    """
    r10, r11 = _rows(word_profile(w), [("B10", "B11")], (n,), force)
    return r10, r11


def check_ceil_product_lemma(n: int) -> BoundReport:
    """B12: prod_{j=1..floor(log2 n)} ceil(n/2^j) <= (2*sqrt(n))^log2(n)."""
    return next(_rows(None, [("B12",)], (n,), False))


# ---------------------------------------------------------------- diagnostics


def diagnostic_trim_gamma_partition(
    w: Word, n: int, force: bool = False
) -> tuple[frozenset[Word], frozenset[Word]]:
    """Split length-n switch cores by whether lpps covers half the core.

    Returns (long_suffix_cores, short_suffix_cores): cores v with
    2*|lpps(v)| >= |v| and the rest.  The two sets partition the cores.
    """
    if n <= 2:
        raise ValueError("needs n > 2")
    if not is_rich(w):
        _require_rich(w, force)
    s, q = w.chars, w.alphabet_size
    long_side: set[Word] = set()
    short_side: set[Word] = set()
    for i, lpps_length in _switch_table(s).get(n, ()):
        u = Word._trusted(s[i - n + 2 : i], q)
        (long_side if 2 * lpps_length >= len(u) else short_side).add(u)
    return frozenset(long_side), frozenset(short_side)


def evaluate_word(
    w: Word,
    bound_ids: Sequence[str] = BOUND_IDS,
    ns: Optional[Sequence[int]] = None,
    force: bool = False,
    include_closure: bool = False,
) -> list[BoundReport]:
    """BoundReports for one word, optionally restricted to given n values.

    include_closure additionally runs B8/B9 on the palindromic closure,
    whose factor sets are reversal-closed at every order.
    """
    return _collected(lambda: _word_rows(w, bound_ids, ns, force, include_closure))


# ---------------------------------------------------------------- sweep


@dataclass(frozen=True)
class SweepSummary:
    """Aggregated outcome of checking bounds over a whole rich corpus."""

    q: int
    max_len: int
    bound_ids: tuple[str, ...]
    include_closure: bool
    words: int
    reports: int
    violations: int
    per_bound: dict
    violating: tuple[BoundReport, ...]
    elapsed_seconds: float

    def to_json_dict(self) -> dict:
        return json_fields(self)


_KEYS = (
    "reports", "passes", "violations", "equalities", "uncovered",
    "min_slack_log2", "max_slack_log2",
)
_EMPTY = (0, 0, 0, 0, 0, None, None)  # the unit of no reports
# A unit, one bound's reports folded, is its counts and slack range in
# _KEYS order; it violates exactly when its violation count, unit[2], is
# positive.


def _merge(a: tuple, b: tuple, weight: int) -> tuple:
    """Unit a plus weight times unit b's counts, its slack range widened by b's."""
    ends = [s for s in (a[5], a[6], b[5], b[6]) if s is not None]
    return (*[x + weight * y for x, y in zip(a[:5], b[:5])],
            min(ends, default=None), max(ends, default=None))


def _fold_columns(b: _Bound, p, L: int) -> tuple:
    """b's reports on a word of length L folded into a unit, building none.

    p holds the fields b reads, the per-length arrays of the word, as
    WordProfile names them, except that a B2 "fibres" is the sorted (n,
    size) pairs of its lpps fibres; B12 reads none, and p may be None.
    The counts come from _judge, as the reports' verdicts do, and the
    slacks from _slacks, as BoundReport.slack_log2 does.
    """
    if b.lhs is not None:
        ns = _orders(b, p, L)
        lhs = b.lhs(p, ns)
    else:
        ns = [n for n, _ in p.fibres]
        lhs = [size for _, size in p.fibres]
    if not ns:
        return _EMPTY
    # unforced, a word that is not covered raises instead
    _, _, rights, logs, holds, equal = _judge(b, p, ns, lhs)
    reports, passes, slacks = len(lhs), sum(holds), _slacks(lhs, rights, logs)
    return (reports, passes, reports - passes, 0 if equal is None else sum(equal), 0,
            min(slacks, default=None), max(slacks, default=None))


# Once the signature memo of one _sweep_below call holds this many
# signatures, it is merged into the per-bound units and cleared, with the
# closure memo.  That bounds the memory of a long unsharded sweep, at the
# cost of folding again the signatures that recur after a flush (q2 <= 18
# at jobs=1: 126,958 folds become 313,686).  No shard of the q2 <= 20
# frontier sweep holds more than 27,082.  The merge is exact, so the
# result does not depend on the cap.  Running the prefix shards one after
# another at jobs=1 bounds the memory too, but each shard builds its memo
# anew (and, when that was measured, its right-hand side columns too),
# which doubled a q2 <= 9 sweep's time.
_UNITS_CAP = 1 << 16


def _sweep_below(args: tuple) -> tuple[int, dict, dict]:
    """sweep_rich's worker for _sharded: fold every canonical extension of a prefix.

    Each canonical word stands for its letter orbit, every renaming of its
    k letters into q, so it carries the weight math.perm(q, k).  Returns the
    number of words so covered, one unit per bound and, by length, the
    first cap violating canonical words (as symbol tuples).

    A _CarriedProfile follows the walk's preorder: at each word it pops
    back to the word's parent and pushes the last letter.  A bound's
    reports on a word depend only on the profile fields the bound reads
    (its `reads`; q is fixed, every walked word is rich, and the length is
    the length of any field), so they are folded once per distinct
    signature (bound_id, fields) into a unit, and each word adds its
    weight to its signatures' totals.  The signatures are built from the
    carried arrays, and a new one is folded from them as columns
    (_fold_columns), with no report and no WordProfile built.  B2 reads
    its lpps fibres only through their sizes, so its signature is the
    sorted fibre sizes at each n.  Every unit, times its
    total, is merged into its bound's unit at the end, or sooner once
    _UNITS_CAP signatures are held.  Counts are integers and the slack
    range takes min and max over the same values, so the result equals a
    word-by-word fold exactly; a word violates exactly when one of its
    units does.  A closure's B8/B9 units are keyed on the closure's own
    profile (see _closure_profile), and the closure's units are memoised
    by its chars: the words that share a closure are all prefixes of it,
    so closures repeat often, and a repeat skips its profile.  The units
    and the closure memo live for this call only; the (q, n)-only
    right-hand sides come from _RHS_MEMO.
    """
    q, prefix, max_len, canonical, bound_ids, include_closure, cap = args
    weights = [math.perm(q, k) for k in range(q + 1)]
    if not bound_ids:
        # nothing reads a profile: count the words
        words = sum(weights[k] for _, k in _walk(q, prefix, max_len, canonical))
        return words, {}, {}
    kept: dict[int, list] = {n: [] for n in range(len(prefix), max_len + 1)}
    signed = [_BOUNDS[b] for b in bound_ids]
    reads = {f for b in signed for f in b.reads}
    # the fields of a signature: one value, or a tuple for several reads
    signing = {b.bound_id: operator.itemgetter(*b.reads) for b in signed}
    closure_bounds = [
        _BOUNDS[b] for b in _CLOSURE_GROUP if include_closure and b in bound_ids
    ]
    words = 0
    agg = dict.fromkeys(bound_ids, _EMPTY)
    units: dict[tuple, list] = {}  # signature -> [unit, total weight]
    closures: dict[str, list] = {}  # closure chars -> its [unit, total] entries

    def entries(p, fields, bs: Sequence[_Bound], L: int) -> list[list]:
        found = []
        for b in bs:
            key = (b.bound_id, signing[b.bound_id](fields))
            entry = units.get(key)
            if entry is None:
                if p is None:
                    p = SimpleNamespace(q=q, rich=True, **fields)
                entry = units[key] = [_fold_columns(b, p, L), 0]
            found.append(entry)
        return found

    def flush() -> None:
        for key, (unit, total) in units.items():
            agg[key[0]] = _merge(agg[key[0]], unit, total)
        units.clear()
        closures.clear()  # its entries are in units

    state = _CarriedProfile(q)
    depth = 0
    for symbols, k in _walk(q, prefix, max_len, canonical):
        if len(units) >= _UNITS_CAP:
            flush()
        # back to the parent of this word, then down to it
        length = len(symbols)
        while depth and depth >= length:
            state.pop()
            depth -= 1
        while depth < length:
            state.push(symbols[depth])
            depth += 1
        weight = weights[k]
        words += weight
        found = entries(None, {f: _CARRIED[f](state) for f in reads}, signed, length)
        if closure_bounds:
            s, tree = state.words[-1], state.tree
            c = _closure_chars(s, tree.node_length(tree.last_node()))
            if c != s:
                cs = closures.get(c)
                if cs is None:
                    cp = state.closure_profile(c)
                    cs = closures[c] = entries(cp, vars(cp), closure_bounds, len(c))
                found += cs
        violated = False
        for entry in found:
            entry[1] += weight
            if entry[0][2]:
                violated = True
        if violated:
            violators = kept[length]
            if len(violators) < cap:
                violators.append(tuple(symbols))
    flush()
    return words, agg, kept


def _violating_reports(
    kept: Sequence[tuple[int, ...]], q: int, bound_ids: Sequence[str],
    include_closure: bool, cap: int,
) -> list[BoundReport]:
    """The first cap violating reports of one length's words, in report order.

    kept holds the first cap violating canonical words of the length, in
    lexicographic order.  Renaming keeps every report's verdict, so the orbit
    of each violates too.  A word whose canonical form is not kept comes
    after cap violating words, which are all in the kept orbits.
    """
    # imported here: only a sweep that finds a violation merges orbits
    import heapq

    reports: list[BoundReport] = []
    for symbols in heapq.merge(*(_orbit(c, q) for c in kept)):
        if len(reports) >= cap:
            break
        w = Word.from_symbols(symbols, q)
        reports += _collected(lambda: (
            r for r in _word_rows(w, bound_ids, None, False, include_closure)
            if not r.holds
        ))
    return reports[:cap]


def sweep_rich(
    q: int,
    max_len: int,
    bound_ids: Sequence[str] = BOUND_IDS,
    include_closure: bool = True,
    jobs: int = 1,
    violation_cap: int = 50,
) -> SweepSummary:
    """Check the requested bounds on every rich word of length <= max_len.

    Every bound reads only counts that renaming letters leaves unchanged
    (factors, palindromes, switches, reversal closure, B2's lpps fibre
    sizes), and renaming commutes with palindromic closure.  So the sweep
    walks only canonical words and weights each with the size of its
    letter orbit.  A bound is folded into a unit (counts and slack range)
    once per distinct input signature, the fields of the profile it reads,
    from its two columns and without building its reports, and repeated
    closures are profiled once (see _sweep_below); the merged units equal
    a word-by-word fold exactly.  Reversal is not folded
    the same way: the closure of reverse(w) is not the reverse of w's
    closure.  A sweep with no word bound profiles no word.

    Work shards by canonical prefix; merged totals do not depend on jobs,
    and the violating reports come by word length, then in lexicographic
    order, as evaluate_word would give them, then the cap applies.  B12 is
    word-independent, so it runs once per n instead of once per word.
    """
    import time

    t0 = time.perf_counter()
    _check_alphabet(q)
    if max_len < 0:
        raise ValueError("length must be >= 0")
    ids = _require_known(bound_ids)
    word_bounds = tuple(b for b in ids if b != "B12")
    shards = _sharded(
        _sweep_below, q, max_len, True, jobs, DEFAULT_SHARD_PREFIX,
        word_bounds, include_closure, violation_cap,
    )
    units = dict.fromkeys(ids, _EMPTY)
    words = 0
    for w_count, agg, _ in shards:
        words += w_count
        for b in word_bounds:
            units[b] = _merge(units[b], agg[b], 1)
    violating: list[BoundReport] = []
    for n in range(max_len + 1):
        room = violation_cap - len(violating)
        # shards come in lexicographic order, so their words do too
        kept = [c for _, _, by_length in shards for c in by_length.get(n, ())]
        if kept and room > 0:
            violating += _violating_reports(
                kept[:room], q, word_bounds, include_closure, room
            )
    if "B12" in ids:
        top = max(max_len, 1)
        units["B12"] = _fold_columns(_BOUNDS["B12"], None, top)
        if units["B12"][2]:
            reports = _rows(None, [("B12",)], range(1, top + 1), False)
            violating += [r for r in reports if not r.holds]
    return SweepSummary(
        q=q,
        max_len=max_len,
        bound_ids=ids,
        include_closure=include_closure,
        words=words,
        reports=sum(unit[0] for unit in units.values()),
        violations=sum(unit[2] for unit in units.values()),
        per_bound={b: dict(zip(_KEYS, unit)) for b, unit in units.items()},
        violating=tuple(violating[:violation_cap]),
        elapsed_seconds=time.perf_counter() - t0,
    )
