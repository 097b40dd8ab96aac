"""Inequality suite over rich-word statistics.

Twelve checks (B1..B12) relate palindromic complexity, factor complexity,
switch counts and reversal closure.  Every check returns a BoundReport with
the exact left-hand side and either an exact big-integer right-hand side or
its base-2 logarithm when the value is astronomically large.

Comparison policy: the RHS is exact when its closed form is an integer
(integral exponent) and log2(RHS) <= 512; otherwise the comparison runs in
float64 log-domain with margin 1e-9, and anything inside the margin, or any
candidate violation, is re-decided at 200-bit precision so that a reported
violation is never a floating-point artifact.

Checks whose statement holds only for rich words reject non-rich input;
force=True evaluates anyway and marks the report as not covered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import mpmath

from .paltree import Eertree, lpps
from .structures import _switch_starts, palindromic_closure
from .words import Word

BOUND_IDS = (
    "B1", "B2", "B3", "B4", "B5", "B6",
    "B7", "B8", "B9", "B10", "B11", "B12",
)

MARGIN = 1e-9
EXACT_LOG2_CAP = 512
_ESCALATED_PREC = 200


class RichnessRequiredError(ValueError):
    """The inequality is proved for rich words only."""


class ClosureRequiredError(ValueError):
    """The factor set of order n+1 must be closed under reversal."""


@dataclass(frozen=True)
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

    @property
    def rhs_is_log(self) -> bool:
        return self.rhs is None

    def slack_log2(self) -> Optional[float]:
        """log2(rhs) - log2(lhs); None when lhs is 0."""
        if self.lhs == 0:
            return None
        r = self.rhs_log2 if self.rhs is None else math.log2(self.rhs)
        return r - math.log2(self.lhs)

    def to_json_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "word_length": self.word_length,
            "n": self.n,
            "q": self.q,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rhs_log2": self.rhs_log2,
            "rhs_is_log": self.rhs_is_log,
            "holds": self.holds,
            "equality": self.equality,
            "covered": self.covered,
            "citation": self.citation,
            "detail": self.detail,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "BoundReport":
        return cls(
            bound_id=d["bound_id"],
            word_length=d["word_length"],
            n=d["n"],
            q=d["q"],
            lhs=d["lhs"],
            rhs=d["rhs"],
            rhs_log2=d["rhs_log2"],
            holds=d["holds"],
            equality=d["equality"],
            covered=d["covered"],
            citation=d["citation"],
            detail=d["detail"],
        )


@dataclass(frozen=True)
class WordProfile:
    """Per-length statistics of one word, computed by word_profile."""

    word: Word
    q: int
    rich: bool
    fac: tuple[int, ...]        # fac[n] = |F(w,n)|, 0..|w|
    pal: tuple[int, ...]        # pal[n] = |F_p(w,n)|
    sw: tuple[int, ...]         # sw[n] = number of length-n switches
    gamma_max: tuple[int, ...]  # gamma_max[n] = max(1, max sw[i] for i<=n)
    pal_max: tuple[int, ...]    # pal_max[n] = max pal[j] for j<=n
    closed: tuple[bool, ...]    # closed[n] = F(w,n) stable under reversal
    cores: tuple[frozenset[str], ...]  # cores[n] = length-n switch cores (chars)

    def fac_at(self, n: int) -> int:
        return self.fac[n] if 0 <= n < len(self.fac) else (1 if n == 0 else 0)

    def pal_at(self, n: int) -> int:
        return self.pal[n] if 0 <= n < len(self.pal) else (1 if n == 0 else 0)

    def gamma_max_at(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative order")
        return self.gamma_max[min(n, len(self.gamma_max) - 1)]

    def pal_max_at(self, n: int) -> int:
        return self.pal_max[min(n, len(self.pal_max) - 1)]

    def closed_at(self, n: int) -> bool:
        # beyond |w| the factor set is empty, which is vacuously closed
        return self.closed[n] if 0 <= n < len(self.closed) else True

    def cores_at(self, n: int) -> frozenset[str]:
        return self.cores[n] if 0 <= n < len(self.cores) else frozenset()


def _suffix_automaton(s: str) -> tuple[list[int], list[int], list[dict]]:
    """State lengths, suffix links and transitions of the suffix automaton of s.

    State 0 is the root; every other state v stands for the factors of s
    with lengths length[link[v]]+1 .. length[v] that share one end set.
    """
    length, link, nxt = [0], [-1], [{}]
    last = 0
    for c in s:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        nxt.append({})
        p = last
        while p != -1 and c not in nxt[p]:
            nxt[p][c] = cur
            p = link[p]
        if p != -1:
            r = nxt[p][c]
            if length[p] + 1 == length[r]:
                link[cur] = r
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[r])
                nxt.append(nxt[r].copy())
                while p != -1 and nxt[p].get(c) == r:
                    nxt[p][c] = clone
                    p = link[p]
                link[r] = link[cur] = clone
        last = cur
    return length, link, nxt


def word_profile(w: Word) -> WordProfile:
    """Per-length statistics of w from four passes of O(|w|) steps each.

    fac: each suffix-automaton state adds 1 to every length it stands for.
    closed: F(w,n) is reversal-closed iff every length-n factor of
    reverse(w) occurs in w, read off the matching statistics of reverse(w)
    against the same automaton.  pal and rich: Eertree node lengths.
    sw and cores: one switch occurrence at most per palindrome centre.
    Hashing the distinct switch strings also costs the total length of the
    switch occurrences, O(|w|^2) characters at worst, all of it in C.
    """
    s = w.chars
    L = len(s)

    length, link, nxt = _suffix_automaton(s)
    delta = [0] * (L + 2)
    for v in range(1, len(length)):
        delta[length[link[v]] + 1] += 1
        delta[length[v] + 1] -= 1
    fac = [1] + [0] * L
    run = 0
    for n in range(1, L + 1):
        run += delta[n]
        fac[n] = run

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

    tree = Eertree()
    for c in w:
        tree.append(c)
    pal = [1] + [0] * L
    for node in range(2, tree.node_count):
        pal[tree.node_length(node)] += 1

    sw = [0] * (L + 1)
    cores = [frozenset()] * (L + 1)
    for m, starts in _switch_starts(s).items():
        sw[m] = len({s[i : i + m] for i in starts})
        cores[m - 2] = frozenset(s[i + 1 : i + m - 1] for i in starts)

    gmax = [1] * (L + 1)
    pmax = [1] * (L + 1)
    for n in range(1, L + 1):
        gmax[n] = max(gmax[n - 1], sw[n])
        pmax[n] = max(pmax[n - 1], pal[n])
    return WordProfile(
        word=w,
        q=w.alphabet_size,
        rich=tree.distinct_nonempty == L,
        fac=tuple(fac),
        pal=tuple(pal),
        sw=tuple(sw),
        gamma_max=tuple(gmax),
        pal_max=tuple(pmax),
        closed=tuple(closed),
        cores=tuple(cores),
    )


def _require_rich(profile: WordProfile, force: bool) -> bool:
    """Returns the covered flag; raises unless rich or forced."""
    if profile.rich:
        return True
    if force:
        return False
    raise RichnessRequiredError(
        f"word {profile.word.text!r} is not rich; pass force=True to evaluate anyway"
    )


def _exact_report(
    bound_id: str,
    profile: Optional[WordProfile],
    n: int,
    lhs: int,
    rhs: int,
    citation: str,
    detail: str,
    covered: bool = True,
    equality: Optional[bool] = None,
) -> BoundReport:
    return BoundReport(
        bound_id=bound_id,
        word_length=len(profile.word) if profile else None,
        n=n,
        q=profile.q if profile else None,
        lhs=lhs,
        rhs=rhs,
        rhs_log2=None,
        holds=lhs <= rhs,
        equality=equality,
        covered=covered,
        citation=citation,
        detail=detail,
    )


def _decide_log(lhs: int, rhs_log2: float, hp_rhs_log2) -> bool:
    """lhs <= 2**rhs_log2, margin-escalated so violations are exact."""
    if lhs <= 0:
        return True
    lhs_log2 = math.log2(lhs)
    if lhs_log2 <= rhs_log2 - MARGIN:
        return True
    # candidate violation or near-tie: re-decide at high precision
    with mpmath.workprec(_ESCALATED_PREC):
        left = mpmath.log(mpmath.mpf(lhs), 2)
        right = hp_rhs_log2()
        if abs(left - right) > mpmath.mpf(2) ** (-(_ESCALATED_PREC - 40)):
            return left <= right
    with mpmath.workprec(1000):
        left = mpmath.log(mpmath.mpf(lhs), 2)
        right = hp_rhs_log2()
        # ties at this precision can only be genuine equality
        return left <= right + mpmath.mpf(2) ** -900


def _log_report(
    bound_id: str,
    profile: Optional[WordProfile],
    n: int,
    lhs: int,
    exact_rhs: Optional[int],
    rhs_log2: float,
    hp_rhs_log2,
    citation: str,
    detail: str,
    covered: bool = True,
) -> BoundReport:
    """Report for a bound whose RHS may need log-domain treatment."""
    if exact_rhs is not None:
        return _exact_report(
            bound_id, profile, n, lhs, exact_rhs, citation, detail, covered
        )
    holds = _decide_log(lhs, rhs_log2, hp_rhs_log2)
    return BoundReport(
        bound_id=bound_id,
        word_length=len(profile.word) if profile else None,
        n=n,
        q=profile.q if profile else None,
        lhs=lhs,
        rhs=None,
        rhs_log2=rhs_log2,
        holds=holds,
        equality=None,
        covered=covered,
        citation=citation,
        detail=detail,
    )


def _int_log2_or_none(n: int) -> Optional[int]:
    """log2(n) when n is a power of two, else None."""
    if n >= 1 and n & (n - 1) == 0:
        return n.bit_length() - 1
    return None


# ---------------------------------------------------------------- B1


def check_switch_palindrome_bound(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B1: pal(n) <= 2*|switches(n)| + pal(n-2) on rich words, n > 2."""
    if n <= 2:
        raise ValueError("B1 needs n > 2")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    g = profile.sw[n] if n < len(profile.sw) else 0
    lhs = profile.pal_at(n)
    rhs = 2 * g + profile.pal_at(n - 2)
    return _exact_report(
        "B1", profile, n, lhs, rhs,
        "pal(n) <= 2*switch(n) + pal(n-2)",
        f"2*{g}+{profile.pal_at(n - 2)}={rhs} >= {lhs}",
        covered,
    )


# ---------------------------------------------------------------- B2


def check_upsilon_bound(
    w: Word, n: int, r: Word, force: bool = False,
    profile: Optional[WordProfile] = None,
) -> BoundReport:
    """B2: at most q(q-1) length-n switch cores share one lpps value r."""
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    lhs = _lpps_fibers(profile, n).get(r.chars, 0)
    return _upsilon_report(profile, n, r, lhs, covered)


def _lpps_fibers(profile: WordProfile, n: int) -> dict[str, int]:
    """Number of length-n switch cores per lpps value (as chars)."""
    fibers: dict[str, int] = {}
    for u in profile.cores_at(n):
        r = lpps(Word(u, profile.q)).chars
        fibers[r] = fibers.get(r, 0) + 1
    return fibers


def _upsilon_report(
    profile: WordProfile, n: int, r: Word, lhs: int, covered: bool
) -> BoundReport:
    q = profile.q
    rhs = q * (q - 1)
    return _exact_report(
        "B2", profile, n, lhs, rhs,
        "|cores of length n with lpps r| <= q(q-1)",
        f"r={r.text!r}: {lhs} <= {rhs}",
        covered,
    )


def _upsilon_reports(
    profile: WordProfile, n: int, force: bool, fibers: dict[str, int]
) -> list[BoundReport]:
    """B2 at order n for every lpps value in fibers, in sorted order."""
    return [
        _upsilon_report(
            profile, n, Word(r, profile.q), lhs, _require_rich(profile, force)
        )
        for r, lhs in sorted(fibers.items())
    ]


# ---------------------------------------------------------------- B3


def check_gamma_palindrome_bound(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B3: pal(n) <= (q+1)*n*maxswitch(n) on rich words, n > 0."""
    if n <= 0:
        raise ValueError("B3 needs n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    gam = profile.gamma_max_at(n)
    lhs = profile.pal_at(n)
    rhs = (profile.q + 1) * n * gam
    return _exact_report(
        "B3", profile, n, lhs, rhs,
        "pal(n) <= (q+1)*n*maxswitch(n)",
        f"({profile.q}+1)*{n}*{gam}={rhs} >= {lhs}",
        covered,
    )


# ---------------------------------------------------------------- B4


def check_gamma_recursion(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B4: maxswitch(n) <= q^5*ceil(n/2)^2*maxswitch(ceil(n/2)), n > 0."""
    if n <= 0:
        raise ValueError("B4 needs n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    half = (n + 1) // 2
    lhs = profile.gamma_max_at(n)
    rhs = profile.q**5 * half * half * profile.gamma_max_at(half)
    return _exact_report(
        "B4", profile, n, lhs, rhs,
        "maxswitch(n) <= q^5*ceil(n/2)^2*maxswitch(ceil(n/2))",
        f"q^5*{half}^2*{profile.gamma_max_at(half)}={rhs} >= {lhs}",
        covered,
    )


# ---------------------------------------------------------------- B5/B6/B7


def _pow_rhs(coeff: int, base: int, m: int) -> Optional[int]:
    """coeff * base**log2(m): exact int when log2(m) is integral and small."""
    e = _int_log2_or_none(m)
    if e is not None:
        bits = math.log2(coeff) + e * math.log2(base)
        if bits <= EXACT_LOG2_CAP:
            return coeff * base**e
    return None


def check_gamma_closed_form(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B5: maxswitch(n) <= (4*q^10*n)**log2(n), n > 0."""
    if n <= 0:
        raise ValueError("B5 needs n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    q = profile.q
    base = 4 * q**10 * n
    lhs = profile.gamma_max_at(n)
    exact = _pow_rhs(1, base, n)
    rhs_log2 = math.log2(n) * (2 + 10 * math.log2(q) + math.log2(n))

    def hp():
        ln = mpmath.log(n, 2)
        return ln * (2 + 10 * mpmath.log(q, 2) + ln)

    return _log_report(
        "B5", profile, n, lhs, exact, rhs_log2, hp,
        "maxswitch(n) <= (4*q^10*n)^log2(n)",
        f"log2(rhs)={rhs_log2:.6g}",
        covered,
    )


def check_palindromic_complexity_bound(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B6: pal(n) <= (q+1)*n*(4*q^10*n)**log2(n), n > 0."""
    if n <= 0:
        raise ValueError("B6 needs n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    q = profile.q
    base = 4 * q**10 * n
    coeff = (q + 1) * n
    lhs = profile.pal_at(n)
    exact = _pow_rhs(coeff, base, n)
    rhs_log2 = math.log2(coeff) + math.log2(n) * (
        2 + 10 * math.log2(q) + math.log2(n)
    )

    def hp():
        ln = mpmath.log(n, 2)
        return mpmath.log(coeff, 2) + ln * (2 + 10 * mpmath.log(q, 2) + ln)

    return _log_report(
        "B6", profile, n, lhs, exact, rhs_log2, hp,
        "pal(n) <= (q+1)*n*(4*q^10*n)^log2(n)",
        f"log2(rhs)={rhs_log2:.6g}",
        covered,
    )


def check_factor_complexity_bound(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B7: fac(n) <= (q+1)^2*n^4*(4*q^10*n)**(2*log2(n)), n > 0."""
    if n <= 0:
        raise ValueError("B7 needs n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    q = profile.q
    base = 4 * q**10 * n
    coeff = (q + 1) ** 2 * n**4
    lhs = profile.fac_at(n)
    e = _int_log2_or_none(n)
    exact = None
    if e is not None:
        bits = math.log2(coeff) + 2 * e * math.log2(base)
        if bits <= EXACT_LOG2_CAP:
            exact = coeff * base ** (2 * e)
    rhs_log2 = math.log2(coeff) + 2 * math.log2(n) * (
        2 + 10 * math.log2(q) + math.log2(n)
    )

    def hp():
        ln = mpmath.log(n, 2)
        return mpmath.log(coeff, 2) + 2 * ln * (2 + 10 * mpmath.log(q, 2) + ln)

    return _log_report(
        "B7", profile, n, lhs, exact, rhs_log2, hp,
        "fac(n) <= (q+1)^2*n^4*(4*q^10*n)^(2*log2(n))",
        f"log2(rhs)={rhs_log2:.6g}",
        covered,
    )


# ---------------------------------------------------------------- B8/B9


def _require_closed(profile: WordProfile, n: int) -> None:
    if n <= 0:
        raise ValueError("needs n > 0")
    if len(profile.word) < n + 1:
        raise ValueError(f"needs |w| >= {n + 1}")
    if not profile.closed_at(n + 1):
        raise ClosureRequiredError(
            f"factors of length {n + 1} of {profile.word.text!r} "
            "are not closed under reversal"
        )


def check_reversal_inequality(
    w: Word, n: int, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B8: pal(n)+pal(n+1) <= fac(n+1)-fac(n)+2 when F(w,n+1) is reversal-closed.

    Equality verdict is attached when the word is rich (it then always holds).
    """
    profile = profile or word_profile(w)
    _require_closed(profile, n)
    lhs = profile.pal_at(n) + profile.pal_at(n + 1)
    rhs = profile.fac_at(n + 1) - profile.fac_at(n) + 2
    equality = (lhs == rhs) if profile.rich else None
    return _exact_report(
        "B8", profile, n, lhs, rhs,
        "pal(n)+pal(n+1) <= fac(n+1)-fac(n)+2 (equality on rich words)",
        f"{profile.pal_at(n)}+{profile.pal_at(n + 1)} "
        f"{'=' if lhs == rhs else '<='} "
        f"{profile.fac_at(n + 1)}-{profile.fac_at(n)}+2",
        equality=equality,
    )


def check_factor_vs_palindrome_bound(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> BoundReport:
    """B9: fac(n) <= 2(n-1)*maxpal(n) - 2(n-1) + q under B8's preconditions plus richness."""
    profile = profile or word_profile(w)
    _require_closed(profile, n)
    covered = _require_rich(profile, force)
    fhat = profile.pal_max_at(n)
    lhs = profile.fac_at(n)
    rhs = 2 * (n - 1) * fhat - 2 * (n - 1) + profile.q
    return _exact_report(
        "B9", profile, n, lhs, rhs,
        "fac(n) <= 2(n-1)*maxpal(n) - 2(n-1) + q",
        f"{lhs} <= 2*{n - 1}*{fhat} - 2*{n - 1} + {profile.q} = {rhs}",
        covered,
    )


# ---------------------------------------------------------------- B10/B11


def check_final_bounds(
    w: Word, n: int, force: bool = False, profile: Optional[WordProfile] = None
) -> tuple[BoundReport, BoundReport]:
    """B10 and B11: factor-complexity bounds free of closure preconditions.

    B10: fac(n) <= 2(2n-1)*(q+1)*2n*(8*q^10*n)^log2(2n) - 2(2n-1) + q
    B11: fac(n) <= (q+1)*8*n^2*(8*q^10*n)^log2(2n) + q
    """
    if n <= 0:
        raise ValueError("B10/B11 need n > 0")
    profile = profile or word_profile(w)
    covered = _require_rich(profile, force)
    q = profile.q
    lhs = profile.fac_at(n)
    base = 8 * q**10 * n
    e2 = _int_log2_or_none(2 * n)

    # B10: T - 2(2n-1) + q with T = 2(2n-1)*(q+1)*2n*base^log2(2n)
    coeff10 = 2 * (2 * n - 1) * (q + 1) * 2 * n
    addend10 = q - 2 * (2 * n - 1)
    exact10 = None
    if e2 is not None:
        bits = math.log2(coeff10) + e2 * math.log2(base)
        if bits <= EXACT_LOG2_CAP:
            exact10 = coeff10 * base**e2 + addend10
    t_log2 = math.log2(coeff10) + math.log2(2 * n) * math.log2(base)
    # fold in the small additive terms; beyond float range they vanish anyway
    rhs10_log2 = (
        t_log2 + math.log1p(addend10 * 2.0**-t_log2) / math.log(2)
        if t_log2 <= 1020
        else t_log2
    )

    def hp10():
        t = mpmath.log(coeff10, 2) + mpmath.log(2 * n, 2) * mpmath.log(base, 2)
        return t + mpmath.log(1 + mpmath.mpf(addend10) / mpmath.power(2, t), 2)

    rep10 = _log_report(
        "B10", profile, n, lhs, exact10, rhs10_log2, hp10,
        "fac(n) <= 2(2n-1)*(q+1)*2n*(8*q^10*n)^log2(2n) - 2(2n-1) + q",
        f"log2(rhs)~{rhs10_log2:.6g}",
        covered,
    )

    coeff11 = (q + 1) * 8 * n**2
    exact11 = None
    if e2 is not None:
        bits = math.log2(coeff11) + e2 * math.log2(base)
        if bits <= EXACT_LOG2_CAP:
            exact11 = coeff11 * base**e2 + q
    t11_log2 = math.log2(coeff11) + math.log2(2 * n) * math.log2(base)
    rhs11_log2 = (
        t11_log2 + math.log1p(q * 2.0**-t11_log2) / math.log(2)
        if t11_log2 <= 1020
        else t11_log2
    )

    def hp11():
        t = mpmath.log(coeff11, 2) + mpmath.log(2 * n, 2) * mpmath.log(base, 2)
        return t + mpmath.log(1 + mpmath.mpf(q) / mpmath.power(2, t), 2)

    rep11 = _log_report(
        "B11", profile, n, lhs, exact11, rhs11_log2, hp11,
        "fac(n) <= (q+1)*8*n^2*(8*q^10*n)^log2(2n) + q",
        f"log2(rhs)~{rhs11_log2:.6g}",
        covered,
    )
    return rep10, rep11


# ---------------------------------------------------------------- B12


def check_ceil_product_lemma(n: int) -> BoundReport:
    """B12: prod_{j=1..floor(log2 n)} ceil(n/2^j) <= (2*sqrt(n))^log2(n)."""
    if n < 1:
        raise ValueError("B12 needs n >= 1")
    k = n.bit_length() - 1  # floor(log2 n)
    lhs = 1
    for j in range(1, k + 1):
        lhs *= (n + (1 << j) - 1) >> j  # ceil(n / 2^j)
    log2n = math.log2(n)
    exponent_is_even_int = _int_log2_or_none(n) is not None and (
        (n.bit_length() - 1) % 2 == 0
    )
    exact = None
    if exponent_is_even_int:
        e = n.bit_length() - 1
        root = 1 << (e // 2)  # sqrt(n) for n = 4^t
        if e * math.log2(2 * root) <= EXACT_LOG2_CAP:
            exact = (2 * root) ** e
    rhs_log2 = log2n * (1 + log2n / 2)

    def hp():
        ln = mpmath.log(n, 2)
        return ln * (1 + ln / 2)

    report = _log_report(
        "B12", None, n, lhs, exact, rhs_log2, hp,
        "prod_{j<=floor(log2 n)} ceil(n/2^j) <= (2*sqrt(n))^log2(n)",
        f"k={k}, lhs={lhs if lhs < 10**24 else 'big'}",
    )
    return report


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
    profile = word_profile(w)
    _require_rich(profile, force)
    long_side: set[Word] = set()
    short_side: set[Word] = set()
    for chars in profile.cores_at(n - 2):
        v = Word(chars, profile.q)
        if 2 * len(lpps(v)) >= len(v):
            long_side.add(v)
        else:
            short_side.add(v)
    return frozenset(long_side), frozenset(short_side)


# ---------------------------------------------------------------- sweep


def _admissible_reports(
    profile: WordProfile, bound_ids: Sequence[str], force: bool
) -> Iterator[BoundReport]:
    """Every requested bound at every admissible n for this word."""
    w = profile.word
    L = len(w)
    wanted = set(bound_ids)
    if "B1" in wanted:
        for n in range(3, L + 1):
            yield check_switch_palindrome_bound(w, n, force, profile)
    if "B2" in wanted:
        for n in range(1, max(L - 1, 1)):
            yield from _upsilon_reports(
                profile, n, force, _lpps_fibers(profile, n)
            )
    if "B3" in wanted:
        for n in range(1, L + 1):
            yield check_gamma_palindrome_bound(w, n, force, profile)
    if "B4" in wanted:
        for n in range(1, L + 1):
            yield check_gamma_recursion(w, n, force, profile)
    if "B5" in wanted:
        for n in range(1, L + 1):
            yield check_gamma_closed_form(w, n, force, profile)
    if "B6" in wanted:
        for n in range(1, L + 1):
            yield check_palindromic_complexity_bound(w, n, force, profile)
    if "B7" in wanted:
        for n in range(1, L + 1):
            yield check_factor_complexity_bound(w, n, force, profile)
    if "B8" in wanted:
        for n in range(1, L):
            if profile.closed_at(n + 1):
                yield check_reversal_inequality(w, n, profile)
    if "B9" in wanted:
        for n in range(1, L):
            if profile.closed_at(n + 1):
                yield check_factor_vs_palindrome_bound(w, n, force, profile)
    if "B10" in wanted or "B11" in wanted:
        for n in range(1, L + 1):
            r10, r11 = check_final_bounds(w, n, force, profile)
            if "B10" in wanted:
                yield r10
            if "B11" in wanted:
                yield r11


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
    profile = word_profile(w)
    word_bounds = [b for b in bound_ids if b != "B12"]
    if ns is None:
        reports = list(_admissible_reports(profile, word_bounds, force))
    else:
        reports = []
        for n in ns:
            for b in word_bounds:
                reports.extend(
                    _reports_at(profile, b, n, force)
                )
    if "B12" in bound_ids:
        for n in ns if ns is not None else range(1, max(len(w), 1) + 1):
            reports.append(check_ceil_product_lemma(n))
    if include_closure:
        closure = palindromic_closure(w)
        if closure != w:
            cp = word_profile(closure)
            for n in ns if ns is not None else range(1, len(closure)):
                if n >= len(closure):
                    continue
                if "B8" in bound_ids:
                    reports.append(check_reversal_inequality(closure, n, cp))
                if "B9" in bound_ids:
                    reports.append(
                        check_factor_vs_palindrome_bound(closure, n, force, cp)
                    )
    return reports


def _reports_at(
    profile: WordProfile, bound_id: str, n: int, force: bool
) -> list[BoundReport]:
    w = profile.word
    if bound_id == "B1":
        return [check_switch_palindrome_bound(w, n, force, profile)]
    if bound_id == "B2":
        # with no cores at all, still report the empty lpps value
        return _upsilon_reports(
            profile, n, force, _lpps_fibers(profile, n) or {"": 0}
        )
    if bound_id == "B3":
        return [check_gamma_palindrome_bound(w, n, force, profile)]
    if bound_id == "B4":
        return [check_gamma_recursion(w, n, force, profile)]
    if bound_id == "B5":
        return [check_gamma_closed_form(w, n, force, profile)]
    if bound_id == "B6":
        return [check_palindromic_complexity_bound(w, n, force, profile)]
    if bound_id == "B7":
        return [check_factor_complexity_bound(w, n, force, profile)]
    if bound_id == "B8":
        return [check_reversal_inequality(w, n, profile)]
    if bound_id == "B9":
        return [check_factor_vs_palindrome_bound(w, n, force, profile)]
    if bound_id in ("B10", "B11"):
        r10, r11 = check_final_bounds(w, n, force, profile)
        return [r10] if bound_id == "B10" else [r11]
    raise ValueError(f"unknown bound {bound_id!r}")


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
        return {
            "q": self.q,
            "max_len": self.max_len,
            "bound_ids": list(self.bound_ids),
            "include_closure": self.include_closure,
            "words": self.words,
            "reports": self.reports,
            "violations": self.violations,
            "per_bound": self.per_bound,
            "violating": [r.to_json_dict() for r in self.violating],
            "elapsed_seconds": self.elapsed_seconds,
        }


def _new_agg() -> dict:
    return {
        "reports": 0,
        "passes": 0,
        "violations": 0,
        "equalities": 0,
        "uncovered": 0,
        "min_slack_log2": None,
        "max_slack_log2": None,
    }


def _fold(agg: dict, report: BoundReport) -> None:
    agg["reports"] += 1
    if report.holds:
        agg["passes"] += 1
    else:
        agg["violations"] += 1
    if report.equality:
        agg["equalities"] += 1
    if not report.covered:
        agg["uncovered"] += 1
    slack = report.slack_log2()
    if slack is not None:
        lo, hi = agg["min_slack_log2"], agg["max_slack_log2"]
        agg["min_slack_log2"] = slack if lo is None else min(lo, slack)
        agg["max_slack_log2"] = slack if hi is None else max(hi, slack)


def _sweep_length(
    q: int,
    length: int,
    bound_ids: tuple[str, ...],
    include_closure: bool,
    cap: int,
) -> tuple[int, dict, list]:
    """Aggregate one corpus slice (all rich words of one length)."""
    from .enumeration import enumerate_rich

    agg = {b: _new_agg() for b in bound_ids}
    violating: list[BoundReport] = []
    words = 0
    for w in enumerate_rich(q, length):
        words += 1
        for r in evaluate_word(w, bound_ids, include_closure=include_closure):
            _fold(agg[r.bound_id], r)
            if not r.holds and len(violating) < cap:
                violating.append(r)
    return words, agg, violating


def sweep_rich(
    q: int,
    max_len: int,
    bound_ids: Sequence[str] = BOUND_IDS,
    include_closure: bool = True,
    jobs: int = 1,
    violation_cap: int = 50,
) -> SweepSummary:
    """Check the requested bounds on every rich word of length <= max_len.

    Work shards by word length; merged totals do not depend on jobs.
    B12 is word-independent, so it runs once per n instead of once per word.
    """
    import time

    t0 = time.perf_counter()
    ids = tuple(b for b in BOUND_IDS if b in set(bound_ids))
    unknown = set(bound_ids) - set(BOUND_IDS)
    if unknown:
        raise ValueError(f"unknown bound ids: {sorted(unknown)}")
    word_bounds = tuple(b for b in ids if b != "B12")
    lengths = range(max_len + 1)
    if jobs <= 1:
        slices = [
            _sweep_length(q, n, word_bounds, include_closure, violation_cap)
            for n in lengths
        ]
    else:
        from concurrent.futures import ProcessPoolExecutor
        from itertools import repeat

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            slices = list(
                pool.map(
                    _sweep_length,
                    repeat(q),
                    lengths,
                    repeat(word_bounds),
                    repeat(include_closure),
                    repeat(violation_cap),
                )
            )
    per_bound = {b: _new_agg() for b in ids}
    words = 0
    violating: list[BoundReport] = []
    for w_count, agg, viol in slices:
        words += w_count
        for b in word_bounds:
            for key in ("reports", "passes", "violations", "equalities", "uncovered"):
                per_bound[b][key] += agg[b][key]
            for key, pick in (("min_slack_log2", min), ("max_slack_log2", max)):
                other = agg[b][key]
                if other is not None:
                    mine = per_bound[b][key]
                    per_bound[b][key] = other if mine is None else pick(mine, other)
        for r in viol:
            if len(violating) < violation_cap:
                violating.append(r)
    if "B12" in ids:
        for n in range(1, max(max_len, 1) + 1):
            r = check_ceil_product_lemma(n)
            _fold(per_bound["B12"], r)
            if not r.holds and len(violating) < violation_cap:
                violating.append(r)
    reports = sum(per_bound[b]["reports"] for b in ids)
    violations = sum(per_bound[b]["violations"] for b in ids)
    return SweepSummary(
        q=q,
        max_len=max_len,
        bound_ids=ids,
        include_closure=include_closure,
        words=words,
        reports=reports,
        violations=violations,
        per_bound=per_bound,
        violating=tuple(violating),
        elapsed_seconds=time.perf_counter() - t0,
    )
