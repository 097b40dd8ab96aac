"""Cross-checks between the fast implementations and the naive oracles.

The oracle module is import-clean by design: it never touches the fast
paths, so agreement between the two sides is meaningful evidence.  This
module is the only place where both sides are imported together.  It
drives two kinds of comparison:

* exhaustive sweeps over every word up to a small length, and
* seeded random fuzzing organised in "cells" such as ``q2:len50:1000``
  (10**3 words of length 50 over a binary alphabet).

Every mismatch is reported as a human-readable string naming the word,
the operation and both outputs; an empty mismatch list means the cell
passed.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import time
from dataclasses import dataclass

from . import oracle
from .enumeration import _cpus, _pool_map
from .paltree import PalIndex, defect, is_rich, lpp, lppp, lps, lpps
from .structures import (
    complete_returns,
    cores_with_lpps,
    max_switch_count,
    palindromic_closure,
    switch_pairs,
    switches,
)
from .words import EMPTY, Word, reverse

__all__ = [
    "CellSpec",
    "CellResult",
    "parse_cells",
    "compare_word",
    "exhaustive_check",
    "run_cell",
    "run_cells",
]

_CELL_RE = re.compile(r"^q(\d+):len(\d+):(\d+)$")

# Oracle gamma scans cost O(|w| * n) per order; cap the orders compared on
# long fuzzed words so a cell of 10**4 length-200 words stays affordable.
_FULL_COMPARE_LEN = 16
_SAMPLED_ORDERS = 3
_GAMMA_MAX_ORDER = 12


@dataclass(frozen=True)
class CellSpec:
    """One fuzzing cell: `count` random words of `length` over `q` letters."""

    q: int
    length: int
    count: int

    @property
    def label(self) -> str:
        return f"q{self.q}:len{self.length}:{self.count}"


@dataclass(frozen=True)
class CellResult:
    spec: CellSpec
    words_checked: int
    mismatches: tuple[str, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "cell": self.spec.label,
            "words_checked": self.words_checked,
            "mismatches": list(self.mismatches),
            "ok": self.ok,
            "elapsed_seconds": self.elapsed,
        }


def parse_cells(text: str) -> tuple[CellSpec, ...]:
    """Parse a comma-separated cell list like ``q2:len50:1000,q3:len20:500``."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        m = _CELL_RE.match(part)
        if not m:
            raise ValueError(
                f"bad cell {part!r}: expected the form q<alphabet>:len<length>:<count>"
            )
        q, length, count = (int(g) for g in m.groups())
        if q < 1:
            raise ValueError(f"bad cell {part!r}: alphabet size must be >= 1")
        if count < 1:
            raise ValueError(f"bad cell {part!r}: word count must be >= 1")
        specs.append(CellSpec(q=q, length=length, count=count))
    return tuple(specs)


def _sorted_texts(words) -> list[str]:
    return sorted(w.text for w in words)


def compare_word(w: Word, rng: random.Random | None = None) -> list[str]:
    """Compare every fast operation against its oracle on one word.

    Ten comparisons: the palindrome set, is_rich, defect, the lps family
    (lps, lpp, lpps, lppp), the palindromic closure, switches and
    switch_pairs at each order, max_switch_count, complete_returns and
    cores_with_lpps.  Without an RNG every admissible order, palindrome
    and core is compared; with one, orders, palindromes and cores are
    sampled so that long words stay cheap, and is_rich, defect and the lps
    family are read off shared PalIndexes instead of the public wrappers,
    which run one Eertree per call.
    """
    problems: list[str] = []

    def check(op: str, fast, slow, render=lambda x: x, *args) -> None:
        # op is a str.format template, filled from args on a mismatch only
        if fast != slow:
            name = op.format(*args)
            problems.append(f"{w.text!r}: {name}: fast={render(fast)!r} oracle={render(slow)!r}")

    full = rng is None
    n_len = len(w)
    idx = PalIndex(w)
    pal_fast, pal_slow = idx.palindromes(), oracle.oracle_palindrome_set(w)
    check("palindrome set", pal_fast, pal_slow, _sorted_texts)

    # oracle_is_rich/oracle_defect are defined through the palindrome set;
    # reuse the one just computed instead of enumerating it two more times
    check("is_rich", is_rich(w) if full else idx.distinct_count == n_len + 1,
          len(pal_slow) == n_len + 1)
    check("defect", defect(w) if full else n_len + 1 - idx.distinct_count,
          n_len + 1 - len(pal_slow))
    if n_len > 0:
        if full:
            fast_four = (lps(w), lpp(w), lpps(w), lppp(w))
        else:
            ridx = PalIndex(reverse(w))
            fast_four = (idx.lps_word, ridx.lps_word, idx.lpps_word, ridx.lpps_word)
        slow_fns = (oracle.oracle_lps, oracle.oracle_lpp, oracle.oracle_lpps,
                    oracle.oracle_lppp)
        for op, fast, slow_fn in zip(("lps", "lpp", "lpps", "lppp"), fast_four, slow_fns):
            check(op, fast.text, slow_fn(w).text)
    check("closure", palindromic_closure(w).text, oracle.oracle_closure(w).text)

    def sample(pool, k: int):
        return rng.sample(pool, min(k, len(pool)))

    if full or n_len <= _FULL_COMPARE_LEN:
        orders = range(1, n_len + 1)
    else:
        orders = sorted(sample(range(3, n_len + 1), _SAMPLED_ORDERS))
    for n in orders:
        check("switches(n={})", switches(w, n), oracle.oracle_switches(w, n),
              lambda recs: sorted(r.word.text for r in recs), n)
        check("switch_pairs(n={})", switch_pairs(w, n), oracle.oracle_switch_pairs(w, n),
              lambda pairs: sorted((c.text, a) for c, a in pairs), n)

    gamma_order = min(n_len, _GAMMA_MAX_ORDER)
    if gamma_order >= 1:
        check(f"max_switch_count(n={gamma_order})", max_switch_count(w, gamma_order),
              oracle.oracle_max_switch_count(w, gamma_order))

    # in chars order: a frozenset's iteration order follows the hash seed
    pals = sorted((p for p in pal_slow if len(p) > 0), key=lambda p: p.chars)
    for u in pals if full else sample(pals, 3):
        check("complete_returns(u={.text!r})", complete_returns(w, u),
              oracle.oracle_complete_returns(w, u), _sorted_texts, u)

    if full:
        core_orders = range(1, n_len - 1)
    else:
        core_orders = sorted(sample(range(1, min(n_len - 2, 8) + 1), 2))
    for n in core_orders:
        seen_r = {lpps(rec.core) for rec in switches(w, n + 2)} | {EMPTY}
        for r in sorted(seen_r, key=lambda r: r.chars):
            check("cores_with_lpps(n={}, r={.text!r})", cores_with_lpps(w, n, r),
                  oracle.oracle_cores_with_lpps(w, n, r), _sorted_texts, n, r)

    return problems


def exhaustive_check(q: int, max_len: int) -> CellResult:
    """Compare fast and oracle outputs on every word of length <= max_len."""
    if max_len < 0:
        raise ValueError(f"exhaustive length must be >= 0, got {max_len}")
    start = time.perf_counter()
    mismatches: list[str] = []
    count = 0
    for n in range(max_len + 1):
        for tup in itertools.product(range(q), repeat=n):
            count += 1
            mismatches += compare_word(Word.from_symbols(tup, q))
    spec = CellSpec(q=q, length=max_len, count=count)
    return CellResult(spec, count, tuple(mismatches), time.perf_counter() - start)


def _random_word(rng: random.Random, q: int, length: int) -> Word:
    return Word.from_symbols((rng.randrange(q) for _ in range(length)), q)


def check_cell(spec: CellSpec) -> None:
    """Reject a cell whose words the oracle would refuse, before any is built."""
    try:
        oracle._check_length(spec.length)
    except oracle.OracleLimitError as exc:
        raise oracle.OracleLimitError(f"cell {spec.label}: {exc}") from None


def run_cell(spec: CellSpec, seed: int) -> CellResult:
    """Fuzz one cell; the RNG stream depends only on (seed, q, length)."""
    check_cell(spec)
    rng = random.Random(f"{seed}:{spec.q}:{spec.length}")
    start = time.perf_counter()
    mismatches: list[str] = []
    for _ in range(spec.count):
        mismatches += compare_word(_random_word(rng, spec.q, spec.length), rng)
    return CellResult(spec, spec.count, tuple(mismatches), time.perf_counter() - start)


def run_cells(specs, seed: int) -> list[CellResult]:
    """run_cell on every spec, in spec order, one process per usable CPU.

    Cells are independent and each one's RNG stream depends only on (seed,
    q, length), so the results do not depend on how many processes run
    them.  Every cell is checked against the oracle's length cap before
    any runs, and the largest cells (by letters fuzzed) are handed out
    first.
    """
    specs = list(specs)
    for spec in specs:
        check_cell(spec)
    order = sorted(range(len(specs)), key=lambda i: -specs[i].length * specs[i].count)
    done = _pool_map(
        functools.partial(run_cell, seed=seed), [specs[i] for i in order], _cpus()
    )
    by_index = dict(zip(order, done))
    return [by_index[i] for i in range(len(specs))]
