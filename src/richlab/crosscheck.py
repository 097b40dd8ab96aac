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


def _mismatch(w: Word, op: str, fast, slow) -> str:
    return f"{w.text!r}: {op}: fast={fast!r} oracle={slow!r}"


def compare_word(w: Word, rng: random.Random | None = None) -> list[str]:
    """Compare every fast operation against its oracle on one word.

    Without an RNG every admissible order is exercised; with one, orders
    and return factors are sampled so that long words stay cheap.
    """
    problems: list[str] = []
    n_len = len(w)

    idx = PalIndex(w)
    pal_fast = frozenset(idx.palindromes())
    pal_slow = oracle.oracle_palindrome_set(w)
    if pal_fast != pal_slow:
        problems.append(
            _mismatch(w, "palindrome set", _sorted_texts(pal_fast), _sorted_texts(pal_slow))
        )

    # oracle_is_rich/oracle_defect are defined through the palindrome set;
    # reuse the one just computed instead of enumerating it two more times.
    # Likewise on fuzzed words the fast answers come off the shared index
    # rather than the public wrappers, which run one Eertree per call.
    rich_slow = len(pal_slow) == n_len + 1
    rich_fast = is_rich(w) if rng is None else idx.distinct_count == n_len + 1
    if rich_fast != rich_slow:
        problems.append(_mismatch(w, "is_rich", rich_fast, rich_slow))
    defect_slow = n_len + 1 - len(pal_slow)
    defect_fast = defect(w) if rng is None else n_len + 1 - idx.distinct_count
    if defect_fast != defect_slow:
        problems.append(_mismatch(w, "defect", defect_fast, defect_slow))

    if n_len > 0:
        if rng is None:
            fast_four = (lps(w), lpp(w), lpps(w), lppp(w))
        else:
            # the public wrappers run one Eertree per call; on fuzzed words
            # read the same answers off two shared indexes
            ridx = PalIndex(reverse(w))
            fast_four = (idx.lps_word, ridx.lps_word, idx.lpps_word, ridx.lpps_word)
        for name, a, slow_fn in zip(
            ("lps", "lpp", "lpps", "lppp"),
            fast_four,
            (oracle.oracle_lps, oracle.oracle_lpp, oracle.oracle_lpps, oracle.oracle_lppp),
        ):
            b = slow_fn(w)
            if a != b:
                problems.append(_mismatch(w, name, a.text, b.text))

    cl_fast, cl_slow = palindromic_closure(w), oracle.oracle_closure(w)
    if cl_fast != cl_slow:
        problems.append(_mismatch(w, "closure", cl_fast.text, cl_slow.text))

    if rng is None or n_len <= _FULL_COMPARE_LEN:
        orders = range(1, n_len + 1)
    else:
        pool = range(3, n_len + 1)
        orders = sorted(set(rng.sample(pool, min(_SAMPLED_ORDERS, len(pool)))))
    for n in orders:
        g_fast = switches(w, n)
        g_slow = oracle.oracle_switches(w, n)
        if frozenset(g_fast) != g_slow:
            problems.append(
                _mismatch(
                    w,
                    f"switches(n={n})",
                    sorted(r.word.text for r in g_fast),
                    sorted(r.word.text for r in g_slow),
                )
            )
        p_fast = switch_pairs(w, n)
        p_slow = oracle.oracle_switch_pairs(w, n)
        if frozenset(p_fast) != p_slow:
            problems.append(
                _mismatch(
                    w,
                    f"switch_pairs(n={n})",
                    sorted((c.text, a) for c, a in p_fast),
                    sorted((c.text, a) for c, a in p_slow),
                )
            )

    gamma_order = min(n_len, _GAMMA_MAX_ORDER)
    if gamma_order >= 1:
        gm_fast = max_switch_count(w, gamma_order)
        gm_slow = oracle.oracle_max_switch_count(w, gamma_order)
        if gm_fast != gm_slow:
            problems.append(_mismatch(w, f"max_switch_count(n={gamma_order})", gm_fast, gm_slow))

    # in chars order: a frozenset's iteration order follows the hash seed
    nonempty_pals = sorted((p for p in pal_slow if len(p) > 0), key=lambda p: p.chars)
    if nonempty_pals:
        if rng is None:
            chosen = nonempty_pals
        else:
            chosen = rng.sample(nonempty_pals, min(3, len(nonempty_pals)))
        for u in chosen:
            r_fast = complete_returns(w, u)
            r_slow = oracle.oracle_complete_returns(w, u)
            if frozenset(r_fast) != r_slow:
                problems.append(
                    _mismatch(
                        w,
                        f"complete_returns(u={u.text!r})",
                        _sorted_texts(r_fast),
                        _sorted_texts(r_slow),
                    )
                )

    if rng is None:
        core_orders = range(1, max(n_len - 2, 0) + 1)
    else:
        pool = range(1, min(n_len - 2, 8) + 1)
        core_orders = sorted(rng.sample(pool, min(2, len(pool))))
    for n in core_orders:
        seen_r = {lpps(rec.core) for rec in switches(w, n + 2)}
        seen_r.add(EMPTY)
        for r in seen_r:
            c_fast = cores_with_lpps(w, n, r)
            c_slow = oracle.oracle_cores_with_lpps(w, n, r)
            if frozenset(c_fast) != c_slow:
                problems.append(
                    _mismatch(
                        w,
                        f"cores_with_lpps(n={n}, r={r.text!r})",
                        _sorted_texts(c_fast),
                        _sorted_texts(c_slow),
                    )
                )

    return problems


def exhaustive_check(q: int, max_len: int) -> CellResult:
    """Compare fast and oracle outputs on every word of length <= max_len."""
    if max_len < 0:
        raise ValueError(f"exhaustive length must be >= 0, got {max_len}")
    start = time.perf_counter()
    problems: list[str] = []
    count = 0
    for n in range(max_len + 1):
        for tup in itertools.product(range(q), repeat=n):
            count += 1
            problems.extend(compare_word(Word.from_symbols(tup, q)))
    spec = CellSpec(q=q, length=max_len, count=count)
    return CellResult(spec, count, tuple(problems), time.perf_counter() - start)


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
    problems: list[str] = []
    for _ in range(spec.count):
        problems.extend(compare_word(_random_word(rng, spec.q, spec.length), rng))
    return CellResult(spec, spec.count, tuple(problems), time.perf_counter() - start)


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
