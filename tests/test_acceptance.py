"""Acceptance gate: one test per advertised guarantee, budgets included.

Each criterion prints as a single pass/fail line under ``pytest -v``.
The heavy corpora (full fuzzing cells, the length-14/9 bound sweep) run
here and nowhere else; the per-module suites stay fast.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import pytest

from richlab.bounds import (
    BOUND_IDS,
    check_reversal_inequality,
    check_switch_palindrome_bound,
    sweep_rich,
)
from richlab.crosscheck import exhaustive_check, parse_cells, run_cells
from richlab.enumeration import count_rich, growth_root
from richlab.oracle import oracle_is_rich
from richlab.paltree import PalIndex
from richlab.structures import (
    cores_with_lpps,
    pal_compress,
    pal_reconstruct,
    sentinel_augment,
    switch_pairs,
    switches,
)
from richlab.words import Word, factors, is_palindrome, mirror, trim

W = Word.parse
W3 = W("1100100010011001010")
W37 = W("2110112333211011454110116110116778776")
WG = W("5112211311001131133114111146")
WU = W("5112211311001131133114")

PI2 = (1, 2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756,
       3246, 5916, 10618, 18800, 32846)
PI3 = (1, 3, 9, 27, 75, 201, 513, 1269, 3033, 7047)


@pytest.fixture(scope="module")
def bound_sweeps():
    """Criterion-3 corpus, shared with criterion 4: one run, two checks."""
    start = time.perf_counter()
    binary = sweep_rich(2, 14, BOUND_IDS, include_closure=True, jobs=4)
    ternary = sweep_rich(3, 9, BOUND_IDS, include_closure=True, jobs=4)
    return binary, ternary, time.perf_counter() - start


def test_criterion_1_golden_examples():
    start = time.perf_counter()

    # switches of the 28-symbol word at length 8, their trims and pairs
    recs = switches(WG, 8)
    assert {r.word.text for r in recs} == {"51122113", "31133114", "14111146"}
    assert {trim(r.word).text for r in recs} == {"112211", "113311", "411114"}
    assert {(p.core.text, p.letter) for p in switch_pairs(WG, 8)} == {
        ("112211", 3), ("112211", 5),
        ("113311", 3), ("113311", 4),
        ("411114", 1), ("411114", 6),
    }

    # the 37-symbol word: switches and palindromic factors at lengths 7/5
    assert {r.word.text for r in switches(W37, 7)} == {"2110114", "4110116"}
    idx = PalIndex(W37)
    pal7 = {p.text for p in idx.palindromes_of_length(7)}
    pal5 = {p.text for p in idx.palindromes_of_length(5)}
    listed7 = {"1233321", "2110112", "1145411", "6110116", "6778776"}
    listed5 = {"23332", "11011", "14541", "77877"}
    assert pal7 == listed7 | {"0116110"}
    assert pal5 == listed5 | {"11611"}
    # even the five/four-element subsets witness the switch bound instance,
    # and the true counts satisfy it with room: 2*2 + 5 = 9 >= 6
    assert 2 * 2 + len(listed5) > len(listed7)
    rep = check_switch_palindrome_bound(W37, 7)
    assert (rep.lhs, rep.rhs, rep.holds) == (6, 9, True)

    # switch cores of length 6 whose longest proper palindromic suffix is 11
    assert {c.text for c in cores_with_lpps(WU, 6, W("11"))} == {"112211", "113311"}

    # mirrored positions inside a palindrome
    assert mirror(10, 3) == 8
    assert mirror(9, 5) == 5

    # palindrome compression fragments, both center parities
    odd = pal_compress(W("1232123212321"), W("12321232123212321"))
    assert (odd.half.text, odd.fragment.text) == ("321", "12321")
    assert pal_reconstruct(odd.fragment, 17) == W("12321232123212321")
    even = pal_compress(W("21122112"), W("211221122112"))
    assert (even.half.text, even.fragment.text) == ("21", "1221")
    assert pal_reconstruct(even.fragment, 12) == W("211221122112")

    # factor/palindrome counts of the 19-symbol word and the equality case
    p3 = PalIndex(W3)
    assert (len(factors(W3, 3)), len(factors(W3, 4))) == (7, 10)
    assert (len(p3.palindromes_of_length(3)), len(p3.palindromes_of_length(4))) == (3, 2)
    rep = check_reversal_inequality(W3, 3)
    assert rep.equality and rep.detail == "3+2 = 10-7+2"

    # sentinel-augmented word: rich palindrome, equality again
    aug = sentinel_augment(W3)
    assert aug.text == W3.text + "2" + W3.text[::-1]
    rep = check_reversal_inequality(aug, 3)
    assert rep.equality and rep.detail == "4+2 = 14-10+2"

    assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    results = [exhaustive_check(2, 12)]
    cells = parse_cells(",".join(
        f"q{q}:len{n}:10000" for q in (2, 3, 4) for n in (20, 50, 200)))
    results.extend(run_cells(cells, seed=20260814))
    elapsed = time.perf_counter() - start

    assert results[0].words_checked == 8191  # every binary word, length <= 12
    assert sum(r.words_checked for r in results[1:]) == 90000
    mismatches = [m for r in results for m in r.mismatches]
    assert mismatches == []
    assert elapsed < 300.0


def test_criterion_3_bound_sweep(bound_sweeps):
    binary, ternary, elapsed = bound_sweeps
    assert binary.words == sum(PI2[:15])
    assert ternary.words == sum(PI3)
    for summary in (binary, ternary):
        assert summary.violations == 0
        assert summary.bound_ids == BOUND_IDS
        for bound_id in BOUND_IDS:
            agg = summary.per_bound[bound_id]
            assert agg["violations"] == 0
            assert agg["reports"] > 0
    assert elapsed < 600.0


def test_criterion_4_reversal_closed_equality(bound_sweeps):
    # wherever the reversal inequality applies, it is an equality
    binary, ternary, _ = bound_sweeps
    for summary in (binary, ternary):
        agg = summary.per_bound["B8"]
        assert agg["reports"] > 0
        assert agg["equalities"] == agg["reports"]


def test_criterion_5_compression_round_trip():
    # exhaustive: 1020 binary palindromes of length 1..16 carry exactly
    # 340 admissible (prefix, palindrome) pairs (verified by 2**n scan)
    palindromes = 0
    checked = 0
    for length in range(1, 17):
        half = (length + 1) // 2
        for bits in range(2 ** half):
            left = format(bits, f"0{half}b")
            middle = left[::-1] if length % 2 == 0 else left[-2::-1]
            v = W(left + middle)
            palindromes += 1
            for u_len in range((len(v) + 1) // 2, len(v)):
                u = v[:u_len]
                if not is_palindrome(u):
                    continue
                res = pal_compress(u, v)
                assert pal_reconstruct(res.fragment, len(v)) == v
                checked += 1
    assert (palindromes, checked) == (1020, 340)


def test_criterion_6_rich_word_counts():
    # counts agree with the naive filter wherever it is affordable ...
    for n in range(13):
        naive = sum(
            1
            for tup in itertools.product((0, 1), repeat=n)
            if oracle_is_rich(Word.from_symbols(tup, 2))
        )
        assert count_rich(2, n) == naive == PI2[n]
    # ... and with the recorded sequence values beyond that
    for n in range(13, 17):
        assert count_rich(2, n) == PI2[n]
    # splitting a rich word leaves two rich halves, hence submultiplicativity
    for n in range(17):
        for m in range(17 - n):
            assert PI2[n] * PI2[m] >= PI2[n + m]
    # the asymptotic growth estimate (< 1.605) needs counts at length 60;
    # at desk scale the 16th root is still far above it, so no claim is made
    assert growth_root(2, 16, count=PI2[16]) > 1.9


def test_criterion_7_performance_floor():
    start = time.perf_counter()
    sequential = count_rich(2, 14)
    elapsed = time.perf_counter() - start
    assert sequential == 10618
    assert elapsed < 60.0
    assert count_rich(2, 14, jobs=4, shard_prefix=6) == sequential


def test_criterion_8_module_invariant_suites_green():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--ignore",
         str(root / "tests" / "test_acceptance.py"), str(root / "tests")],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=1200,
    )
    assert result.returncode == 0, result.stdout[-4000:]
