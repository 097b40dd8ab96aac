"""Inequality suite: per-bound goldens, error domains, log-domain policy,
report serialization, and the sweep runner."""

import dataclasses
import gc
import itertools
import json
import math
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richlab import bounds
from richlab.bounds import (
    BOUND_IDS,
    BoundReport,
    ClosureRequiredError,
    RichnessRequiredError,
    WordProfile,
    _decide_log,
    check_ceil_product_lemma,
    check_factor_complexity_bound,
    check_factor_vs_palindrome_bound,
    check_final_bounds,
    check_gamma_closed_form,
    check_gamma_palindrome_bound,
    check_gamma_recursion,
    check_palindromic_complexity_bound,
    check_reversal_inequality,
    check_switch_palindrome_bound,
    check_upsilon_bound,
    diagnostic_trim_gamma_partition,
    evaluate_word,
    sweep_rich,
    word_profile,
)
from richlab.enumeration import _walk, enumerate_rich
from richlab.structures import (
    cores_with_lpps,
    palindromic_closure,
    sentinel_augment,
    switch_cores,
)
from richlab.paltree import Eertree, _tree_of, lps, lpps
from richlab.words import Word

W = Word.parse

W3 = W("1100100010011001010")  # rich binary word of length 19
W37 = W("2110112333211011454110116110116778776")
WG = W("5112211311001131133114111146")
WU = W("5112211311001131133114")
WITNESS = W("00101100110100")  # non-rich binary palindrome, length 14


# --- profile ---


def test_word_profile_golden():
    p = word_profile(W3)
    assert p.rich
    assert p.q == 2
    assert p.fac[3] == 7 and p.fac[4] == 10
    assert p.pal[3] == 3 and p.pal[4] == 2
    assert p.closed[4] and not p.closed[5]
    assert p.pal_max[4] == 3
    assert p.gamma_max[0] == 1
    assert p.fac[0] == 1
    # past the end of the word: no factors, and the running maxima stay
    past = bounds._beyond(p)
    assert past.fac[99] == 0 and past.pal[99] == 0 and past.sw[99] == 0
    assert past.pal_max[99] == p.pal_max[-1] and past.gamma_max[99] == p.gamma_max[-1]
    assert past.fibres[99] == ()


def _reference_profile(w):
    """The profile by definition: one substring set per length, O(|w|^3)."""
    s = w.chars
    L = len(s)
    fac, pal, sw = [1] + [0] * L, [1] + [0] * L, [0] * (L + 1)
    closed = [True] * (L + 1)
    fibres = [()] * (L + 1)
    for n in range(1, L + 1):
        seen = {s[i : i + n] for i in range(L - n + 1)}
        switch_seen = {
            t for t in seen
            if n > 2 and t[0] != t[-1] and t[1:-1] == t[-2:0:-1]
        }
        fac[n] = len(seen)
        pal[n] = sum(t == t[::-1] for t in seen)
        sw[n] = len(switch_seen)
        closed[n] = all(t[::-1] in seen for t in seen)
        if n > 2:
            # B2's fibres: the cores grouped by lpps, their longest proper
            # suffix that is a palindrome
            suffixes = [
                next(r for r in (u[j:] for j in range(1, len(u) + 1)) if r == r[::-1])
                for u in {t[1:-1] for t in switch_seen}
            ]
            fibres[n - 2] = tuple(sorted((r, suffixes.count(r)) for r in set(suffixes)))
    gmax, pmax = [1] * (L + 1), [1] * (L + 1)
    for n in range(1, L + 1):
        gmax[n] = max(gmax[n - 1], sw[n])
        pmax[n] = max(pmax[n - 1], pal[n])
    return WordProfile(
        word=w,
        q=w.alphabet_size,
        rich=sum(pal) == L + 1,
        fac=tuple(fac),
        pal=tuple(pal),
        sw=tuple(sw),
        gamma_max=tuple(gmax),
        pal_max=tuple(pmax),
        closed=tuple(closed),
        fibres=tuple(fibres),
    )


def _assert_profile_matches_reference(w):
    fast, slow = word_profile(w), _reference_profile(w)
    for f in dataclasses.fields(WordProfile):
        assert getattr(fast, f.name) == getattr(slow, f.name), (w, f.name)


def _random_rich_word(rng, q, length):
    """Grow a rich word letter by letter, keeping only extensions that stay rich."""
    tree = Eertree()
    out = []
    while len(out) < length:
        for c in rng.sample(range(q), q):
            if tree.append(c):
                out.append(c)
                break
            tree.pop()
        else:
            break
    return Word.from_symbols(out, q)


def _fibonacci_prefix(n):
    a, b = "0", "01"
    while len(b) < n:
        a, b = b, b + a
    return W(b[:n])


def test_word_profile_matches_reference_on_all_short_words():
    for q, max_len in ((2, 12), (3, 7)):
        for length in range(max_len + 1):
            for tup in itertools.product(range(q), repeat=length):
                _assert_profile_matches_reference(Word.from_symbols(tup, q))


def test_word_profile_matches_reference_on_random_words():
    rng = random.Random(20181008)
    for q in (1, 2, 3, 4, 255):
        for length in (0, 1, 2, 3, 17, 64, 150, 300):
            w = Word.from_symbols((rng.randrange(q) for _ in range(length)), q)
            _assert_profile_matches_reference(w)
            rich = _random_rich_word(rng, q, length)
            assert word_profile(rich).rich
            _assert_profile_matches_reference(rich)


def test_word_profile_matches_reference_on_fibonacci_and_closures():
    rng = random.Random(35730)
    for length in range(0, 241, 8):
        fib = _fibonacci_prefix(length)
        _assert_profile_matches_reference(fib)
        _assert_profile_matches_reference(palindromic_closure(fib))
    for q in (2, 3):
        for length in (5, 40, 120):
            w = Word.from_symbols((rng.randrange(q) for _ in range(length)), q)
            _assert_profile_matches_reference(palindromic_closure(w))
            rich = _random_rich_word(rng, q, length)
            _assert_profile_matches_reference(palindromic_closure(rich))


def test_word_profile_lps_length():
    # the sweep builds each palindromic closure from it
    rng = random.Random(5)
    words = [
        Word.from_symbols(t, 2) for n in range(11)
        for t in itertools.product(range(2), repeat=n)
    ]
    words += [Word.from_symbols((rng.randrange(q) for _ in range(60)), q) for q in (1, 3, 255)]
    for w in words:
        assert word_profile(w).lps_length == (len(lps(w)) if len(w) else 0)


# --- the profile a sweep carries down its walk ---


def _assert_carried_matches(state):
    """state's signed fields, richness, lps and closure profile against word_profile."""
    w = Word(state.words[-1], state.q)
    slow = word_profile(w)
    fields = _signed_fields(slow)
    for f, carried in bounds._CARRIED.items():
        assert carried(state) == getattr(fields, f), (w, f)
    tree = state.tree
    assert slow.rich and tree.distinct_nonempty == len(w), w
    assert tree.node_length(tree.last_node()) == slow.lps_length, w
    c = bounds._closure_chars(w.chars, slow.lps_length)
    fast, slow = state.closure_profile(c), word_profile(Word(c, state.q))
    for f in ("word", "q", "rich", "fac", "pal", "pal_max", "closed"):
        assert getattr(fast, f) == getattr(slow, f), (w, f)


def test_carried_profile_equals_word_profile_on_canonical_words():
    # every canonical word, reached as the sweep reaches it: pop back to
    # the parent of the next word in preorder, then push its last letter
    for q, max_len in ((2, 14), (3, 9), (4, 6)):
        state = bounds._CarriedProfile(q)
        for symbols, _ in _walk(q, (), max_len, True):
            while len(state) >= max(len(symbols), 1):
                state.pop()
            while len(state) < len(symbols):
                state.push(symbols[len(state)])
            _assert_carried_matches(state)


def _grow_rich(tree, picks, q):
    """Append to tree, for each pick, the pick-th letter that keeps it rich."""
    grown = []
    for pick in picks:
        letters = [c for c in range(q) if tree.creates(c)]
        if not letters:
            break
        grown.append(letters[pick % len(letters)])
        tree.append(grown[-1])
    return grown


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    q=st.integers(1, 5),
    first=st.lists(st.integers(0, 4), max_size=60),
    keep=st.integers(0, 60),
    second=st.lists(st.integers(0, 4), max_size=60),
)
def test_carried_profile_follows_random_rich_words(q, first, keep, second):
    # grow a rich word, cut it back to a prefix and grow another one from
    # there; the carried profile must match word_profile at both ends
    state, tree = bounds._CarriedProfile(q), Eertree()
    for c in _grow_rich(tree, first, q):
        state.push(c)
    _assert_carried_matches(state)
    while len(state) > keep:
        state.pop()
        tree.pop()
    for c in _grow_rich(tree, second, q):
        state.push(c)
    _assert_carried_matches(state)


def _tree_state(tree):
    return (len(tree), tree.node_count, tree.last_node(), tree.distinct_nonempty)


def _assert_closure_profile_matches(w, carried):
    """The shared closure profile of w, from a fresh tree and from a tree
    that holds w, against word_profile of the closure; carried also runs
    the sweep's carried profile down w.

    _closure_profile leaves its tree holding the closure, and the carried
    profile's closure_profile leaves the carried state as it was."""
    q = w.alphabet_size
    c = bounds._closure_chars(w.chars, word_profile(w).lps_length)
    slow = word_profile(Word(c, q))
    # a palindrome's factors are closed under reversal: the shortcut's premise
    assert all(slow.closed), w
    fresh, tree = Eertree(), _tree_of(w.chars)
    pal = list(word_profile(w).pal)
    profiles = [
        bounds._closure_profile(c, q, fresh, [1]),
        bounds._closure_profile(c, q, tree, pal),
    ]
    assert _tree_state(fresh) == _tree_state(tree) == _tree_state(_tree_of(c)), w
    assert pal == list(word_profile(w).pal), w
    if carried:
        state = bounds._CarriedProfile(q)
        for symbol in w:
            state.push(symbol)
        before = _tree_state(state.tree), {f: get(state) for f, get in bounds._CARRIED.items()}
        profiles.append(state.closure_profile(c))
        after = _tree_state(state.tree), {f: get(state) for f, get in bounds._CARRIED.items()}
        assert after == before, w
    for fast in profiles:
        assert (fast.sw, fast.gamma_max, fast.fibres) == (None, None, None)
        for f in ("word", "q", "rich", "fac", "pal", "pal_max", "closed"):
            assert getattr(fast, f) == getattr(slow, f), (w, f)


def test_closure_profile_equals_word_profile_of_the_closure():
    # the one profile of a closure that the sweep and evaluate_word share
    rng = random.Random(17)
    for q in (2, 3):
        for length in (120, 180, 240, 300):
            w = _random_rich_word(rng, q, length)
            assert len(w) == length and word_profile(w).rich
            _assert_closure_profile_matches(w, carried=True)
    for length in (200, 987, 1000, 2000):
        _assert_closure_profile_matches(_fibonacci_prefix(length), carried=False)
    # a word that is not rich, as verify --force --with-closure profiles it
    w = W(WITNESS.text + "011")
    assert not word_profile(w).rich
    _assert_closure_profile_matches(w, carried=True)
    reports = evaluate_word(w, include_closure=True, force=True)
    on_closure = [r for r in reports if r.word_length == len(palindromic_closure(w))]
    assert {r.bound_id for r in on_closure} == {"B8", "B9"}
    assert not all(r.covered for r in on_closure)


def test_closure_extends_the_words_own_tree(monkeypatch):
    # evaluate_word appends each letter of the closure once: word_profile's
    # run holds w, and the closure's profile extends that same tree; its
    # reports equal those of a closure profiled on a fresh tree
    appends = []
    append = Eertree.append

    def counted(self, c):
        appends.append(c)
        return append(self, c)

    monkeypatch.setattr(Eertree, "append", counted)
    rng = random.Random(23)
    words = [W3, _fibonacci_prefix(200), _random_rich_word(rng, 3, 150)]
    non_rich = W(WITNESS.text + "011")
    for w in (*words, non_rich):
        c = bounds._closure_chars(w.chars, word_profile(w).lps_length)
        assert c != w.chars
        appends.clear()
        reports = evaluate_word(w, include_closure=True, force=True)
        assert len(appends) == len(c), w
        fresh = bounds._closure_profile(c, w.alphabet_size, Eertree(), [1])
        want = list(bounds._rows(fresh, [bounds._CLOSURE_GROUP], None, True))
        on_closure = [r for r in reports if r.word_length == len(c)]
        assert on_closure == want and want, w
    # a palindrome is its own closure: one run over its letters
    for w in (palindromic_closure(W3), WITNESS):
        appends.clear()
        evaluate_word(w, include_closure=True, force=True)
        assert len(appends) == len(w)


# --- B1 ---


def test_b1_golden_running_example():
    rep = check_switch_palindrome_bound(W37, 7)
    assert (rep.lhs, rep.rhs) == (6, 9)  # 2*2+5 >= 6
    assert rep.holds and rep.covered
    assert rep.bound_id == "B1"


def test_b1_vacuous_short_word():
    rep = check_switch_palindrome_bound(W("00"), 3)
    assert (rep.lhs, rep.rhs) == (0, 1)
    assert rep.holds


def test_b1_domain_errors():
    with pytest.raises(ValueError):
        check_switch_palindrome_bound(W3, 2)
    with pytest.raises(RichnessRequiredError):
        check_switch_palindrome_bound(WITNESS, 3)


def test_b1_force_marks_uncovered():
    rep = check_switch_palindrome_bound(WITNESS, 3, force=True)
    assert not rep.covered


# --- B2 ---


def test_b2_golden():
    rep = check_upsilon_bound(WU, 6, W("11"))
    assert (rep.lhs, rep.rhs) == (2, 30)  # q = 6 as written
    assert rep.holds
    rep = check_upsilon_bound(WU, 6, W("00"))
    assert rep.lhs == 0


def test_b2_forced_on_a_word_that_is_not_rich():
    # the report of each (order, lpps value), recorded field by field;
    # 20 lies past |w| = 17, and no core of any order has lpps 0110
    w = W(WITNESS.text + "011")
    lhs = {
        (1, ""): 2, (3, "0"): 1, (3, "1"): 1, (5, "1"): 1,
    }
    with pytest.raises(RichnessRequiredError):
        check_upsilon_bound(w, 3, W("0"))
    for n in (1, 3, 5, 20):
        for r in ("", "0", "1", "0110"):
            left = lhs.get((n, r), 0)
            assert dataclasses.astuple(check_upsilon_bound(w, n, W(r), force=True)) == (
                "B2", 17, n, 2, left, 2, None, True, None, False,
                "|cores of length n with lpps r| <= q(q-1)", f"r={r!r}: {left} <= 2",
            ), (n, r)


def test_b2_binary_class_maximum_is_two():
    # largest lpps class among switch cores over all rich binary words <= 14
    best = 0
    for length in range(15):
        for w in enumerate_rich(2, length):
            for n in range(1, max(length - 1, 1)):
                fibers = {}
                for u in switch_cores(w, n + 2):
                    fibers.setdefault(lpps(u).chars, []).append(u)
                for members in fibers.values():
                    best = max(best, len(members))
    assert best == 2  # q(q-1) is attained, never exceeded


def _b2_from_switch_cores(w, n, keep_empty):
    """(n, lhs, rhs, detail) of B2 at order n, grouped from switch_cores."""
    q = w.alphabet_size
    cores = switch_cores(w, n + 2)
    values = sorted({lpps(u).chars for u in cores}) or ([""] if keep_empty else [])
    out = []
    for r in values:
        lhs = sum(1 for u in cores if lpps(u).chars == r)
        out.append((n, lhs, q * (q - 1), f"r={Word(r, q).text!r}: {lhs} <= {q * (q - 1)}"))
    return out


def test_b2_reports_match_switch_cores():
    rng = random.Random(1810)
    words = [w for L in range(11) for w in enumerate_rich(2, L)]
    words += [_random_rich_word(rng, q, L) for q in (2, 3, 4) for L in (30, 90, 200)]
    words += [W37, WG, WU]
    for w in words:
        got = [
            (r.n, r.lhs, r.rhs, r.detail)
            for r in evaluate_word(w, bound_ids=["B2"])
        ]
        want = [
            row for n in range(1, max(len(w) - 1, 1))
            for row in _b2_from_switch_cores(w, n, keep_empty=False)
        ]
        assert got == want, w
        for n in (-1, 0, 1, 2, len(w) - 2, len(w) + 3):
            if n <= 0:
                with pytest.raises(ValueError, match="B2 needs n > 0"):
                    evaluate_word(w, bound_ids=["B2"], ns=[n])
                with pytest.raises(ValueError, match="B2 needs n > 0"):
                    check_upsilon_bound(w, n, W(""))
                continue
            got = [
                (r.n, r.lhs, r.rhs, r.detail)
                for r in evaluate_word(w, bound_ids=["B2"], ns=[n])
            ]
            assert got == _b2_from_switch_cores(w, n, keep_empty=True), (w, n)
        for n in (1, 3, 6):
            for r in {lpps(u) for u in switch_cores(w, n + 2)} | {W("")}:
                assert check_upsilon_bound(w, n, r).lhs == len(
                    cores_with_lpps(w, n, r)
                )


# --- B3 / B4 ---


def test_b3_goldens():
    rep = check_gamma_palindrome_bound(W37, 7)
    assert rep.holds
    rep = check_gamma_palindrome_bound(W3, 1)
    assert rep.lhs == 2 and rep.rhs == 3  # (q+1)*1*1
    with pytest.raises(ValueError):
        check_gamma_palindrome_bound(W3, 0)


def test_b4_goldens():
    rep = check_gamma_recursion(WG, 8)
    assert (rep.lhs, rep.rhs) == (16, 7**5 * 4 * 4 * 16)
    assert rep.holds
    for w in (W3, W37):
        assert word_profile(w).gamma_max[2] == 1


# --- B5 / B6 / B7: log-domain family ---


def test_b5_exact_when_power_of_two():
    rep = check_gamma_closed_form(W3, 16)
    assert rep.rhs == 2**64  # (4*2**10*16)**log2(16)
    assert rep.rhs_log2 is None
    assert rep.holds
    rep = check_gamma_closed_form(W3, 1)
    assert (rep.lhs, rep.rhs) == (1, 1)  # exponent 0: equality


def test_b5_log_domain_when_not_power_of_two():
    rep = check_gamma_closed_form(W3, 3)
    assert rep.rhs is None
    expected = math.log2(3) * (2 + 10 * math.log2(2) + math.log2(3))
    assert rep.rhs_log2 == pytest.approx(expected)
    assert rep.holds and rep.rhs_is_log


def test_b6_b7_goldens():
    rep = check_palindromic_complexity_bound(W3, 4)
    assert rep.lhs == 2 and rep.holds
    rep = check_factor_complexity_bound(W3, 4)
    assert rep.lhs == 10 and rep.holds
    rep = check_palindromic_complexity_bound(W3, 1)
    assert rep.lhs <= 2


# --- B8 ---


def test_b8_golden_equality_on_rich_word():
    rep = check_reversal_inequality(W3, 3)
    assert (rep.lhs, rep.rhs) == (5, 5)
    assert rep.holds and rep.equality
    assert rep.detail == "3+2 = 10-7+2"


def test_b8_golden_on_augmented_word():
    rep = check_reversal_inequality(sentinel_augment(W3), 3)
    assert rep.equality
    assert rep.detail == "4+2 = 14-10+2"


def test_b8_non_rich_palindrome_strict_inequality():
    # palindromes are reversal-closed at every order, rich or not
    rep = check_reversal_inequality(WITNESS, 3)
    assert (rep.lhs, rep.rhs) == (4, 6)
    assert rep.holds
    assert rep.equality is None  # equality verdict is only for rich words
    assert "<=" in rep.detail


def test_b8_preconditions():
    with pytest.raises(ClosureRequiredError):
        check_reversal_inequality(W3, 4)  # F(w,5) misses 10100
    with pytest.raises(ValueError):
        check_reversal_inequality(W("01"), 2)  # needs |w| >= n+1
    with pytest.raises(ValueError):
        check_reversal_inequality(W3, 0)


# --- B9 ---


def test_b9_spec_arithmetic_from_profile():
    # the printed instance (n=4) violates its own closure precondition,
    # so the check refuses it; the arithmetic itself is still verified
    with pytest.raises(ClosureRequiredError):
        check_factor_vs_palindrome_bound(W3, 4)
    p = word_profile(W3)
    assert p.fac[4] == 10
    assert 2 * 3 * p.pal_max[4] - 2 * 3 + p.q == 14


def test_b9_trivial_order_one():
    rep = check_factor_vs_palindrome_bound(W3, 1)
    assert (rep.lhs, rep.rhs) == (2, 2)
    assert rep.holds


def test_b9_requires_richness():
    with pytest.raises(RichnessRequiredError):
        check_factor_vs_palindrome_bound(WITNESS, 4)


def test_b9_forced_violation_witness():
    rep = check_factor_vs_palindrome_bound(WITNESS, 4, force=True)
    assert not rep.holds
    assert not rep.covered
    assert (rep.lhs, rep.rhs) == (10, 8)
    assert rep.detail == "10 <= 2*3*2 - 2*3 + 2 = 8"


# --- B10 / B11 ---


def test_b10_b11_goldens():
    r10, r11 = check_final_bounds(W3, 1)
    assert (r10.rhs, r11.rhs) == (98304, 196610)
    assert r10.holds and r11.holds
    r10, r11 = check_final_bounds(W3, 4)
    assert r10.lhs == 10 and r10.holds
    assert r11.lhs == 10 and r11.holds
    # no closure precondition: n=4 runs even though F(w,5) is not closed
    with pytest.raises(ValueError):
        check_final_bounds(W3, 0)


# --- explicit orders past the end of the word ---


@pytest.mark.parametrize("text", ["0", "01", "0010", "abaab", "5112211311001131133114"])
def test_checks_read_orders_past_the_end_of_the_word(text):
    # past |w| there are no factors, palindromes or switches, and the
    # running maximum of the switch counts keeps its value at |w|
    w = W(text)
    p, q, L = word_profile(w), w.alphabet_size, len(w)

    def at(values, n, past):
        return values[n] if n <= L else past

    pal, fac, sw = (lambda n, a=a: at(a, n, 0) for a in (p.pal, p.fac, p.sw))
    gamma = lambda n: at(p.gamma_max, n, p.gamma_max[L])  # noqa: E731
    # 10**9: an order far past the end costs no more than one just past it
    for n in (L, L + 1, L + 5, 10**9):
        h = (n + 1) // 2
        want = [
            ("B3", pal(n), (q + 1) * n * gamma(n)),
            ("B4", gamma(n), q**5 * h**2 * gamma(h)),
            ("B5", gamma(n), None), ("B6", pal(n), None), ("B7", fac(n), None),
            ("B10", fac(n), None), ("B11", fac(n), None),
        ]
        got = [
            check_gamma_palindrome_bound(w, n), check_gamma_recursion(w, n),
            check_gamma_closed_form(w, n), check_palindromic_complexity_bound(w, n),
            check_factor_complexity_bound(w, n), *check_final_bounds(w, n),
        ]
        if n > 2:
            want.insert(0, ("B1", pal(n), 2 * sw(n) + pal(n - 2)))
            got.insert(0, check_switch_palindrome_bound(w, n))
        else:
            with pytest.raises(ValueError, match="B1 needs n > 2"):
                check_switch_palindrome_bound(w, n)
        for (bound_id, lhs, rhs), rep in zip(want, got, strict=True):
            assert (rep.bound_id, rep.n, rep.lhs) == (bound_id, n, lhs), (w, n)
            if rhs is None:
                rhs = _table_rhs(bound_id, q, n)
                assert (rep.rhs, rep.rhs_log2) == (
                    (rhs.exact, None) if rhs.exact is not None else (None, rhs.log2)
                ), (w, n, bound_id)
            else:
                assert (rep.rhs, rep.holds) == (rhs, lhs <= rhs), (w, n, bound_id)
        rep = check_upsilon_bound(w, n, W(""))
        assert (rep.lhs, rep.rhs, rep.holds) == (0, q * (q - 1), True)
        with pytest.raises(ValueError, match=f"needs \\|w\\| >= {n + 1}"):
            check_reversal_inequality(w, n)
        with pytest.raises(ValueError, match=f"needs \\|w\\| >= {n + 1}"):
            check_factor_vs_palindrome_bound(w, n)
        # evaluate_word at one explicit order gives the same reports
        ids = [rep.bound_id for rep in got]
        assert evaluate_word(w, ids, ns=[n]) == got


# --- B12 ---


def test_b12_goldens():
    rep = check_ceil_product_lemma(1)
    assert (rep.lhs, rep.rhs) == (1, 1)
    rep = check_ceil_product_lemma(8)
    assert rep.lhs == 8
    assert rep.rhs is None and rep.rhs_log2 == pytest.approx(7.5)
    rep = check_ceil_product_lemma(4)
    assert (rep.lhs, rep.rhs) == (2, 16)
    assert rep.word_length is None and rep.q is None
    with pytest.raises(ValueError):
        check_ceil_product_lemma(0)


def test_b12_sweep_to_a_million():
    for n in range(1, 10**6 + 1):
        if not check_ceil_product_lemma(n).holds:
            pytest.fail(f"ceil-product bound failed at n={n}")


# --- log-domain decision policy ---


def _power_of_two(num, den=1):
    """The log-domain right-hand side 2**(num/den) in the table's closed
    form: the coefficient 2**num when num < 0, else (num/den)*lg 2*lg 2."""
    form = (bounds._Form(1, 2**-num, 0, 1, 2, 2) if num < 0
            else bounds._Form(1, 1, num, den, 2, 2))
    return bounds._Rhs(None, num / den, form)


def _decide(lhs, rhs):
    """_decide_log on lhs and rhs, as the table's bound "T" at n = 1."""
    constant = SimpleNamespace(bound_id="T", rhs=lambda p, n: rhs)
    return _decide_log(lhs, rhs.log2, constant, None, 1)


def _recorded_precisions(monkeypatch):
    """The set of precisions _lg_bracket is called at, filled as it runs."""
    precisions = set()
    bracket = bounds._lg_bracket

    def recording(m, p):
        precisions.add(p)
        return bracket(m, p)

    monkeypatch.setattr(bounds, "_lg_bracket", recording)
    return precisions


def test_log_decision_escalates_instead_of_guessing():
    # ties and near-ties must be decided exactly, not by float luck
    assert _decide(2**100, _power_of_two(100))
    assert not _decide(2**100 + 1, _power_of_two(100))
    assert _decide(2**100 - 1, _power_of_two(100))
    assert _decide(0, _power_of_two(-5))


def test_log_decision_escalates_through_both_precisions(monkeypatch):
    # lhs = 2**300 + 1 lies 2**-300 above the rhs in lg, which takes more
    # doublings of the precision than a gap of 2**-30; the exact tie 2**300
    # is decided at the first precision, and so is 2**300 - 1, whose
    # bracket rounded up ends at 300 exactly
    precisions = _recorded_precisions(monkeypatch)
    k = 300
    for lhs, verdict, used in (
        (2**k - 1, True, {64}), (2**k, True, {64}), (2**k + 1, False, {64, 128, 256, 512}),
    ):
        precisions.clear()
        assert _decide(lhs, _power_of_two(k)) is verdict
        assert precisions == used
    precisions.clear()
    assert _decide(2**30 + 1, _power_of_two(30)) is False
    assert precisions == {64}


@pytest.mark.parametrize("p", [0, 1, 2, 3, 5])
def test_lg_bracket_holds_the_logarithm(p):
    # 2**lo <= m**(2**p) <= 2**hi, checked in integers; lo == hi exactly
    # at the powers of two
    for m in [*range(1, 1001), 3**40, 2**61 - 1, 10**30 + 7, 2**100]:
        lo, hi = bounds._lg_bracket(m, p)
        assert 1 << lo <= m ** (2**p) <= 1 << hi, (m, p)
        assert (lo == hi) is (m & (m - 1) == 0), (m, p)
        assert hi - lo <= 2, (m, p)


def test_log_decision_past_the_cap_raises(monkeypatch, capsys):
    # B7's rhs as 3 + 2**-80: fac(1) = 3 of a three-letter word is a
    # near-tie that 128 bits decide, and that 64 bits leave undecided,
    # which raises instead of passing; so does the exact tie rhs = 3 at any
    # cap, since the brackets of lg 3 never part
    from richlab import cli

    b7 = bounds._BOUNDS["B7"]
    near = bounds._Rhs(None, math.log2(3), bounds._Form(3 * 2**80 + 1, 2**80, 0, 1, 1, 1))
    monkeypatch.setitem(bounds._BOUNDS, "B7", dataclasses.replace(
        b7, rhs=lambda p, n: near,
    ))
    w = W("012")
    assert [r.holds for r in evaluate_word(w, ["B7"])] == [True] * 3
    monkeypatch.setattr(bounds, "_BRACKET_CAP", 64)
    with pytest.raises(bounds.UndecidedComparisonError, match=r"^B7 at n=1: lhs=3 "):
        evaluate_word(w, ["B7"])
    assert not issubclass(bounds.UndecidedComparisonError, ValueError)
    capsys.readouterr()
    assert cli.main(["verify", "012", "--bounds", "B7"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("internal error: UndecidedComparisonError: B7 at n=1")
    monkeypatch.setattr(bounds, "_BRACKET_CAP", 256)
    with pytest.raises(bounds.UndecidedComparisonError):
        _decide(3, bounds._Rhs(None, math.log2(3), bounds._Form(3, 1, 0, 1, 1, 1)))


def _table_rhs(bound_id, q, n):
    # these right-hand sides read nothing of the profile but q
    return bounds._BOUNDS[bound_id].rhs(SimpleNamespace(q=q), n)


@pytest.mark.parametrize("bound_id", ["B5", "B6", "B7", "B10", "B11", "B12"])
def test_table_high_precision_rhs_matches_its_float(bound_id):
    # the table's closed forms, which the near-tie tests replace and sweeps
    # seldom reach: their value, read off the bracket at 128 bits, is the
    # float log2, addend folded in as _final_rhs does; and where the rhs
    # is exact, the bracket of log2(exact - addend) meets the form's
    p = 128
    for q, n in itertools.product(range(1, 5), [*range(1, 41), 64, 100, 1000, 4096, 10**6]):
        rhs = _table_rhs(bound_id, q, n)
        f = rhs.form
        lo, hi = _form_bracket(f, p)
        assert hi - lo < f.k_den << 2 * p - 100, (q, n)
        t = lo / (f.k_den << 2 * p)
        value = t + math.log1p(f.addend * 2.0**-t) / math.log(2) if t <= 1020 else t
        assert value == pytest.approx(rhs.log2, rel=1e-12, abs=1e-12), (q, n)
        if rhs.exact is not None:
            x0, x1 = bounds._lg_bracket(rhs.exact - f.addend, p)
            assert f.k_den * x0 << p <= hi and lo <= f.k_den * x1 << p, (q, n)


def _form_bracket(f, p):
    """Integers lo <= k_den * 2**(2p) * log2(rhs - addend) <= hi, for the
    rhs of closed form f, from _lg_bracket."""
    (n0, n1), (d0, d1), (a0, a1), (b0, b1) = (
        bounds._lg_bracket(m, p) for m in (f.c_num, f.c_den, f.a, f.b)
    )
    return ((f.k_den * (n0 - d1) << p) + f.k_num * a0 * b0,
            (f.k_den * (n1 - d0) << p) + f.k_num * a1 * b1)


_STATEMENTS = {
    # each rhs as its paper statement, as a function of (q, n) in decimal
    "B5": lambda q, n, lg: (4 * q**10 * n) ** lg(n),
    "B7": lambda q, n, lg: (q + 1) ** 2 * n**4 * (4 * q**10 * n) ** (2 * lg(n)),
    "B10": lambda q, n, lg: (
        2 * (2 * n - 1) * (q + 1) * 2 * n * (8 * q**10 * n) ** lg(2 * n)
        - 2 * (2 * n - 1) + q
    ),
    "B11": lambda q, n, lg: (q + 1) * 8 * n**2 * (8 * q**10 * n) ** lg(2 * n) + q,
}


@pytest.mark.parametrize(
    "bound_id, q, n", [("B7", 2, 3), ("B11", 2, 6), ("B10", 3, 3), ("B5", 2, 12)]
)
def test_table_high_precision_rhs_decides_the_exact_boundary(bound_id, q, n):
    # lhs = floor(rhs) passes and lhs + 1 fails, both inside the float
    # margin; floor(rhs) comes from the paper's statement of the bound in
    # 150-digit decimal arithmetic, apart from the table's closed form
    import decimal

    rhs = _table_rhs(bound_id, q, n)
    assert rhs.exact is None
    with decimal.localcontext(decimal.Context(prec=150)):
        D = decimal.Decimal

        def lg(x):
            return D(x).ln() / D(2).ln()

        value = _STATEMENTS[bound_id](D(q), D(n), lg)
        lhs = int(value.to_integral_value(rounding=decimal.ROUND_FLOOR))
    b = bounds._BOUNDS[bound_id]
    assert _decide_log(lhs, rhs.log2, b, SimpleNamespace(q=q), n)
    assert not _decide_log(lhs + 1, rhs.log2, b, SimpleNamespace(q=q), n)


# --- reports ---


def test_report_json_round_trip():
    reports = [
        check_reversal_inequality(W3, 3),
        check_gamma_closed_form(W3, 3),
        check_ceil_product_lemma(8),
        check_factor_vs_palindrome_bound(WITNESS, 4, force=True),
    ]
    for rep in reports:
        wire = json.dumps(rep.to_json_dict())
        assert BoundReport.from_json_dict(json.loads(wire)) == rep


def test_report_is_a_frozen_record_with_slots():
    rep = check_gamma_closed_form(W3, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.holds = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rep.n
    assert not hasattr(rep, "__dict__")
    names = tuple(f.name for f in dataclasses.fields(BoundReport))
    assert BoundReport.__slots__ == names
    copy = pickle.loads(pickle.dumps(rep))
    assert copy == rep and hash(copy) == hash(rep) and copy is not rep
    moved = dataclasses.replace(rep, n=4)
    assert moved != rep and (moved.n, moved.detail) == (4, rep.detail)
    assert dataclasses.replace(moved, n=3) == rep
    assert rep != dataclasses.astuple(rep)
    assert list(rep.to_json_dict()) == [
        "bound_id", "word_length", "n", "q", "lhs", "rhs", "rhs_log2",
        "rhs_is_log", "holds", "equality", "covered", "citation", "detail",
    ]
    for r in (rep, check_ceil_product_lemma(1000), check_final_bounds(W3, 5)[1]):
        assert BoundReport.from_json_dict(json.loads(json.dumps(r.to_json_dict()))) == r


def test_every_report_comes_from_its_init(monkeypatch):
    # BoundReport.__init__ builds every report (the benchmark counts reports
    # by wrapping it), and each comes out a frozen BoundReport: B2's per
    # lpps value, B12's shared ones, the closure's B8/B9, and explicit
    # orders, one of them past |w|
    monkeypatch.setattr(bounds, "_RHS_MEMO", {})
    built = []
    init = BoundReport.__init__

    def counted(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(BoundReport, "__init__", counted)
    got = evaluate_word(W3, include_closure=True)
    got += evaluate_word(W37, include_closure=True)
    got += [
        check_switch_palindrome_bound(W3, 3),
        check_upsilon_bound(W3, 3, W("")),
        check_gamma_closed_form(W3, len(W3) + 6),
        check_ceil_product_lemma(7),
        *check_final_bounds(W3, 5),
    ]
    assert {"B2", "B8", "B12"} <= {r.bound_id for r in got}
    assert any(r.word_length == len(palindromic_closure(W3)) for r in got)
    shared = [r for r in got if r.bound_id == "B12" and r.word_length is None]
    assert len({id(r) for r in shared}) < len(shared)  # W3's are W37's
    distinct = {id(r): r for r in got}
    assert len(built) == len(distinct) and {id(r) for r in built} == set(distinct)
    for r in distinct.values():
        assert type(r) is BoundReport
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.holds = not r.holds
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.detail
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is BoundReport and copy == r


def test_report_slack():
    rep = check_reversal_inequality(W3, 3)
    assert rep.slack_log2() == pytest.approx(0.0)
    rep = check_switch_palindrome_bound(W("00"), 3)
    assert rep.slack_log2() is None  # lhs = 0
    rep = check_ceil_product_lemma(8)
    assert rep.slack_log2() == pytest.approx(7.5 - 3.0)


# --- diagnostic partition ---


def test_partition_golden():
    long_side, short_side = diagnostic_trim_gamma_partition(WG, 8)
    assert W("112211") in short_side  # lpps 11 shorter than half of 112211
    assert long_side | short_side == switch_cores(WG, 8)
    assert long_side & short_side == frozenset()


def test_partition_empty_and_errors():
    assert diagnostic_trim_gamma_partition(W("000"), 3) == (
        frozenset(), frozenset(),
    )
    with pytest.raises(ValueError):
        diagnostic_trim_gamma_partition(W3, 2)
    with pytest.raises(RichnessRequiredError):
        diagnostic_trim_gamma_partition(WITNESS, 3)


def test_partition_property_small():
    for w in enumerate_rich(2, 10):
        for n in (3, 5, 8):
            long_side, short_side = diagnostic_trim_gamma_partition(w, n)
            assert long_side | short_side == switch_cores(w, n)
            assert long_side.isdisjoint(short_side)
            for v in long_side:
                assert 2 * len(lpps(v)) >= len(v)
            for v in short_side:
                assert 2 * len(lpps(v)) < len(v)


# --- evaluate_word ---


def test_evaluate_word_filters_bounds_and_orders():
    reports = evaluate_word(W3, bound_ids=["B8"], ns=[3])
    assert [r.bound_id for r in reports] == ["B8"]
    assert reports[0].n == 3
    reports = evaluate_word(W3, bound_ids=["B1", "B12"], ns=[3, 4])
    assert {(r.bound_id, r.n) for r in reports} == {
        ("B1", 3), ("B1", 4), ("B12", 3), ("B12", 4),
    }


def test_evaluate_word_all_orders_all_bounds():
    reports = evaluate_word(W3)
    ids = {r.bound_id for r in reports}
    assert ids == set(BOUND_IDS)
    assert all(r.holds for r in reports)
    # admissible orders only: B8 appears exactly at the closed orders
    b8_ns = sorted(r.n for r in reports if r.bound_id == "B8")
    p = word_profile(W3)
    assert b8_ns == [
        n for n in range(1, len(W3)) if p.closed[n + 1]
    ]


def test_evaluate_word_closure_augmentation():
    plain = evaluate_word(W3, bound_ids=["B8", "B9"])
    with_closure = evaluate_word(W3, bound_ids=["B8", "B9"], include_closure=True)
    extra = len(with_closure) - len(plain)
    closure_len = len(W3) + len(W3) - len(lpps(W3))  # |w| + |prefix before lps|
    assert extra > 0
    # closure reports carry the closure's length, not the word's
    lengths = {r.word_length for r in with_closure}
    assert lengths == {len(W3), closure_len} or lengths == {len(W3)}


def test_evaluate_word_rejects_unknown_bound_at_explicit_order():
    # at explicit orders and at every order alike, and a bare string is
    # read as its letters, as sweep_rich reads it
    for ns in ([3], None):
        with pytest.raises(ValueError, match=r"unknown bound ids: \['B99'\]"):
            evaluate_word(W3, bound_ids=["B99"], ns=ns)
        with pytest.raises(ValueError, match=r"unknown bound ids: \['B13'\]"):
            evaluate_word(W3, ("B13",), ns=ns)
        with pytest.raises(ValueError, match=r"unknown bound ids: \['1', 'B'\]"):
            evaluate_word(W3, "B1", ns=ns)
    with pytest.raises(ValueError, match=r"unknown bound ids: \['1', 'B'\]"):
        sweep_rich(2, 3, "B1")


def test_evaluate_word_reads_each_bound_id_once_in_table_order():
    # repeated or unordered ids give each bound's reports once, in BOUND_IDS
    # order, at explicit orders as at every order, and in sweep_rich
    assert len(evaluate_word(W3, ["B1", "B1"], [3])) == 1
    assert [r.bound_id for r in evaluate_word(W3, ["B3", "B1"], [5])] == ["B1", "B3"]
    for ns in ([3], [5, 4], None):
        want = evaluate_word(W3, ["B1", "B3", "B12"], ns, include_closure=True)
        got = evaluate_word(W3, ["B12", "B3", "B1", "B3"], ns, include_closure=True)
        assert got == want, ns
    assert sweep_rich(2, 5, ("B3", "B1", "B3")).bound_ids == ("B1", "B3")


def test_evaluate_word_force_on_non_rich():
    with pytest.raises(RichnessRequiredError):
        evaluate_word(WITNESS, bound_ids=["B9"], ns=[4])
    reports = evaluate_word(WITNESS, bound_ids=["B9"], ns=[4], force=True)
    assert len(reports) == 1
    assert not reports[0].holds


# --- the collector pause ---


@pytest.mark.parametrize("enabled", [True, False])
def test_evaluate_word_restores_the_collector_state(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        evaluate_word(W3, include_closure=True)
        assert gc.isenabled() is enabled
        with pytest.raises(RichnessRequiredError):
            evaluate_word(W("00101100"), ["B1"], [3])
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError, match="unknown bound ids"):
            evaluate_word(W3, ["B99"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_evaluate_word_builds_its_reports_without_a_collection():
    w = _fibonacci_prefix(300)  # a word of the benchmark's verify_long pool
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(hook)
    try:
        reports = evaluate_word(w, include_closure=True)
        # len allocates nothing the collector tracks, so no pass starts here
        during = len(starts)
        unreachable = gc.collect()
    finally:
        gc.callbacks.remove(hook)
    # the reports alone are more tracked objects than a young collection
    # waits for
    assert len(reports) > gc.get_threshold()[0]
    assert during == 0
    # the pause leaves no garbage for the collector: every slot is atomic,
    # so reference counting freed all that the call dropped
    assert unreachable == 0
    names = [f.name for f in dataclasses.fields(BoundReport)]
    types = {type(getattr(r, name)) for r in reports for name in names}
    assert types <= {str, int, float, bool, type(None)}


def _assert_memo_matches_explicit_orders(w):
    """Every report of evaluate_word(w, include_closure=True), against the
    report of its bound at its own order alone, on w or on its closure."""
    closure = palindromic_closure(w)
    assert len(closure) > len(w)
    reports = evaluate_word(w, include_closure=True)
    at = {}
    for r in reports:
        on = closure if r.word_length == len(closure) else w
        at.setdefault((on, r.bound_id, r.n), []).append(r)
    for (on, bound_id, n), got in at.items():
        want = evaluate_word(on, [bound_id], [n])
        assert _exact([r.to_json_dict() for r in got]) == _exact(
            [r.to_json_dict() for r in want]
        ), (bound_id, n, on is closure)
    return reports


def test_memo_orders_equal_explicit_orders(monkeypatch):
    # the words' reports come from the process-wide memo of the (q, n)-only
    # right-hand sides, the explicit orders compute theirs afresh
    run, runs = bounds._profile_run, {}

    def cached(w):
        # each word is profiled once, and again after a closure profile
        # has extended the run's tree past w
        if w not in runs or len(runs[w][1]) != len(w):
            runs[w] = run(w)
        return runs[w]

    monkeypatch.setattr(bounds, "_profile_run", cached)
    words = [
        _fibonacci_prefix(300),
        _random_rich_word(random.Random(14), 3, 300),
    ]
    for w in words:
        assert word_profile(w).rich and len(w) == 300
        _assert_memo_matches_explicit_orders(w)
    # the memo keeps each log-domain detail text beside its right-hand side
    b5, b12 = bounds._BOUNDS["B5"], bounds._BOUNDS["B12"]
    for w in words:
        texts = bounds._RHS_MEMO[b5.rhs, w.alphabet_size, b5.detail]
        got = [r.detail for r in evaluate_word(w, ["B5"])]
        assert got == texts[1 : len(w) + 1]
    # B12's reports read n alone: built once per process and shared, the
    # same objects for words of any q and length, each equal to the report
    # of check_ceil_product_lemma at its order
    longer = _fibonacci_prefix(600)
    shared = [evaluate_word(w, ["B12"]) for w in (*words, longer)]
    assert [len(reports) for reports in shared] == [300, 300, 600]
    for reports in shared[:2]:
        assert all(a is b for a, b in zip(reports, shared[2]))
    assert shared[2] == bounds._RHS_MEMO[b12.rhs, None, BoundReport][1:601]
    for n, report in enumerate(shared[2], 1):
        assert dataclasses.astuple(report) == dataclasses.astuple(
            check_ceil_product_lemma(n)
        )
    # an explicit order far past the word adds no key and no entry
    lengths = {key: len(column) for key, column in bounds._RHS_MEMO.items()}
    assert {
        (b12.rhs, None, BoundReport), (b5.rhs, 2), (b5.rhs, 2, b5.detail),
        (b5.rhs, 3, b5.detail),
    } <= set(lengths)
    far = [b for b in BOUND_IDS if b not in bounds._CLOSURE_GROUP]
    assert len(evaluate_word(words[0], far, ns=[10**9])) == len(far)
    assert {key: len(column) for key, column in bounds._RHS_MEMO.items()} == lengths

    # again with B5's rhs the log-domain constant 2**0: maxswitch(n) = 1
    # is an exact tie and a larger one a violation, both past the float
    # margin; the memo holds no closed form, so every such decision builds
    # the rhs again
    built = []

    def zero(p, n):
        built.append(n)
        return _power_of_two(0)

    patched = dataclasses.replace(b5, rhs=zero)
    monkeypatch.setitem(bounds._BOUNDS, "B5", patched)
    precisions = _recorded_precisions(monkeypatch)
    for w in words:
        precisions.clear()
        built.clear()
        b5_reports = [r for r in evaluate_word(w) if r.bound_id == "B5"]
        assert precisions == {64} and len(built) > len(w)
        column = bounds._RHS_MEMO[patched.rhs, w.alphabet_size]
        assert len(column) == len(w) + 1
        assert all(entry.form is None for entry in column[1:])
        assert {(r.rhs, r.rhs_log2, r.detail) for r in b5_reports} == {
            (None, 0.0, "log2(rhs)=0")
        }
        assert {(r.lhs == 1, r.holds) for r in b5_reports} == {
            (True, True), (False, False)
        }
        # the text is keyed on the rhs callable: the patched rhs's texts
        # are its own, and B5's own column says otherwise past n = 1
        texts = bounds._RHS_MEMO[patched.rhs, w.alphabet_size, patched.detail]
        assert set(texts[1:]) == {"log2(rhs)=0"}
        own = bounds._RHS_MEMO[b5.rhs, w.alphabet_size, b5.detail]
        assert "log2(rhs)=0" not in own[2:]
        reports = _assert_memo_matches_explicit_orders(w)
        assert [r for r in reports if r.bound_id == "B5"] == b5_reports


# --- sweep runner ---


def test_sweep_counts_small_corpus():
    summary = sweep_rich(2, 7, jobs=1)
    assert summary.words == sum(1 for L in range(8) for _ in enumerate_rich(2, L))
    assert summary.violations == 0
    assert summary.violating == ()
    assert summary.per_bound["B8"]["equalities"] == summary.per_bound["B8"]["reports"]
    assert summary.per_bound["B12"]["reports"] == 7


def test_sweep_parallel_matches_sequential():
    seq = sweep_rich(2, 8, jobs=1)
    par = sweep_rich(2, 8, jobs=2)
    assert seq.words == par.words
    assert seq.reports == par.reports
    assert seq.per_bound == par.per_bound
    d1, d2 = seq.to_json_dict(), par.to_json_dict()
    d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
    assert d1 == d2


def test_sweep_bound_subset_and_closure_toggle():
    only_b8 = sweep_rich(2, 6, bound_ids=("B8",), include_closure=False)
    assert set(only_b8.per_bound) == {"B8"}
    with_closure = sweep_rich(2, 6, bound_ids=("B8",), include_closure=True)
    assert with_closure.reports > only_b8.reports
    with pytest.raises(ValueError):
        sweep_rich(2, 5, bound_ids=("B8", "nope"))


@pytest.mark.parametrize("q", [-1, 0])
def test_sweep_rejects_an_empty_alphabet(q):
    with pytest.raises(ValueError, match="alphabet size must be >= 1"):
        sweep_rich(q, 3)


def test_sweep_rejects_a_negative_length():
    # as rich_counts and enumerate_rich do
    with pytest.raises(ValueError, match="length must be >= 0"):
        sweep_rich(2, -3)


# --- sweep fold against the reports it stands for ---


def _reference_fold(agg, report):
    """The sweep's aggregate step, applied to one materialised report."""
    agg["reports"] += 1
    agg["passes" if report.holds else "violations"] += 1
    if report.equality:
        agg["equalities"] += 1
    if not report.covered:
        agg["uncovered"] += 1
    slack = report.slack_log2()
    if slack is not None:
        lo, hi = agg["min_slack_log2"], agg["max_slack_log2"]
        agg["min_slack_log2"] = slack if lo is None else min(lo, slack)
        agg["max_slack_log2"] = slack if hi is None else max(hi, slack)


def _reference_sweep(q, max_len, ids, include_closure):
    """sweep_rich's JSON less the timing, from evaluate_word's reports on
    every rich word, each folded once, and B12's at orders 1..max_len; its
    "violating" holds every violating report, uncapped, as BoundReports."""
    keys = ("reports", "passes", "violations", "equalities", "uncovered",
            "min_slack_log2", "max_slack_log2")
    per_bound = {b: dict.fromkeys(keys, 0) for b in ids}
    for agg in per_bound.values():
        agg["min_slack_log2"] = agg["max_slack_log2"] = None
    word_ids = [b for b in ids if b != "B12"]
    words, violating = 0, []
    for length in range(max_len + 1):
        for w in enumerate_rich(q, length):
            words += 1
            for r in evaluate_word(w, word_ids, include_closure=include_closure):
                _reference_fold(per_bound[r.bound_id], r)
                if not r.holds:
                    violating.append(r)
    if "B12" in ids:
        for n in range(1, max(max_len, 1) + 1):
            r = check_ceil_product_lemma(n)
            _reference_fold(per_bound["B12"], r)
            if not r.holds:
                violating.append(r)
    return {
        "q": q,
        "max_len": max_len,
        "bound_ids": list(ids),
        "include_closure": include_closure,
        "words": words,
        "reports": sum(agg["reports"] for agg in per_bound.values()),
        "violations": len(violating),
        "per_bound": per_bound,
        "violating": violating,
    }


def _exact(obj):
    """obj with every float spelled out as float.hex."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _exact(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_exact(v) for v in obj]
    return obj


def _assert_sweep_matches(summary, reference, cap=50):
    """summary's JSON less the timing, floats exact, is the reference's with
    its violating reports cut at cap."""
    violating = [r.to_json_dict() for r in reference["violating"][:cap]]
    got = summary.to_json_dict()
    got.pop("elapsed_seconds")
    assert _exact(got) == _exact({**reference, "violating": violating})


@pytest.mark.parametrize("q,max_len", [(2, 10), (3, 7), (4, 5)])
@pytest.mark.parametrize("include_closure", [True, False])
def test_sweep_fold_matches_folded_reports(q, max_len, include_closure):
    for ids in (BOUND_IDS, ("B2",), ("B8", "B9"), ("B10", "B11")):
        reference = _reference_sweep(q, max_len, ids, include_closure)
        for jobs in (1, 2) if ids == BOUND_IDS and include_closure else (1,):
            summary = sweep_rich(
                q, max_len, ids, include_closure=include_closure, jobs=jobs
            )
            _assert_sweep_matches(summary, reference, cap=50)


@pytest.mark.parametrize("q,max_len", [(3, 7), (4, 5)])
def test_sharded_sweep_matches_folded_reports(monkeypatch, q, max_len):
    from richlab import bounds

    # a shard prefix below max_len makes jobs=2 run the prefix-sharded pool
    monkeypatch.setattr(bounds, "DEFAULT_SHARD_PREFIX", 3)
    reference = _reference_sweep(q, max_len, BOUND_IDS, True)
    summary = sweep_rich(q, max_len, BOUND_IDS, include_closure=True, jobs=2)
    _assert_sweep_matches(summary, reference, cap=50)


def test_sweep_materialises_exactly_the_violating_reports(monkeypatch):
    from richlab import bounds

    # B8 holds with equality on every rich word, so one less on the right
    # fails it almost everywhere, closures included (a slack needs rhs >= 1);
    # a log-domain B10 of 2**(n/2) fails wherever fac(n) > 2**(n/2).
    b8, b10 = bounds._BOUNDS["B8"], bounds._BOUNDS["B10"]
    monkeypatch.setitem(bounds._BOUNDS, "B8", dataclasses.replace(
        b8, rhs=lambda p, ns: [max(1, rhs - 1) for rhs in b8.rhs(p, ns)],
    ))
    monkeypatch.setitem(bounds._BOUNDS, "B10", dataclasses.replace(
        b10, rhs=lambda p, n: _power_of_two(n, 2),
    ))
    ids = ("B8", "B9", "B10", "B11")
    reference = _reference_sweep(3, 6, ids, True)
    assert {r.bound_id for r in reference["violating"]} == {"B8", "B10"}
    assert len(reference["violating"]) > 200
    for cap, jobs in ((7, 1), (50, 1), (10**6, 1), (30, 2)):
        summary = sweep_rich(
            3, 6, ids, include_closure=True, jobs=jobs, violation_cap=cap
        )
        _assert_sweep_matches(summary, reference, cap)
    # with a shard prefix of 3, jobs=2 runs the prefix-sharded pool; the
    # words shorter than the prefix, one task, hold more violations than
    # cap 7 and fewer than cap 30, the rest sit in the prefix shards
    monkeypatch.setattr(bounds, "DEFAULT_SHARD_PREFIX", 3)
    short = [
        r for n in range(3) for w in enumerate_rich(3, n)
        for r in evaluate_word(w, ids, include_closure=True) if not r.holds
    ]
    assert 7 < len(short) < 30
    for cap in (7, 30, 10**6):
        summary = sweep_rich(3, 6, ids, include_closure=True, jobs=2, violation_cap=cap)
        _assert_sweep_matches(summary, reference, cap)

    # a log-domain B2 of 1/2 fails on every switch core of length >= 2, and
    # its detail names the lpps value r in the word itself, not in the
    # canonical form of the word, which is all the sweep walks
    b2 = bounds._BOUNDS["B2"]
    half = _power_of_two(-1)
    monkeypatch.setitem(bounds._BOUNDS, "B2", dataclasses.replace(
        b2, rhs=lambda p, n: half if n >= 2 else b2.rhs(p, n),
        detail=lambda p, n, lhs, rhs, r: f"r={Word(r, p.q).text!r}: {lhs}",
    ))
    ids = ("B2", "B8")
    reference = _reference_sweep(3, 6, ids, True)
    details = {r.detail for r in reference["violating"] if r.bound_id == "B2"}
    canonical_details = {
        r.detail for n in range(7) for w in enumerate_rich(3, n, canonical=True)
        for r in evaluate_word(w, ("B2",)) if not r.holds
    }
    assert canonical_details < details
    # the orbits of different canonical words interleave within the first 7
    violators = [
        w for n in range(7) for w in enumerate_rich(3, n)
        if not all(r.holds for r in evaluate_word(w, ids, include_closure=True))
    ]
    forms = [_canonical_form(w) for w in violators[:7]]
    assert any(forms[i] == forms[k] != forms[j]
               for i, j, k in itertools.combinations(range(7), 3))
    for cap in (7, 30, 10**6):
        for jobs in (1, 2):
            summary = sweep_rich(3, 6, ids, include_closure=True, jobs=jobs,
                                 violation_cap=cap)
            _assert_sweep_matches(summary, reference, cap)

    # a log-domain B12 of 2**(n/4) fails at n = 3, 5 and 6 and ties at 4;
    # the sweep folds B12 from its columns and builds its reports only
    # because one fails
    b12 = bounds._BOUNDS["B12"]
    monkeypatch.setitem(bounds._BOUNDS, "B12", dataclasses.replace(
        b12, rhs=lambda p, n: _power_of_two(n, 4),
    ))
    ids = ("B9", "B12")
    reference = _reference_sweep(3, 6, ids, True)
    assert [r.n for r in reference["violating"]] == [3, 5, 6]
    for cap in (2, 10**6):
        _assert_sweep_matches(sweep_rich(3, 6, ids, violation_cap=cap), reference, cap)


def test_sweep_decides_table_near_ties_at_high_precision(monkeypatch):
    # B5's rhs as the log-domain constant 2**0 (the right-hand side memo
    # is keyed on the callable, so it reads none of the table's B5
    # entries): a report with maxswitch(n) = 1 is an exact tie, which the
    # integer brackets settle at their first precision, and holds; one
    # with maxswitch(n) >= 2 violates
    b5 = bounds._BOUNDS["B5"]
    one = _power_of_two(0)
    monkeypatch.setitem(bounds._BOUNDS, "B5", dataclasses.replace(
        b5, rhs=lambda p, n: one,
    ))
    reports = [
        r for n in range(7) for w in enumerate_rich(3, n)
        for r in evaluate_word(w, ("B5",))
    ]
    assert {(r.lhs == 1, r.holds) for r in reports} == {(True, True), (False, False)}
    ids = ("B3", "B5", "B8")
    reference = _reference_sweep(3, 6, ids, True)
    assert reference["per_bound"]["B5"]["max_slack_log2"] == 0.0
    precisions = _recorded_precisions(monkeypatch)
    # a shard prefix of 3 makes jobs=2 run the prefix-sharded pool
    monkeypatch.setattr(bounds, "DEFAULT_SHARD_PREFIX", 3)
    for jobs in (1, 2):
        precisions.clear()
        summary = sweep_rich(3, 6, ids, include_closure=True, jobs=jobs)
        _assert_sweep_matches(summary, reference, cap=50)
        if jobs == 1:
            assert precisions == {64}


def _canonical_form(w):
    """w renamed so that its letters first occur in the order 0, 1, 2, ..."""
    names = {}
    return tuple(names.setdefault(c, len(names)) for c in w)


# --- orbit-weighted sweep against the per-word fold ---


def _unit(reports):
    """reports folded into a sweep unit, in bounds._KEYS order."""
    agg = dict.fromkeys(bounds._KEYS, 0)
    agg["min_slack_log2"] = agg["max_slack_log2"] = None
    for r in reports:
        _reference_fold(agg, r)
    return tuple(agg[k] for k in bounds._KEYS)


@pytest.mark.parametrize("q,max_len", [(2, 12), (3, 8), (4, 5)])
@pytest.mark.parametrize("include_closure", [True, False])
def test_orbit_weighted_sweep_equals_the_per_word_fold(
    monkeypatch, q, max_len, include_closure
):
    reference = _reference_sweep(q, max_len, BOUND_IDS, include_closure)
    # a shard prefix of 3 makes jobs=2 run the prefix-sharded pool
    monkeypatch.setattr(bounds, "DEFAULT_SHARD_PREFIX", 3)
    for jobs in (1, 2):
        summary = sweep_rich(q, max_len, include_closure=include_closure, jobs=jobs)
        _assert_sweep_matches(summary, reference)


@pytest.mark.parametrize("q,max_len", [(2, 10), (3, 6)])
def test_sweep_that_flushes_its_memo_equals_the_per_word_fold(monkeypatch, q, max_len):
    # a memo of at most ten signatures is merged and cleared many times
    reference = _reference_sweep(q, max_len, BOUND_IDS, True)
    monkeypatch.setattr(bounds, "_UNITS_CAP", 10)
    _assert_sweep_matches(sweep_rich(q, max_len), reference)


# --- the sweep's column fold against the reports it stands for ---


@pytest.mark.parametrize("q,max_len", [(2, 12), (3, 8), (4, 5)])
def test_column_fold_equals_the_row_fold(q, max_len):
    # every canonical word, each bound folded from the columns the sweep
    # reads and from the reports evaluate_word builds; then B8/B9 on the
    # word's palindromic closure
    for symbols, _ in _walk(q, (), max_len, True):
        w = Word.from_symbols(symbols, q)
        profile = word_profile(w)
        fields = _signed_fields(profile)
        closure = word_profile(palindromic_closure(w))
        for b in bounds._TABLE[:-1]:
            for p, f in ((profile, fields), (closure, closure)):
                if p is closure and b.bound_id not in bounds._CLOSURE_GROUP:
                    continue
                want = _exact(_unit(bounds._rows(p, [(b.bound_id,)], None, False)))
                assert _exact(bounds._fold_columns(b, f, len(p.word))) == want, (
                    w, b.bound_id, p is closure
                )
    # B12 reads no word: the sweep folds it once, over orders 1..max_len
    b12 = bounds._BOUNDS["B12"]
    for top in range(1, 70):
        reports = bounds._rows(None, [("B12",)], range(1, top + 1), False)
        assert bounds._fold_columns(b12, None, top) == _unit(reports), top


# --- the sweep's per-bound signatures ---


class _RecordingProfile:
    """A WordProfile stand-in that records each field read through it."""

    def __init__(self, profile, seen):
        self._profile, self._seen = profile, seen

    def __getattr__(self, name):
        self._seen.add(name)
        return getattr(self._profile, name)


def _signed_fields(profile):
    """The fields of profile as a sweep signs them: B2's fibres by their sizes."""
    pairs = tuple(sorted(
        (n, size) for n, fibres in enumerate(profile.fibres) for _, size in fibres
    ))
    fields = {f.name: getattr(profile, f.name) for f in dataclasses.fields(WordProfile)}
    return SimpleNamespace(**{**fields, "fibres": pairs})


def test_bound_reads_declare_every_field_its_rows_read():
    words = {
        Word.from_symbols(t, q) for q, max_len in ((2, 8), (3, 6))
        for n in range(max_len + 1) for t in itertools.product(range(q), repeat=n)
    }
    words |= {palindromic_closure(w) for w in words}
    profiles = [word_profile(w) for w in words]
    for b in bounds._TABLE:
        seen, folded = set(), set()
        for profile in profiles:
            p = _RecordingProfile(profile, seen)
            # building the reports runs their detail text, which reads
            # fields too
            list(bounds._rows(p, [(b.bound_id,)], None, True))
            if b.bound_id != "B12" and (profile.rich or not b.rich):
                # the sweep's fold reads its columns from the same fields
                p = _RecordingProfile(_signed_fields(profile), folded)
                bounds._fold_columns(b, p, len(profile.word))
        assert seen - {"q", "rich", "word"} == set(b.reads), b.bound_id
        if b.bound_id != "B12":
            assert folded - {"q", "rich"} == set(b.reads), b.bound_id
            # a per-length field fixes |w|, so the signature needs no length
            assert b.reads, b.bound_id


@pytest.mark.parametrize("ids", [("B12",), ()])
def test_sweep_without_word_bounds_profiles_no_word(monkeypatch, ids):
    reference = _reference_sweep(2, 8, ids, True)

    def refuse(w):
        raise AssertionError("profiled a word")

    monkeypatch.setattr(bounds, "word_profile", refuse)
    monkeypatch.setattr(bounds, "_profile_run", refuse)
    _assert_sweep_matches(sweep_rich(2, 8, ids), reference)
