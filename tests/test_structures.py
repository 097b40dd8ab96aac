"""Rich-word structures: returns, switches, core partitions, compression,
closure, sentinel augmentation, Rauzy graphs."""

import random

import pytest

from richlab.enumeration import enumerate_rich
from richlab.oracle import (
    oracle_closure,
    oracle_complete_returns,
    oracle_max_switch_count,
    oracle_switches,
)
from richlab.paltree import PalIndex, is_rich, lpps
from richlab.structures import (
    CompressionDomainError,
    complete_returns,
    cores_with_lpps,
    is_strongly_connected,
    max_switch_count,
    pal_compress,
    pal_reconstruct,
    palindromic_closure,
    rauzy_graph,
    sentinel_augment,
    switch_cores,
    switch_pairs,
    switches,
)
from richlab.words import Word, factors, is_palindrome, is_reversal_closed, reverse

W = Word.parse

W37 = W("2110112333211011454110116110116778776")
WG = W("5112211311001131133114111146")
WU = W("5112211311001131133114")
W3 = W("1100100010011001010")


def all_words(q: int, n: int):
    for m in range(n + 1):
        stack = [Word("", q)]
        for _ in range(m):
            stack = [w + Word(chr(c), q) for w in stack for c in range(q)]
        yield from stack


def rich_words(q: int, max_len: int):
    for n in range(max_len + 1):
        yield from enumerate_rich(q, n)


# --- complete returns ---


def test_complete_returns_goldens():
    got = complete_returns(W("321234321252126"), W("212"))
    assert W("212343212") in got
    assert complete_returns(W("00"), W("0")) == frozenset([W("00")])
    assert complete_returns(W("0110"), W("01")) == frozenset()
    assert complete_returns(W("0110"), W("22")) == frozenset()


def test_complete_returns_rejects_empty_target():
    with pytest.raises(ValueError):
        complete_returns(W("010"), Word(""))


def test_complete_returns_matches_oracle():
    for w in all_words(2, 8):
        for n in range(1, len(w) + 1):
            for u in factors(w, n):
                assert complete_returns(w, u) == oracle_complete_returns(w, u)


def test_complete_returns_to_palindromes_are_palindromes_in_rich_words():
    for w in rich_words(2, 11):
        for u in PalIndex(w).palindromes():
            if len(u) == 0:
                continue
            assert all(is_palindrome(r) for r in complete_returns(w, u))


# --- switches ---


def test_switches_goldens():
    assert {rec.word.text for rec in switches(WG, 8)} == {
        "51122113", "31133114", "14111146",
    }
    assert {rec.word.text for rec in switches(W37, 7)} == {
        "2110114", "4110116",
    }
    assert switches(W37, 2) == frozenset()
    assert switches(W37, 0) == frozenset()


def test_switch_record_shape():
    for rec in switches(WG, 8):
        assert rec.left != rec.right
        assert is_palindrome(rec.core)
        assert len(rec.word) == len(rec.core) + 2
        assert rec.word.symbols == (rec.left,) + rec.core.symbols + (rec.right,)


def test_switch_pairs_golden():
    pairs = {(p.core.text, p.letter) for p in switch_pairs(WG, 8)}
    assert pairs == {
        ("112211", 3), ("112211", 5),
        ("113311", 3), ("113311", 4),
        ("411114", 1), ("411114", 6),
    }
    assert switch_pairs(WG, 1) == frozenset()


def test_core_without_switch_stays_out():
    # 110011 is a length-6 palindromic factor of WG yet is no switch core
    idx = PalIndex(WG)
    assert W("110011") in idx.palindromes_of_length(6)
    assert W("110011") not in switch_cores(WG, 8)


def test_switches_match_oracle_exhaustively():
    for w in all_words(2, 8):
        for n in range(len(w) + 1):
            assert switches(w, n) == oracle_switches(w, n)


# --- core partition by longest proper palindromic suffix ---


def test_cores_with_lpps_goldens():
    got = cores_with_lpps(WU, 6, W("11"))
    assert {u.text for u in got} == {"112211", "113311"}
    assert W("110011") not in got
    assert cores_with_lpps(WU, 6, W("00")) == frozenset()


def test_core_classes_partition_the_cores():
    for q, max_len in ((2, 12), (3, 8)):
        for w in rich_words(q, max_len):
            for n in range(1, len(w) - 1):
                cores = switch_cores(w, n + 2)
                fibers = {}
                for u in cores:
                    fibers.setdefault(lpps(u).chars, set()).add(u)
                for r_chars, members in fibers.items():
                    r = Word(r_chars, q)
                    assert cores_with_lpps(w, n, r) == frozenset(members)
                    # no class exceeds the number of ordered letter pairs
                    assert len(members) <= q * (q - 1)
                merged = set()
                for members in fibers.values():
                    assert merged.isdisjoint(members)
                    merged |= members
                assert merged == set(cores)


def test_binary_cores_of_one_order_distinct_by_ends_and_suffix():
    # within one order of a rich binary word, the end letters plus a
    # nonempty lpps of the core pin down the core
    for w in rich_words(2, 13):
        for n in range(4, len(w) + 1):
            seen = {}
            for rec in switches(w, n):
                r = lpps(rec.core).chars
                if r == "":
                    continue
                key = (rec.left, rec.right, r)
                assert seen.setdefault(key, rec.core) == rec.core


def test_core_suffix_collisions_exist_outside_that_scope():
    # single-letter cores share lpps = eps ...
    w = W("0011")
    assert is_rich(w)
    recs = {(r.left, r.core.text, r.right) for r in switches(w, 3)}
    assert {(0, "0", 1), (0, "1", 1)} <= recs
    assert lpps(W("0")) == lpps(W("1")) == Word("")
    # ... cores of different orders can collide on nonempty lpps ...
    w = W("000101")
    assert is_rich(w)
    assert (0, W("00"), 1) in {
        (r.left, r.core, r.right) for r in switches(w, 4)
    }
    assert (0, W("010"), 1) in {
        (r.left, r.core, r.right) for r in switches(w, 5)
    }
    assert lpps(W("00")) == lpps(W("010")) == W("0")
    # ... and on three letters even same-order cores can collide
    w = W("0101212")
    assert is_rich(w)
    cores = {(r.left, r.core.text, r.right) for r in switches(w, 5)}
    assert {(0, "101", 2), (0, "121", 2)} <= cores
    assert lpps(W("101")) == lpps(W("121")) == W("1")


def test_switch_pair_membership_for_equal_end_windows():
    # rich w, palindrome u: a.u.a in F(w,n) plus any differing window
    # b1.u.b2 in F(w,n) forces (u, a) into the switch pairs of order n.
    # Binary is exhaustive to length 14; ternary is cut at length 9 to
    # stay at desk scale.
    for q, max_len in ((2, 14), (3, 9)):
        for w in rich_words(q, max_len):
            s = w.chars
            for n in range(3, len(s) + 1):
                by_core = {}
                for i in range(len(s) - n + 1):
                    core = s[i + 1 : i + n - 1]
                    if core == core[::-1]:
                        by_core.setdefault(core, set()).add(
                            (s[i], s[i + n - 1])
                        )
                for pairs in by_core.values():
                    if len(pairs) < 2:
                        continue
                    letters = {c for a, b in pairs if a != b for c in (a, b)}
                    for a, b in pairs:
                        if a == b:
                            assert a in letters


# --- maximum switch count ---


def test_max_switch_count_goldens():
    assert max_switch_count(WG, 8) == 16
    assert max_switch_count(WG, 2) == 1
    assert max_switch_count(W37, 2) == 1
    assert max_switch_count(Word(""), 5) == 1


def test_max_switch_count_rejects_negative_bound():
    with pytest.raises(ValueError):
        max_switch_count(W("01"), -1)


def test_max_switch_count_matches_oracle():
    rng = random.Random(11)
    for w in all_words(2, 7):
        for n in (0, 2, 3, 5, 9):
            assert max_switch_count(w, n) == oracle_max_switch_count(w, n)
    for _ in range(25):
        w = Word.from_symbols([rng.randrange(3) for _ in range(30)], 3)
        assert max_switch_count(w, 12) == oracle_max_switch_count(w, 12)


# --- palindrome compression ---


def test_compress_golden_odd_prefix():
    res = pal_compress(W("1232123212321"), W("12321232123212321"))
    assert res.fragment == W("12321")
    assert res.half == W("321")
    assert (res.window_start, res.window_end) == (7, 9)
    assert res.v_length == 17
    assert res.prefix_odd is True


def test_compress_golden_even_prefix():
    res = pal_compress(W("21122112"), W("211221122112"))
    assert res.fragment == W("1221")
    assert res.half == W("21")
    assert (res.window_start, res.window_end) == (5, 6)
    assert res.v_length == 12
    assert res.prefix_odd is False


def test_compress_golden_single_letter():
    res = pal_compress(W("0"), W("00"))
    assert res.fragment == W("0")
    assert (res.window_start, res.window_end) == (1, 1)
    assert pal_reconstruct(res.fragment, 2) == W("00")


@pytest.mark.parametrize(
    "u, v, code",
    [
        ("01", "0110", "not-palindrome"),
        ("0", "01", "not-palindrome"),
        ("11", "0110", "not-prefix"),
        ("0", "0110", "length-window"),
        ("00", "00", "length-window"),
    ],
)
def test_compress_rejects_bad_domains(u, v, code):
    with pytest.raises(CompressionDomainError) as exc:
        pal_compress(W(u), W(v))
    assert exc.value.code == code


def test_reconstruct_goldens():
    assert pal_reconstruct(W("12321"), 17) == W("12321232123212321")
    assert pal_reconstruct(W("1221"), 12) == W("211221122112")


def test_reconstruct_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pal_reconstruct(W("01"), 4)  # fragment not a palindrome
    with pytest.raises(ValueError):
        pal_reconstruct(W("0"), 1)  # target too short
    with pytest.raises(ValueError):
        pal_reconstruct(Word(""), 4)
    with pytest.raises(ValueError):
        pal_reconstruct(W("010"), 4)  # window incompatible with length


def binary_palindromes(max_len: int):
    for length in range(1, max_len + 1):
        half = (length + 1) // 2
        for bits in range(2**half):
            left = format(bits, f"0{half}b")
            middle = left[::-1] if length % 2 == 0 else left[-2::-1]
            yield W(left + middle)


def test_compression_round_trip_small():
    for v in binary_palindromes(12):
        for u_len in range((len(v) + 1) // 2, len(v)):
            u = v[:u_len]
            if not is_palindrome(u):
                continue
            res = pal_compress(u, v)
            assert is_palindrome(res.fragment)
            assert len(res.fragment) <= (len(v) + 1) // 2
            assert res.prefix_odd == (u_len % 2 == 1)
            assert pal_reconstruct(res.fragment, len(v)) == v


# --- palindromic closure ---


def test_closure_goldens():
    assert palindromic_closure(W("12321")) == W("12321")
    assert palindromic_closure(W("011")) == W("0110")
    assert palindromic_closure(Word("")) == Word("")


def test_closure_matches_oracle_exhaustively():
    for w in all_words(2, 10):
        assert palindromic_closure(w) == oracle_closure(w)


def test_closure_preserves_richness():
    for w in enumerate_rich(2, 12):
        v = palindromic_closure(w)
        assert is_rich(v)
        assert v.chars.startswith(w.chars)
    rng = random.Random(3)
    for _ in range(50):
        w = Word("", 2)
        while len(w) < 20:
            c = Word(chr(rng.randrange(2)), 2)
            if is_rich(w + c):
                w = w + c
        v = palindromic_closure(w)
        assert is_rich(v)
        for n in range(1, len(v) + 1):
            assert is_reversal_closed(factors(v, n))


# --- sentinel augmentation ---


def test_sentinel_golden():
    aug = sentinel_augment(W3)
    assert aug.text == "1100100010011001010" + "2" + "0101001100100010011"
    assert aug.alphabet_size == 3
    assert is_palindrome(aug)
    assert len(factors(aug, 3)) == 7 + 3
    assert len(factors(aug, 4)) == 10 + 4


def test_sentinel_of_empty_word():
    aug = sentinel_augment(Word(""))
    assert aug.symbols == (1,)
    aug2 = sentinel_augment(Word("", 2))
    assert aug2.symbols == (2,)


def test_sentinel_is_always_a_palindrome():
    for w in all_words(2, 7):
        assert is_palindrome(sentinel_augment(w))


def new_factor_set(w: Word, k: int):
    sentinel = w.alphabet_size
    return {u for u in factors(sentinel_augment(w), k) if sentinel in u.symbols}


def test_sentinel_new_factor_counts_and_palindromes():
    for w in all_words(2, 8):
        if len(w) == 0:
            continue
        for n in range(1, len(w) + 1):
            fresh = new_factor_set(w, n) | new_factor_set(w, n + 1)
            assert len(new_factor_set(w, n)) == n
            assert sum(1 for u in fresh if is_palindrome(u)) == 1


def test_sentinel_factor_count_identity_needs_reversal_closure():
    # |F(w~, k)| = |F(w, k)| + k whenever F(w, k) is closed under reversal
    for w in all_words(2, 9):
        aug = sentinel_augment(w)
        for k in range(1, len(w) + 1):
            base = factors(w, k)
            if is_reversal_closed(base):
                assert len(factors(aug, k)) == len(base) + k
    # ... and can fail otherwise: 001x100 picks up 10 = reverse(01)
    w = W("001")
    assert not is_reversal_closed(factors(w, 2))
    assert len(factors(sentinel_augment(w), 2)) > len(factors(w, 2)) + 2


# --- Rauzy graphs ---


def test_rauzy_graph_of_augmented_word_is_strongly_connected():
    g = rauzy_graph(sentinel_augment(W3), 3)
    assert is_strongly_connected(g)


def test_rauzy_graph_counts_and_direction():
    w = W("0011")
    g = rauzy_graph(w, 2)
    assert g.vertex_count == len(factors(w, 2))
    assert g.edge_count == len(factors(w, 3))
    assert (W("00"), W("01")) in g.edges
    assert not is_strongly_connected(g)


def test_rauzy_graph_single_vertex_loop():
    g = rauzy_graph(W("00"), 1)
    assert g.vertices == frozenset([W("0")])
    assert g.edges == frozenset([(W("0"), W("0"))])
    assert is_strongly_connected(g)


def test_rauzy_graph_rejects_bad_orders():
    with pytest.raises(ValueError):
        rauzy_graph(W("0011"), 0)
    with pytest.raises(ValueError):
        rauzy_graph(W("00"), 2)


def test_rauzy_counts_match_factor_counts():
    for w in all_words(2, 6):
        for n in range(1, len(w)):
            g = rauzy_graph(w, n)
            assert g.vertex_count == len(factors(w, n))
            assert g.edge_count == len(factors(w, n + 1))


def test_reverse_symmetry_of_switches():
    # reversing the word swaps switch ends but keeps cores
    rng = random.Random(5)
    for _ in range(40):
        w = Word.from_symbols([rng.randrange(3) for _ in range(25)], 3)
        for n in (3, 6, 9):
            fwd = {(r.left, r.core.chars, r.right) for r in switches(w, n)}
            bwd = {
                (r.right, r.core.chars[::-1], r.left)
                for r in switches(reverse(w), n)
            }
            assert fwd == bwd
