"""Palindromic index: incremental tree, richness, defect, lps family."""

import random

import pytest

from richlab.oracle import oracle_palindrome_set
from richlab.paltree import (
    Eertree,
    PalIndex,
    defect,
    is_rich,
    lpp,
    lppp,
    lpps,
    lps,
    palindrome_length_counts,
)
from richlab.words import Word, factors

W = Word.parse

# 37-symbol running example reused across the structure tests
W37 = W("2110112333211011454110116110116778776")


def all_words(q: int, n: int):
    for m in range(n + 1):
        stack = [Word("", q)]
        for _ in range(m):
            stack = [w + Word(chr(c), q) for w in stack for c in range(q)]
        yield from stack


# --- incremental tree ---


def test_append_flags_match_snapshot_index():
    for text in ("0110100", "00110100", "012210", "1100100010011001010"):
        w = W(text)
        tree = Eertree()
        flags = []
        for c in w:
            made = tree.creates(c)
            flags.append(tree.append(c))
            assert made is flags[-1]
        assert tuple(flags) == PalIndex(w).created_flags
        assert sum(flags) == tree.distinct_nonempty


def test_append_pop_round_trip():
    rng = random.Random(7)
    tree = Eertree()
    base = [rng.randrange(2) for _ in range(40)]
    for c in base:
        tree.append(c)
    nodes, last = tree.node_count, tree.last_node()
    for _ in range(200):
        extra = [rng.randrange(2) for _ in range(rng.randrange(1, 8))]
        for c in extra:
            tree.append(c)
        for _ in extra:
            tree.pop()
        assert tree.node_count == nodes
        assert tree.last_node() == last
        assert len(tree) == len(base)


def test_pop_exactly_undoes_node_creation():
    tree = Eertree()
    assert tree.append(0) is True
    assert tree.append(0) is True  # 00
    assert tree.append(0) is True  # 000
    tree.pop()
    # re-appending rediscovers 000 as a fresh node again
    assert tree.append(0) is True


def _shape(tree):
    """Each node's length and its suffix link's length, in node order."""
    return [
        (tree.node_length(v), tree.node_length(tree.suffix_link(v)))
        for v in range(tree.node_count)
    ]


def _state(tree):
    return len(tree), tree.node_count, tree.last_node(), len(tree._history)


@pytest.mark.parametrize("q", [2, 3, 4, 255])
def test_creates_agrees_with_append_under_random_appends_and_pops(q):
    rng = random.Random(1000 + q)
    # over 255 letters a uniform draw almost never repeats a letter, so the
    # word is drawn from a few of them; creates is still asked about every one
    draw = range(q) if q <= 4 else (0, 1, 2, 254)
    tree = Eertree()
    word = []
    for _ in range(300):
        state = _state(tree)
        for c in range(q):
            made = tree.creates(c)
            assert _state(tree) == state
            assert tree.append(c) is made, (word, c)
            tree.pop()
            assert _state(tree) == state
        assert tree._word == word
        fresh = Eertree()
        for c in word:
            fresh.append(c)
        assert _shape(tree) == _shape(fresh)
        assert tree.last_node() == fresh.last_node()
        # grow to about 30 symbols, with runs of pops; the words are
        # mostly not rich
        if word and rng.random() < (0.3 if len(word) < 30 else 0.7):
            tree.pop()
            word.pop()
        else:
            c = rng.choice(draw)
            tree.append(c)
            word.append(c)


# --- snapshot index ---


def test_node_word_still_checks_the_alphabet():
    # the tree takes any symbol; the public node_word must refuse one that
    # does not fit the alphabet size it is asked for
    tree = Eertree()
    tree.append(5)
    with pytest.raises(ValueError):
        tree.node_word(2, 2)
    assert tree.node_word(2, 6) == Word("\x05", 6)


def test_index_counts_per_prefix():
    idx = PalIndex(W("0110"))
    # prefixes: eps, 0, 01, 011, 0110 -> 1, 2, 3, 4, 5 palindromes incl. eps
    assert idx.counts_by_prefix == (1, 2, 3, 4, 5)
    assert idx.distinct_count == 5


def test_index_of_empty_word():
    idx = PalIndex(Word(""))
    assert idx.distinct_count == 1
    assert idx.palindromes() == frozenset([Word("")])
    assert idx.lps_word == Word("")
    assert idx.lpps_word == Word("")


def test_length_seven_palindromes_of_running_example():
    idx = PalIndex(W37)
    got = {u.text for u in idx.palindromes_of_length(7)}
    assert got == {
        "1233321", "2110112", "1145411", "6110116", "6778776", "0116110",
    }
    assert {u.text for u in idx.palindromes_of_length(5)} == {
        "23332", "11011", "14541", "77877", "11611",
    }


def test_node_counts_match_oracle_exhaustively():
    # one index node per distinct palindromic factor, length by length
    for w in all_words(2, 10):
        idx = PalIndex(w)
        by_len = {}
        for u in oracle_palindrome_set(w):
            by_len[len(u)] = by_len.get(len(u), 0) + 1
        for n in range(len(w) + 1):
            assert idx.count_of_length(n) == by_len.get(n, 0)


def test_palindrome_set_matches_oracle_on_random_ternary_word():
    rng = random.Random(37)
    w = Word.from_symbols([rng.randrange(3) for _ in range(200)], 3)
    assert PalIndex(w).palindromes() == oracle_palindrome_set(w)


def test_palindrome_length_counts_golden():
    counts = palindrome_length_counts(W("0110"))
    assert dict(counts) == {0: 1, 1: 2, 2: 1, 4: 1}


# --- lps / lpp / lpps / lppp ---


def test_lps_goldens():
    assert lps(W("0110100")) == W("00")
    assert lps(W("12321")) == W("12321")
    assert lpp(W("1232")) == W("1")


def test_lps_rejects_empty_word():
    with pytest.raises(ValueError):
        lps(Word(""))
    with pytest.raises(ValueError):
        lpp(Word(""))


def test_lpps_goldens():
    assert lpps(W("112211")) == W("11")
    assert lpps(W("113311")) == W("11")
    assert lpps(W("5")) == Word("", 6)
    assert lppp(W("112211")) == W("11")


def test_lpps_is_empty_for_short_words():
    assert lpps(Word("")) == Word("")
    assert lpps(W("00")) == W("0")
    assert lppp(W("01")) == W("0")


def test_lpps_preserves_alphabet_size():
    # same symbols, different declared alphabets: cache must not mix them
    a = lpps(Word("\x00\x00", alphabet_size=2))
    b = lpps(Word("\x00\x00", alphabet_size=4))
    assert a.alphabet_size == 2
    assert b.alphabet_size == 4


def test_lps_family_against_definition():
    def pals_of(w):
        return [w[i:] for i in range(len(w) + 1)]

    for w in all_words(2, 8):
        if len(w) == 0:
            continue
        suffixes = [s for s in pals_of(w) if s.chars == s.chars[::-1]]
        longest = max(suffixes, key=len)
        assert lps(w) == longest
        proper = [s for s in suffixes if len(s) < len(w)]
        expected = max(proper, key=len) if proper else Word("", 2)
        assert lpps(w) == expected


# --- richness and defect ---


def test_is_rich_goldens():
    assert is_rich(W("1100100010011001010"))
    assert not is_rich(W("00110100"))
    assert is_rich(Word(""))
    assert is_rich(W37)


def test_defect_goldens():
    assert defect(W("1100100010011001010")) == 0
    assert defect(Word("")) == 0
    assert defect(W("00110100")) >= 1


def test_defect_zero_iff_rich():
    for w in all_words(2, 9):
        assert (defect(w) == 0) == is_rich(w)
        assert defect(w) >= 0


def test_every_factor_of_a_rich_word_is_rich():
    from richlab.enumeration import enumerate_rich

    for w in enumerate_rich(2, 9):
        for n in range(len(w) + 1):
            assert all(is_rich(u) for u in factors(w, n))


def test_rich_factors_are_determined_by_lps_and_lpp():
    # distinct factors of one rich word never share both lps and lpp
    from richlab.enumeration import enumerate_rich

    for w in enumerate_rich(2, 10):
        seen = {}
        for n in range(1, len(w) + 1):
            for u in factors(w, n):
                key = (lps(u).chars, lpp(u).chars)
                assert seen.setdefault(key, u) == u
