"""Rich-word enumeration: counts, oracle agreement, sharded counting."""

import functools
import itertools

import pytest

from richlab import enumeration
from richlab.cli import main
from richlab.enumeration import (
    EnumStats,
    _counts_below,
    _walk,
    count_rich,
    enumerate_rich,
    growth_root,
    rich_counts,
)
from richlab.oracle import oracle_is_rich
from richlab.paltree import is_rich
from richlab.words import Word

# rich binary counts, verified here against the oracle for n <= 12
PI2 = (1, 2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756,
       3246, 5916, 10618, 18800, 32846)
# rich ternary counts
PI3 = (1, 3, 9, 27, 75, 201, 513, 1269, 3033, 7047)


def test_enumerate_goldens():
    got = [w.text for w in enumerate_rich(2, 3)]
    assert got == ["000", "001", "010", "011", "100", "101", "110", "111"]
    assert [w.text for w in enumerate_rich(1, 5)] == ["00000"]
    assert [w.text for w in enumerate_rich(2, 0)] == [""]
    assert count_rich(2, 8) == 252


def test_enumerate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(enumerate_rich(0, 3))
    with pytest.raises(ValueError):
        list(enumerate_rich(2, -1))
    with pytest.raises(ValueError):
        count_rich(2, -1)
    with pytest.raises(ValueError):
        rich_counts(0, 3)


def test_enumeration_is_lexicographic_and_rich():
    for q in (2, 3):
        words = list(enumerate_rich(q, 7))
        assert words == sorted(words)
        assert len(set(words)) == len(words)
        assert all(is_rich(w) for w in words)
        assert all(w.alphabet_size == q for w in words)


def test_counts_match_frozen_tables():
    assert rich_counts(2, 12).counts == PI2[:13]
    assert rich_counts(3, 9).counts == PI3
    stats = rich_counts(2, 16)
    assert stats.counts == PI2
    assert stats.max_len == 16
    assert isinstance(stats.elapsed, float) and stats.elapsed > 0


def test_enumeration_equals_oracle_filter():
    # full cross-check at the stated scope: q <= 3, n <= 12
    for q, max_n in ((2, 12), (3, 12)):
        for n in range(max_n + 1):
            expected = [
                Word.from_symbols(tup, q)
                for tup in itertools.product(range(q), repeat=n)
                if oracle_is_rich(Word.from_symbols(tup, q))
            ]
            assert list(enumerate_rich(q, n)) == expected


def test_non_richness_is_inherited_by_extensions():
    # pruning relies on this: once non-rich, no extension recovers
    import random

    rng = random.Random(23)
    found = 0
    while found < 40:
        w = Word.from_symbols([rng.randrange(2) for _ in range(10)], 2)
        if oracle_is_rich(w):
            continue
        found += 1
        for c in range(2):
            assert not oracle_is_rich(w + Word(chr(c), 2))


def test_growth_is_at_most_q_fold():
    for q, table in ((2, PI2), (3, PI3)):
        for n in range(1, len(table)):
            assert table[n] <= q * table[n - 1]


def test_counts_are_submultiplicative():
    # a rich word of length n+m splits into rich halves
    for n in range(len(PI2)):
        for m in range(len(PI2) - n):
            assert PI2[n + m] <= PI2[n] * PI2[m]


def test_canonical_mode_halves_binary_counts():
    stats = rich_counts(2, 10, canonical=True)
    assert stats.canonical
    assert stats.counts[0] == 1
    for n in range(1, 11):
        assert stats.counts[n] == PI2[n] // 2


def test_canonical_representatives_cover_all_words_up_to_renaming():
    for n in range(7):
        raw = set(enumerate_rich(3, n))
        expanded = set()
        for w in enumerate_rich(3, n, canonical=True):
            for perm in itertools.permutations(range(3)):
                expanded.add(Word.from_symbols((perm[s] for s in w), 3))
        assert expanded == raw


def test_parallel_counting_matches_sequential():
    assert count_rich(2, 12, jobs=2, shard_prefix=4) == PI2[12]
    seq = rich_counts(2, 11, jobs=1)
    par = rich_counts(2, 11, jobs=2, shard_prefix=4)
    assert par.counts == seq.counts
    seq = rich_counts(3, 8, jobs=1, canonical=True)
    par = rich_counts(3, 8, jobs=2, shard_prefix=3, canonical=True)
    assert par.counts == seq.counts
    assert par.canonical
    # shard_prefix 0: the whole tree is one shard, the short-word task empty
    par = rich_counts(3, 8, jobs=2, shard_prefix=0, canonical=True)
    assert par.counts == seq.counts
    assert rich_counts(2, 11, jobs=2, shard_prefix=0).counts == rich_counts(2, 11).counts
    # n <= shard_prefix falls back to the sequential walk
    assert count_rich(2, 4, jobs=2, shard_prefix=4) == PI2[4]
    assert count_rich(3, 3, jobs=2, shard_prefix=8) == PI3[3]


@pytest.mark.parametrize("q,max_len", [(1, 10), (2, 12), (3, 8), (4, 7), (5, 6)])
def test_orbit_weighted_counts_equal_a_full_walk(q, max_len):
    full = [0] * (max_len + 1)
    for word, _ in _walk(q, (), max_len, False):
        full[len(word)] += 1
    for jobs in (1, 2):
        for shard_prefix in (0, 3, 8):
            stats = rich_counts(q, max_len, jobs=jobs, shard_prefix=shard_prefix)
            assert list(stats.counts) == full, (jobs, shard_prefix)


def test_walk_reports_the_letters_of_canonical_words():
    for word, k in _walk(4, (), 6, True):
        assert k == len(set(word))
        assert all(c <= max(word[:i], default=-1) + 1 for i, c in enumerate(word))
    assert {k for _, k in _walk(3, (), 4, False)} == {3}


@functools.lru_cache(maxsize=None)
def _rich_by_oracle(q, n):
    """Every word of length n over q letters that the oracle calls rich."""
    return [
        w for w in itertools.product(range(q), repeat=n)
        if oracle_is_rich(Word.from_symbols(w, q))
    ]


def _is_canonical(w):
    return all(c <= max(w[:i], default=-1) + 1 for i, c in enumerate(w))


def _reference_walk(q, prefix, max_len, canonical):
    """_walk's (word, k) sequence, by filtering every extension of prefix."""
    found = [
        w
        for n in range(len(prefix), max_len + 1)
        for w in _rich_by_oracle(q, n)
        if w[: len(prefix)] == prefix and (not canonical or _is_canonical(w))
    ]
    # a prefix sorts before its extensions, so sorted order is preorder
    return [(w, len(set(w)) if canonical else q) for w in sorted(found)]


@pytest.mark.parametrize("q,longest", [(1, 7), (2, 7), (3, 7), (4, 5)])
def test_walk_visits_the_oracle_rich_words_in_preorder(q, longest):
    for max_len in range(longest + 1):
        for canonical in (True, False):
            # the prefixes are the last canonical rich words of their
            # lengths: empty, one level above the leaves, a leaf, and too long
            for n in sorted({0, max(max_len - 1, 0), max_len, max_len + 1}):
                prefix = max(w for w in _rich_by_oracle(q, n) if _is_canonical(w))
                want = _reference_walk(q, prefix, max_len, canonical)
                # one word past the reference is enough to fail a walk that
                # would never end
                walk = _walk(q, prefix, max_len, canonical)
                got = [(tuple(w), k) for w, k in itertools.islice(walk, len(want) + 1)]
                assert got == want, (max_len, canonical, prefix)


def test_pool_workers_are_capped_by_the_cpus(monkeypatch, capsys):
    import concurrent.futures

    made = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records max_workers, forks nothing."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(enumeration, "_cpus", lambda: 3)
    # shard prefix 4 over two letters: the short words plus 8 canonical prefixes
    argv = ["enumerate", "--q", "2", "--max-len", "10", "--shard-prefix", "4"]
    assert main(argv) == 0
    sequential = capsys.readouterr().out
    assert made == []
    assert main(argv + ["--jobs", "100000"]) == 0
    assert capsys.readouterr().out == sequential
    assert made == [3]
    assert main(["sweep", "--q", "2", "--max-len", "9", "--jobs", "100000"]) == 0
    assert made == [3, 3]
    # fewer tasks than jobs and CPUs: one worker per task
    monkeypatch.setattr(enumeration, "_cpus", lambda: 64)
    assert main(argv + ["--jobs", "100000"]) == 0
    assert made == [3, 3, 9]
    capsys.readouterr()
    # one usable CPU: the shards run in this process, with no pool
    monkeypatch.setattr(enumeration, "_cpus", lambda: 1)
    assert main(argv + ["--jobs", "100000"]) == 0
    assert capsys.readouterr().out == sequential
    sweep = ["sweep", "--q", "2", "--max-len", "9"]
    assert main(sweep) == 0
    sequential = capsys.readouterr().out
    assert main(sweep + ["--jobs", "100000"]) == 0
    assert capsys.readouterr().out == sequential
    assert made == [3, 3, 9]


def test_deep_walks_do_not_hit_the_recursion_limit(capsys):
    # over one letter every word is rich, so the walk is one long path
    assert count_rich(1, 3000) == 1
    assert len(list(enumerate_rich(1, 2000))) == 1
    assert main(["enumerate", "--q", "1", "--max-len", "1500"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 1500


def test_counts_below_rejects_a_non_rich_prefix():
    # 0120 makes no new palindrome at its last symbol; the prefix is
    # longer than, as long as, one short of and two short of max_len
    for max_len in (3, 4, 5, 6):
        for canonical in (True, False):
            with pytest.raises(ValueError):
                _counts_below((3, (0, 1, 2, 0), max_len, canonical))
    # rows by length, columns by the number of letters a canonical word uses
    empty = (0, 0, 0, 0)
    assert _counts_below((3, (0, 1, 2), 4, True)) == (
        empty, empty, empty, (0, 0, 0, 1), (0, 0, 0, 2),
    )
    # 01 -> 010, 011 (two letters) and 012 (three)
    assert _counts_below((3, (0, 1), 3, True)) == (
        empty, empty, (0, 0, 1, 0), (0, 0, 2, 1),
    )


def test_growth_root_goldens():
    assert growth_root(2, 1) == 2.0
    assert growth_root(2, 8) == pytest.approx(252 ** (1 / 8))
    assert growth_root(2, 8, count=252) == pytest.approx(1.9961, abs=1e-3)
    with pytest.raises(ValueError):
        growth_root(2, 0)


def test_growth_root_infimum_property():
    roots = [growth_root(2, n, count=PI2[n]) for n in range(1, 17)]
    inf = min(roots)
    assert all(r >= inf for r in roots)
    assert 1.5 < inf < 2.0


def test_stats_shape():
    stats = rich_counts(2, 5)
    assert isinstance(stats, EnumStats)
    assert stats.q == 2
    assert not stats.canonical
