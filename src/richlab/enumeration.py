"""Enumerate and count rich words by prefix-pruned depth-first search.

Every factor of a rich word is rich, so the rich words over a fixed
alphabet form a prefix tree: a branch dies the moment an appended symbol
fails to create a new palindrome.  One walker, ``_walk``, visits exactly
the rich prefixes.  It appends a symbol to an Eertree to descend and pops
it to backtrack; on the last level it asks Eertree.creates instead, which
leaves the tree as it is.  A step walks the suffix-link chain, so under
pops it costs O(|w|) at worst, not O(1) amortized.  The walk is
iterative (a stack of letter iterators), so its depth is bounded by
memory, not by Python's recursion limit.

Renaming letters keeps a word rich, so counts and bound sweeps walk only
canonical words, the least of each letter orbit, and weight each by the
size of its orbit.  They shard the same way, through _sharded: the words
shorter than a fixed prefix length form one task and every canonical
prefix of that length another, and the results come back in task order,
so merged totals do not depend on scheduling.  _pool_map runs such tasks,
in at most one process per usable CPU; the cross-check's cells go through
it too.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator, Optional, Sequence

from .paltree import Eertree
from .words import MAX_ALPHABET, Word

DEFAULT_SHARD_PREFIX = 8


@dataclass(frozen=True)
class EnumStats:
    """Per-length rich-word counts.

    ``elapsed`` is the wall time of the whole walk, in seconds.
    """

    q: int
    counts: tuple[int, ...]
    elapsed: float
    canonical: bool = False

    @property
    def max_len(self) -> int:
        return len(self.counts) - 1


def _walk(
    q: int, prefix: Sequence[int], max_len: int, canonical: bool
) -> Iterator[tuple[list[int], int]]:
    """Every rich extension of prefix with at most max_len symbols, with its k.

    Yields (word, k) in lexicographic preorder, starting with the prefix
    itself; word is always the same list, changed in place between yields:
    copy it to keep a word.  canonical=True lets each next symbol be at most
    one past the largest used so far, so that only the lexicographically
    least word of each letter orbit is visited; k is then the number of
    letters the word uses, and its orbit has math.perm(q, k) words.  Outside
    canonical mode k is always q.  Raises ValueError if the prefix is not
    rich.

    A word of max_len - 1 symbols is not extended in the tree: each of its
    letters is tested with Eertree.creates, and a rich extension is yielded
    without an append or a pop.
    """
    tree = Eertree()
    append, pop, creates = tree.append, tree.pop, tree.creates
    for c in prefix:
        if not append(c):
            raise ValueError(f"prefix {tuple(prefix)} is not rich")
    word = list(prefix)
    # tops[i] is the running maximum of the symbols of the word that
    # letters[i] extends; it starts at q - 1 outside canonical mode, so that
    # every symbol is allowed
    top = max(prefix, default=-1) if canonical else q - 1
    if len(word) <= max_len:
        yield word, top + 1
    if len(word) >= max_len:
        return
    # letters[i] iterates the symbols to try after word[:len(prefix) + i]
    letters = [iter(range(min(q, top + 2)))]
    tops = [top]
    while letters:
        top = tops[-1]
        if len(word) == max_len - 1:
            # the last level: this loop uses up the letters, so the one
            # below goes straight to backtracking
            for c in letters[-1]:
                if creates(c):
                    word.append(c)
                    yield word, (c if c > top else top) + 1
                    word.pop()
        for c in letters[-1]:
            if append(c):
                word.append(c)
                if c > top:
                    top = c
                yield word, top + 1
                tops.append(top)
                letters.append(iter(range(min(q, top + 2))))
                break
            pop()
        else:
            letters.pop()
            tops.pop()
            if letters:
                word.pop()
                pop()


def _orbit(word: tuple[int, ...], q: int) -> Iterator[tuple[int, ...]]:
    """Every renaming of a canonical word into q letters, in lexicographic order.

    The word's letters first occur in the order 0, 1, ..., k-1, so two
    renamings first differ where the images of the first letter on which
    they disagree do: the words come in the order of the images.
    """
    for image in permutations(range(q), max(word, default=-1) + 1):
        yield tuple(map(image.__getitem__, word))


def _sharded(worker, q: int, max_len: int, canonical: bool, jobs: int,
             shard_prefix: int, *extra) -> list:
    """worker's results over the rich words up to max_len, in task order.

    A task (q, prefix, max_len, canonical, *extra) asks worker to cover the
    rich extensions of prefix with at most max_len symbols.  The whole tree
    is one call if jobs <= 1 or max_len <= shard_prefix.  Otherwise one task
    covers the words shorter than shard_prefix and one each rich prefix of
    that length (canonical ones only, if canonical), in lexicographic order,
    all in one process pool.
    """
    if jobs <= 1 or max_len <= shard_prefix:
        return [worker((q, (), max_len, canonical, *extra))]
    tasks = [(q, (), shard_prefix - 1, canonical, *extra)]
    for word, _ in _walk(q, (), shard_prefix, canonical):
        if len(word) == shard_prefix:
            tasks.append((q, tuple(word), max_len, canonical, *extra))
    return _pool_map(worker, tasks, jobs, chunksize=16)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def _pool_map(fn, tasks: list, jobs: int, chunksize: int = 1) -> list:
    """[fn(t) for t in tasks], computed in a pool of up to jobs processes.

    The pool has no more processes than tasks or usable CPUs, and where
    that leaves one process the tasks run in this one, with no pool.
    Results come back in task order whatever the scheduling; fn and the
    tasks must pickle.  This is the one process pool of the package.
    """
    # a forking pool starts all its workers at once: none beyond the tasks,
    # and none beyond the CPUs, where they would only queue
    workers = min(jobs, len(tasks), _cpus())
    if workers <= 1:
        return [fn(t) for t in tasks]
    # imported here, so that a sequential run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def _check_alphabet(q: int) -> None:
    """Raise unless q is an alphabet size a Word can have."""
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    if q > MAX_ALPHABET:
        raise ValueError(f"alphabet size must be <= {MAX_ALPHABET}")


def enumerate_rich(
    q: int, n: int, canonical: bool = False
) -> Iterator[Word]:
    """All rich words of length n over {0..q-1}, in lexicographic order.

    canonical=True yields only least representatives up to letter renaming
    (each next symbol at most one past the largest used so far).  The
    arguments are checked when it is called, before the first word.
    """
    _check_alphabet(q)
    if n < 0:
        raise ValueError("length must be >= 0")
    return (
        Word.from_symbols(word, q)
        for word, _ in _walk(q, (), n, canonical) if len(word) == n
    )


def _counts_below(
    args: tuple[int, tuple[int, ...], int, bool],
) -> tuple[tuple[int, ...], ...]:
    """Rich-word counts by length and letter count below one prefix.

    Entry [d][k] counts the extensions of length d that _walk reports with
    k, so rows below the prefix length are 0.  This is rich_counts' worker
    for _sharded; its shards are rich prefixes.
    """
    q, prefix, max_len, canonical = args
    counts = [[0] * (q + 1) for _ in range(max_len + 1)]
    for word, k in _walk(q, prefix, max_len, canonical):
        counts[len(word)][k] += 1
    return tuple(map(tuple, counts))


def count_rich(
    q: int,
    n: int,
    jobs: int = 1,
    shard_prefix: int = DEFAULT_SHARD_PREFIX,
    canonical: bool = False,
) -> int:
    """Number of rich words of length n over {0..q-1}."""
    return rich_counts(q, n, jobs, shard_prefix, canonical).counts[n]


def rich_counts(
    q: int,
    max_len: int,
    jobs: int = 1,
    shard_prefix: int = DEFAULT_SHARD_PREFIX,
    canonical: bool = False,
) -> EnumStats:
    """Rich-word counts for every length 0..max_len in one tree walk.

    The walk visits only canonical words (the least of each letter orbit,
    see _walk).  Renaming letters keeps a word rich, so a canonical word
    with k letters stands for math.perm(q, k) rich words; canonical=True
    counts each orbit once instead.
    """
    _check_alphabet(q)
    if max_len < 0:
        raise ValueError("length must be >= 0")
    start = time.perf_counter()
    weights = [1 if canonical else math.perm(q, k) for k in range(q + 1)]
    counts = [0] * (max_len + 1)
    for shard in _sharded(_counts_below, q, max_len, True, jobs, shard_prefix):
        for d, row in enumerate(shard):
            counts[d] += sum(c * w for c, w in zip(row, weights))
    return EnumStats(q, tuple(counts), time.perf_counter() - start, canonical)


def growth_root(q: int, n: int, count: Optional[int] = None) -> float:
    """n-th root of the number of rich words of length n."""
    if n < 1:
        raise ValueError("root needs n >= 1")
    if count is None:
        count = count_rich(q, n)
    return count ** (1.0 / n)
