"""Enumerate and count rich words by prefix-pruned depth-first search.

Every factor of a rich word is rich, so the rich words over a fixed
alphabet form a prefix tree: a branch dies the moment an appended symbol
fails to create a new palindrome.  One walker, ``_walk``, visits exactly
the rich prefixes; the incremental index makes each extension test O(1)
amortized, with pop() rolling the index back on backtrack.  The walk is
iterative (a stack of letter iterators), so its depth is bounded by
memory, not by Python's recursion limit.

Counts and bound sweeps shard the same way, through _sharded: the words
shorter than a fixed prefix length form one task and every rich prefix of
that length another, and the results come back in task order, so merged
totals do not depend on scheduling.  _pool_map runs such tasks; the
cross-check's cells go through it too.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .paltree import Eertree
from .words import Word

DEFAULT_SHARD_PREFIX = 8


@dataclass(frozen=True)
class EnumStats:
    """Per-length rich-word counts.

    Every entry of ``elapsed`` is the wall time of the whole walk, in
    seconds; the walk does not time lengths separately.
    """

    q: int
    counts: tuple[int, ...]
    elapsed: tuple[float, ...]
    canonical: bool = False

    @property
    def max_len(self) -> int:
        return len(self.counts) - 1


def _walk(
    q: int, prefix: Sequence[int], max_len: int, canonical: bool
) -> Iterator[list[int]]:
    """Every rich extension of prefix with at most max_len symbols.

    Yields in lexicographic preorder, starting with the prefix itself, and
    always the same list, changed in place between yields: copy it to keep
    a word.  canonical=True lets each next symbol be at most one past the
    largest used so far.  Raises ValueError if the prefix is not rich.
    """
    tree = Eertree()
    append, pop = tree.append, tree.pop
    for c in prefix:
        if not append(c):
            raise ValueError(f"prefix {tuple(prefix)} is not rich")
    word = list(prefix)
    if len(word) <= max_len:
        yield word
    if len(word) >= max_len:
        return
    # letters[i] iterates the symbols to try after word[:len(prefix) + i];
    # tops[i] is the running maximum of that word's symbols, which starts
    # at q - 1 outside canonical mode so that every symbol is allowed
    top = max(prefix, default=-1) if canonical else q - 1
    letters = [iter(range(min(q, top + 2)))]
    tops = [top]
    while letters:
        for c in letters[-1]:
            if append(c):
                word.append(c)
                yield word
                if len(word) < max_len:
                    top = tops[-1]
                    if c > top:
                        top = c
                    tops.append(top)
                    letters.append(iter(range(min(q, top + 2))))
                    break
                word.pop()
            pop()
        else:
            letters.pop()
            tops.pop()
            if letters:
                word.pop()
                pop()


def _sharded(worker, q: int, max_len: int, canonical: bool, jobs: int,
             shard_prefix: int, *extra) -> list:
    """worker's results over the rich words up to max_len, in task order.

    A task (q, prefix, max_len, canonical, *extra) asks worker to cover the
    rich extensions of prefix with at most max_len symbols.  The whole tree
    is one call if jobs <= 1 or max_len <= shard_prefix.  Otherwise one task
    covers the words shorter than shard_prefix and one each rich prefix of
    that length, in lexicographic order, all in one process pool.
    """
    if jobs <= 1 or max_len <= shard_prefix:
        return [worker((q, (), max_len, canonical, *extra))]
    tasks = [(q, (), shard_prefix - 1, canonical, *extra)]
    for word in _walk(q, (), shard_prefix, canonical):
        if len(word) == shard_prefix:
            tasks.append((q, tuple(word), max_len, canonical, *extra))
    return _pool_map(worker, tasks, jobs, chunksize=16)


def _pool_map(fn, tasks: list, jobs: int, chunksize: int = 1) -> list:
    """[fn(t) for t in tasks], computed in a pool of up to jobs processes.

    Results come back in task order whatever the scheduling; fn and the
    tasks must pickle.  This is the one process pool of the package.
    """
    # imported here, so that a sequential run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a forking pool starts all its workers at once: none beyond the tasks
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def enumerate_rich(
    q: int, n: int, canonical: bool = False
) -> Iterator[Word]:
    """All rich words of length n over {0..q-1}, in lexicographic order.

    canonical=True yields only least representatives up to letter renaming
    (each next symbol at most one past the largest used so far).
    """
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    if n < 0:
        raise ValueError("length must be >= 0")
    for word in _walk(q, (), n, canonical):
        if len(word) == n:
            yield Word.from_symbols(word, q)


def _counts_below(
    args: tuple[int, tuple[int, ...], int, bool],
) -> tuple[int, ...]:
    """Per-length counts of the rich words that extend one prefix.

    Entry d counts the extensions of length d, so entries below the prefix
    length are 0 and the entry at it is 1.  This is rich_counts' worker for
    _sharded; its shards are rich prefixes.
    """
    q, prefix, max_len, canonical = args
    counts = [0] * (max_len + 1)
    for word in _walk(q, prefix, max_len, canonical):
        counts[len(word)] += 1
    return tuple(counts)


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
    """Rich-word counts for every length 0..max_len in one tree walk."""
    if q < 1:
        raise ValueError("alphabet size must be >= 1")
    if max_len < 0:
        raise ValueError("length must be >= 0")
    start = time.perf_counter()
    counts = [0] * (max_len + 1)
    for shard in _sharded(_counts_below, q, max_len, canonical, jobs, shard_prefix):
        for d, c in enumerate(shard):
            counts[d] += c
    elapsed = time.perf_counter() - start
    return EnumStats(q, tuple(counts), (elapsed,) * (max_len + 1), canonical)


def growth_root(q: int, n: int, count: Optional[int] = None) -> float:
    """n-th root of the number of rich words of length n."""
    if n < 1:
        raise ValueError("root needs n >= 1")
    if count is None:
        count = count_rich(q, n)
    return count ** (1.0 / n)
