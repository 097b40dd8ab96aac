"""Cost of one Eertree step on the rich-word walk, and the memory of one run.

The walk is the benchmark's `count` workload: rich_counts(2, 20) and
rich_counts(3, 12), one canonical `enumeration._walk` each.  Each walk is
run once with its Eertree's append, pop and creates recorded, so the
counts below are the calls the walk really makes.  The recorded calls are
then replayed on a fresh Eertree, best of --repeat timed passes:

- ns per append+pop: the appends and pops alone (creates leaves the tree
  as it is, so they replay without it), divided by the appends;
- ns per creates: the whole record with each creates test made
  CREATES_REPEAT times in a row (it leaves the tree as it is, so the repeats
  ask the same question), less the appends and pops, divided by the tests
  made.  The repeats lift the creates' share of the pass well above the
  host's speed drift.

Both include the replay loop's own dispatch, printed alone as loop_ns per
call (the same loop over builtins that do nothing useful), so figures of
two versions compare directly.

The memory is tracemalloc's count of the bytes an Eertree holds after
appending the 16,000-letter Fibonacci prefix, with no pop.

Last, the appends of one round of the benchmark's `crosscheck` workload
(seed CROSSCHECK_SEED, round 0, its requests built by
bench/workloads.py): every compare_word call it makes, with
Eertree.append wrapped to count the calls, beside the letters of the
round's words.

    PYTHONPATH=src python3 tools/eertree_cost.py [--repeat N]
"""

from __future__ import annotations

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

from richlab import enumeration
from richlab.paltree import Eertree

WALKS = ((2, 20), (3, 12))
FIBONACCI_LENGTH = 16_000
POP = -1
CREATES_REPEAT = 4
CROSSCHECK_SEED = 1
BENCH = Path(__file__).resolve().parent.parent / "bench"


def record(q: int, max_len: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The walk's append/pop calls, and the same with its creates tests.

    In the first list a symbol c is append(c) and POP is pop(); the second
    holds (kind, c) pairs, kind 0 append, 1 pop, 2 creates, each creates
    CREATES_REPEAT times.
    """
    steps: list[int] = []
    calls: list[tuple[int, int]] = []

    class Recording(Eertree):
        __slots__ = ()

        def append(self, c):
            steps.append(c)
            calls.append((0, c))
            return super().append(c)

        def pop(self):
            steps.append(POP)
            calls.append((1, POP))
            return super().pop()

        def creates(self, c):
            calls.extend([(2, c)] * CREATES_REPEAT)
            return super().creates(c)

    plain = enumeration.Eertree
    enumeration.Eertree = Recording
    try:
        for _ in enumeration._walk(q, (), max_len, True):
            pass
    finally:
        enumeration.Eertree = plain
    return steps, calls


def replay_steps(steps: list[int], tree) -> float:
    append, pop = tree.append, tree.pop
    t = time.perf_counter()
    for c in steps:
        if c == POP:
            pop()
        else:
            append(c)
    return time.perf_counter() - t


def replay_calls(calls: list[tuple[int, int]], tree) -> float:
    append, pop, creates = tree.append, tree.pop, tree.creates
    t = time.perf_counter()
    for kind, c in calls:
        if kind == 0:
            append(c)
        elif kind == 1:
            pop()
        else:
            creates(c)
    return time.perf_counter() - t


class _Idle:
    """Stand-in with builtin methods, to time the replay loop alone."""

    append = creates = staticmethod(abs)
    pop = staticmethod(tuple)


def fibonacci_prefix(length: int) -> list[int]:
    s = [0]
    while len(s) < length:
        s = [d for c in s for d in ((0, 1) if c == 0 else (0,))]
    return s[:length]


def append_only_bytes(symbols: list[int]) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = Eertree()
        for c in symbols:
            tree.append(c)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    del tree
    return held


def crosscheck_appends(seed: int) -> tuple[int, int]:
    """Eertree appends made by one bench-shaped crosscheck round, and its letters."""
    sys.path.insert(0, str(BENCH))
    import workloads

    requests = workloads.crosscheck_requests(seed, None).requests
    appends = 0
    plain = Eertree.append

    def counted(self, c):
        nonlocal appends
        appends += 1
        return plain(self, c)

    Eertree.append = counted
    try:
        for req in requests:
            req.resolve()(*req.args, **req.kwargs)
    finally:
        Eertree.append = plain
    return appends, sum(len(req.args[0]) for req in requests)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=11, help="timed passes (best kept)")
    args = ap.parse_args()

    total_appends = total_creates = 0
    total_steps_s = total_creates_s = 0.0
    for q, max_len in WALKS:
        steps, calls = record(q, max_len)
        appends = sum(c != POP for c in steps)
        tests = (len(calls) - len(steps)) // CREATES_REPEAT
        # the three passes alternate, so that a drift in host speed
        # reaches each of them alike
        steps_s = calls_s = loop_s = float("inf")
        for _ in range(args.repeat):
            steps_s = min(steps_s, replay_steps(steps, Eertree()))
            calls_s = min(calls_s, replay_calls(calls, Eertree()))
            loop_s = min(loop_s, replay_calls(calls, _Idle()))
        creates_s = max(calls_s - steps_s, 0.0)
        print(
            f"q{q} <= {max_len}: {appends} appends, {appends} pops, "
            f"{tests} creates; {steps_s * 1e9 / appends:.0f} ns per append+pop, "
            f"{creates_s * 1e9 / (tests * CREATES_REPEAT):.0f} ns per creates, "
            f"loop_ns {loop_s * 1e9 / len(calls):.0f} per call"
        )
        total_appends += appends
        total_creates += tests
        total_steps_s += steps_s
        total_creates_s += creates_s / CREATES_REPEAT
    print(
        f"count walks: {total_appends} appends, {total_creates} creates; "
        f"{total_steps_s * 1e9 / total_appends:.0f} ns per append+pop, "
        f"{total_creates_s * 1e9 / total_creates:.0f} ns per creates"
    )
    held = append_only_bytes(fibonacci_prefix(FIBONACCI_LENGTH))
    print(
        f"append-only Fibonacci prefix of {FIBONACCI_LENGTH} letters: "
        f"{held} bytes ({held / 1e6:.2f} MB) held (tracemalloc)"
    )
    appends, letters = crosscheck_appends(CROSSCHECK_SEED)
    print(
        f"crosscheck round (seed {CROSSCHECK_SEED}): {appends} appends "
        f"over {letters} letters"
    )


if __name__ == "__main__":
    main()
