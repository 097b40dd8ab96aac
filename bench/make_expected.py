"""Record the outputs the benchmark checks against, from the current code.

    PYTHONHASHSEED=0 python3 bench/make_expected.py

Writes ``bench/expected.json``:

* ``sweep``: per (q, max_len) call, the word total and a digest of the
  summary exactly as ``richlab sweep`` prints it;
* ``count``: per (q, max_len) call, the full ``rich_counts`` tuple.  The
  part within the PI2/PI3 tables of the acceptance tests must match them;
  beyond that every value is cross-checked here against
  ``count_rich(q, n, jobs=2)``, which walks the tree in shards;
* ``verify_long``: the word pool (VARIANTS words per slot: random rich
  words matched in closure length, or Fibonacci prefixes) and a digest of
  each word's ``evaluate_word(w, include_closure=True)`` reports, all of
  which hold.

Run it only to re-record after a deliberate change of the workloads; the
recorded file is what makes a later change of results visible.
"""

from __future__ import annotations

import json
import random
import statistics
import sys

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))

from richlab.bounds import BOUND_IDS, evaluate_word, sweep_rich  # noqa: E402
from richlab.enumeration import count_rich, rich_counts  # noqa: E402
from richlab.paltree import Eertree  # noqa: E402
from richlab.structures import palindromic_closure  # noqa: E402
from richlab.words import Word  # noqa: E402


def random_rich(rng: random.Random, q: int, length: int) -> str:
    """A rich word grown one uniformly chosen rich extension at a time."""
    tree = Eertree()
    symbols = []
    for _ in range(length):
        options = []
        for c in range(q):
            if tree.append(c):
                options.append(c)
            tree.pop()
        c = rng.choice(options)
        tree.append(c)
        symbols.append(c)
    return Word.from_symbols(symbols, q).text


def fibonacci_prefix(length: int) -> str:
    s = "0"
    while len(s) < length:
        s = "".join("01" if c == "0" else "0" for c in s)
    return s[:length]


def pool_words(slot: int) -> list[str]:
    """VARIANTS words for one slot, of about equal cost.

    Most of evaluate_word's time goes to the profile of the palindromic
    closure, whose length varies between random rich words of one length;
    of 4 * VARIANTS candidates the ones with closure length nearest the
    median are kept, so the variant a seed picks barely moves the cost.
    """
    kind, q, length = wl.VERIFY_SLOTS[slot]
    if kind == "fib":
        return [fibonacci_prefix(length + 3 * v) for v in range(wl.VARIANTS)]
    cands = [
        random_rich(random.Random(f"pool:{slot}:{j}"), q, length)
        for j in range(4 * wl.VARIANTS)
    ]
    sizes = [len(palindromic_closure(Word.parse(c))) for c in cands]
    target = statistics.median(sizes)
    nearest = sorted(range(len(cands)), key=lambda j: (abs(sizes[j] - target), j))
    return [cands[j] for j in sorted(nearest[: wl.VARIANTS])]


def main() -> int:
    out = {"sweep": {}, "count": {}, "verify_long": {"words": [], "digests": []}}
    for q, max_len in wl.SWEEP_CALLS:
        summary = sweep_rich(q, max_len, BOUND_IDS, include_closure=True)
        assert summary.words == sum(wl.PI[q][: max_len + 1])
        assert summary.violations == 0
        out["sweep"][f"q{q}:{max_len}"] = {
            "words": summary.words,
            "digest": wl.digest(wl.sweep_payload(summary)),
        }
    for q, max_len in wl.COUNT_CALLS:
        counts = rich_counts(q, max_len).counts
        known = wl.PI[q]
        for n, value in enumerate(counts):
            if n < len(known):
                assert value == known[n], (q, n)
            else:
                assert value == count_rich(q, n, jobs=2), (q, n)
        out["count"][f"q{q}:{max_len}"] = list(counts)
    for slot in range(len(wl.VERIFY_SLOTS)):
        words, digests = [], []
        for variant, text in enumerate(pool_words(slot)):
            reports = evaluate_word(Word.parse(text), include_closure=True)
            assert all(r.holds for r in reports), (slot, variant)
            words.append(text)
            digests.append(wl.digest(wl.verify_payload(reports)))
        out["verify_long"]["words"].append(words)
        out["verify_long"]["digests"].append(digests)
    wl.EXPECTED_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
