"""Hash every report of evaluate_word(w, include_closure=True, force=True)
over a fixed corpus, and every check_* call at explicit orders, so two
versions of richlab can be compared exactly.

The corpus is every word over 2 letters up to length 10, over 3 letters
up to length 6 and over 4 letters up to length 4 (rich or not, hence
force), then the 240 words of bench/expected.json's verify_long pool.
Each report is hashed as the tuple of its fields, floats written with
float.hex, so the hash changes with any bit of any report.

The second hash covers every check_* function at n = -1 .. |w|+2 on the
corpus words of length <= 7, with force False and True where it takes
force; check_upsilon_bound runs with the lpps of each switch core of w
and with the empty word.  A raised error is hashed as its type and
message.

The third hash covers the sweep_rich summaries of q = 2 up to length 12,
q = 3 up to 8 and q = 4 up to 5, each with and without the closure: each
summary's JSON less elapsed_seconds, floats written with float.hex.

    PYTHONPATH=src python3 tools/report_hash.py [--expect HASH [HASH [HASH]]]

Prints the counts and the sha256 of each hash; with --expect, one to three
hashes in print order, exits 1 when any of them differs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import astuple
from pathlib import Path

from richlab import bounds
from richlab.bounds import evaluate_word, sweep_rich
from richlab.paltree import lpps
from richlab.structures import switch_cores
from richlab.words import Word

ROOT = Path(__file__).resolve().parent.parent
SMALL = ((2, 10), (3, 6), (4, 4))
EXPLICIT_MAX_LEN = 7
SWEEPS = ((2, 12), (3, 8), (4, 5))

# the check_* functions of a word and an order that take force
FORCED_CHECKS = (
    "check_switch_palindrome_bound", "check_gamma_palindrome_bound",
    "check_gamma_recursion", "check_gamma_closed_form",
    "check_palindromic_complexity_bound", "check_factor_complexity_bound",
    "check_factor_vs_palindrome_bound", "check_final_bounds",
)


def corpus():
    for q, max_len in SMALL:
        for n in range(max_len + 1):
            for symbols in itertools.product(range(q), repeat=n):
                yield Word.from_symbols(symbols, q)
    pool = json.loads((ROOT / "bench" / "expected.json").read_text())["verify_long"]
    for slot in pool["words"]:
        for text in slot:
            yield Word.parse(text)


def _field(v) -> str:
    return v.hex() if isinstance(v, float) else repr(v)


def _line(r) -> bytes:
    return ("\t".join(map(_field, astuple(r))) + "\n").encode()


def report_hash() -> tuple[int, int, str]:
    """(words, reports, sha256 hex) over the corpus."""
    digest = hashlib.sha256()
    words = reports = 0
    for w in corpus():
        words += 1
        digest.update(f"{w.alphabet_size}:{w.text}\n".encode())
        for r in evaluate_word(w, include_closure=True, force=True):
            reports += 1
            digest.update(_line(r))
    return words, reports, digest.hexdigest()


def _explicit_calls(w: Word):
    """(check_* function, its arguments) for every call on w at n = -1 .. |w|+2."""
    rs = sorted(
        {lpps(u) for n in range(len(w) + 3) for u in switch_cores(w, n)} | {Word("")},
        key=lambda r: r.chars,
    )
    for n in range(-1, len(w) + 3):
        for force in (False, True):
            for name in FORCED_CHECKS:
                yield getattr(bounds, name), (w, n, force)
            for r in rs:
                yield bounds.check_upsilon_bound, (w, n, r, force)
        yield bounds.check_reversal_inequality, (w, n)
        yield bounds.check_ceil_product_lemma, (n,)


def explicit_hash() -> tuple[int, int, str]:
    """(calls, errors, sha256 hex) of every check_* call on the short corpus words."""
    digest = hashlib.sha256()
    calls = errors = 0
    for w in corpus():
        if len(w) > EXPLICIT_MAX_LEN:
            continue
        digest.update(f"{w.alphabet_size}:{w.text}\n".encode())
        for check, args in _explicit_calls(w):
            calls += 1
            digest.update(f"{check.__name__}{args[1:]!r}\n".encode())
            try:
                got = check(*args)
            except Exception as exc:  # noqa: BLE001 - an error is an outcome
                errors += 1
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            for r in got if isinstance(got, tuple) else (got,):
                digest.update(_line(r))
    return calls, errors, digest.hexdigest()


def _hex_floats(obj):
    """obj, a JSON value, with every float written with float.hex."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_hex_floats(v) for v in obj]
    return obj


def sweep_hash() -> tuple[int, str]:
    """(summaries, sha256 hex) of the sweep_rich summaries at SWEEPS."""
    digest = hashlib.sha256()
    summaries = 0
    for q, max_len in SWEEPS:
        for include_closure in (True, False):
            payload = sweep_rich(q, max_len, include_closure=include_closure).to_json_dict()
            payload.pop("elapsed_seconds")
            digest.update((json.dumps(_hex_floats(payload)) + "\n").encode())
            summaries += 1
    return summaries, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--expect", nargs="+", default=[], metavar="HASH",
        help="exit 1 unless the first hashes are these, in print order",
    )
    args = parser.parse_args(argv)
    if len(args.expect) > 3:
        parser.error("--expect takes at most three hashes")
    words, reports, hexdigest = report_hash()
    print(f"words={words} reports={reports} sha256={hexdigest}")
    calls, errors, explicit = explicit_hash()
    print(f"explicit calls={calls} errors={errors} sha256={explicit}")
    summaries, sweeps = sweep_hash()
    print(f"sweep summaries={summaries} sha256={sweeps}")
    got = [hexdigest, explicit, sweeps][: len(args.expect)]
    return 0 if got == args.expect else 1


if __name__ == "__main__":
    sys.exit(main())
