"""Hash every report of evaluate_word(w, include_closure=True, force=True)
over a fixed corpus, so two versions of richlab can be compared exactly.

The corpus is every word over 2 letters up to length 10, over 3 letters
up to length 6 and over 4 letters up to length 4 (rich or not, hence
force), then the 240 words of bench/expected.json's verify_long pool.
Each report is hashed as the tuple of its fields, floats written with
float.hex, so the hash changes with any bit of any report.

    PYTHONPATH=src python3 tools/report_hash.py [--expect HASH]

Prints the report count and the sha256; with --expect, exits 1 when the
hash differs.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import astuple
from pathlib import Path

from richlab.bounds import evaluate_word
from richlab.words import Word

ROOT = Path(__file__).resolve().parent.parent
SMALL = ((2, 10), (3, 6), (4, 4))


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


def report_hash() -> tuple[int, int, str]:
    """(words, reports, sha256 hex) over the corpus."""
    digest = hashlib.sha256()
    words = reports = 0
    for w in corpus():
        words += 1
        digest.update(f"{w.alphabet_size}:{w.text}\n".encode())
        for r in evaluate_word(w, include_closure=True, force=True):
            reports += 1
            digest.update(("\t".join(map(_field, astuple(r))) + "\n").encode())
    return words, reports, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", help="exit 1 unless the hash is this one")
    args = parser.parse_args(argv)
    words, reports, hexdigest = report_hash()
    print(f"words={words} reports={reports} sha256={hexdigest}")
    return 0 if args.expect in (None, hexdigest) else 1


if __name__ == "__main__":
    sys.exit(main())
