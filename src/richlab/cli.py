"""Command-line front end.

Subcommands: analyze, switches, closure, verify, sweep, enumerate,
oracle-check.  stdout carries data only (JSON by default, CSV where a
table is more natural); diagnostics go to stderr.  Exit codes: 0 on
success, 1 when a bound violation or oracle mismatch was found, 2 on
usage or parse errors, 3 on a bound comparison left undecided
(UndecidedComparisonError) or any other internal error, reported as one
line on stderr instead of a traceback.

Each command computes all that it prints and returns its exit code with
its stdout as pieces of text; main alone writes them, once the command
has returned.  So a command that fails writes no stdout, and a reader
that closes stdout early leaves the exit code as it is.

All floating-point values are printed with 12 significant digits so
reports from different runs diff cleanly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

from .bounds import (
    BOUND_IDS, _collected, _require_known, _word_rows, sweep_rich, word_profile,
)
from .crosscheck import check_cell, exhaustive_check, parse_cells, run_cells
from .enumeration import DEFAULT_SHARD_PREFIX, enumerate_rich, rich_counts
from .paltree import defect, lpp, lppp, lps, lpps
from .records import from_json_fields, json_fields
from .structures import palindromic_closure, switches
from .words import Word

_SIG_DIGITS = 12
# reports per json.dumps call in verify: one call per report would cost
# more than the whole list's one call, and one call the whole text at once
_BATCH = 1024


def _portable(value):
    """Clamp every float to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.{_SIG_DIGITS}g}")
    if isinstance(value, dict):
        return {k: _portable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_portable(v) for v in value]
    return value


def _emit_json(obj) -> str:
    return json.dumps(_portable(obj), indent=2) + "\n"


def _emit_reports(reports: Iterable) -> Iterator[str]:
    """_emit_json of the reports' JSON dicts, in pieces of _BATCH reports.

    The pieces join to _emit_json([r.to_json_dict() for r in reports]),
    but the dicts of all reports never exist at once, nor does the JSON
    encoder's list of pieces of the whole text.
    """
    opening = "["
    reports = iter(reports)
    while batch := list(islice(reports, _BATCH)):
        text = json.dumps(_portable([r.to_json_dict() for r in batch]), indent=2)
        # text is "[\n  {...},\n  {...}\n]": yield it without the closing line
        yield opening + text[1:-2]
        opening = ","
    yield "[]\n" if opening == "[" else "\n]\n"


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _fmt_float(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.{_SIG_DIGITS}g}"


def _word_from_args(args) -> Word:
    return Word.parse(args.word, args.alphabet)


# ---------------------------------------------------------------- analyze


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the analyzer reports about one word."""

    word: str
    alphabet_size: int
    rich: bool
    defect: int
    factor_counts: tuple[int, ...]
    palindromic_counts: tuple[int, ...]
    switch_counts: tuple[int, ...]
    max_switch_count: int
    lps: Optional[str]
    lpp: Optional[str]
    lpps: Optional[str]
    lppp: Optional[str]

    def to_json_dict(self) -> dict:
        return json_fields(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "AnalysisReport":
        return from_json_fields(cls, d)


def analysis_report(w: Word) -> AnalysisReport:
    profile = word_profile(w)
    if len(w) > 0:
        four = (lps(w).text, lpp(w).text, lpps(w).text, lppp(w).text)
    else:
        four = (None, None, None, None)
    return AnalysisReport(
        word=w.text,
        alphabet_size=w.alphabet_size,
        rich=profile.rich,
        defect=defect(w),
        factor_counts=profile.fac,
        palindromic_counts=profile.pal,
        switch_counts=profile.sw,
        max_switch_count=profile.gamma_max[len(w)],
        lps=four[0],
        lpp=four[1],
        lpps=four[2],
        lppp=four[3],
    )


def _cmd_analyze(args) -> tuple[int, Iterable[str]]:
    return 0, [_emit_json(analysis_report(_word_from_args(args)).to_json_dict())]


# ---------------------------------------------------------------- switches


def _cmd_switches(args) -> tuple[int, Iterable[str]]:
    w = _word_from_args(args)
    records = sorted(switches(w, args.n), key=lambda r: r.word.chars)
    return 0, [json.dumps(rec.to_json_dict()) + "\n" for rec in records]


# ---------------------------------------------------------------- closure


def _cmd_closure(args) -> tuple[int, Iterable[str]]:
    return 0, [palindromic_closure(_word_from_args(args)).text + "\n"]


# ---------------------------------------------------------------- verify


def _parse_bound_ids(text: Optional[str]) -> tuple[str, ...]:
    if text is None:
        return BOUND_IDS
    wanted = [part.strip() for part in text.split(",") if part.strip()]
    if not wanted:
        raise ValueError("--bounds names no bound")
    return _require_known(wanted)


def _cmd_verify(args) -> tuple[int, Iterable[str]]:
    if args.n is not None and args.all_n:
        raise ValueError("--n and --all-n are mutually exclusive")
    w = _word_from_args(args)
    ids = _parse_bound_ids(args.bounds)
    ns = None if args.n is None else [args.n]
    # with no bounds named, check those that apply at this order; B8/B9
    # skipped on w still run on its closure where they apply
    skipped = {} if args.n is not None and args.bounds is None else None
    try:
        reports = _collected(
            lambda: _word_rows(w, ids, ns, args.force, args.with_closure, skipped)
        )
    finally:  # skipped is filled before the first report: say so even if one fails
        for bound_id, reason in (skipped or {}).items():
            print(f"skipped {bound_id}: {reason}", file=sys.stderr)
    return (0 if all(r.holds for r in reports) else 1), _emit_reports(reports)


# ---------------------------------------------------------------- sweep

_SWEEP_COLUMNS = (
    "bound_id",
    "words",
    "reports",
    "passes",
    "violations",
    "equalities",
    "uncovered",
    "min_slack_log2",
    "max_slack_log2",
)


def _sweep_csv(summary) -> str:
    rows = []
    for bound_id in summary.bound_ids:
        agg = summary.per_bound[bound_id]
        rows.append(
            [
                bound_id,
                summary.words,
                agg["reports"],
                agg["passes"],
                agg["violations"],
                agg["equalities"],
                agg["uncovered"],
                _fmt_float(agg["min_slack_log2"]),
                _fmt_float(agg["max_slack_log2"]),
            ]
        )
    return _csv_text(_SWEEP_COLUMNS, rows)


def _cmd_sweep(args) -> tuple[int, Iterable[str]]:
    ids = _parse_bound_ids(args.bounds)
    summary = sweep_rich(
        args.q,
        args.max_len,
        ids,
        include_closure=not args.no_closure,
        jobs=args.jobs,
    )
    print(f"sweep took {summary.elapsed_seconds:.3f}s", file=sys.stderr)
    code = 1 if summary.violations else 0
    if args.csv:
        return code, [_sweep_csv(summary)]
    # stdout must be byte-identical across reruns; timing goes to stderr
    payload = summary.to_json_dict()
    payload.pop("elapsed_seconds")
    return code, [_emit_json(payload)]


# ---------------------------------------------------------------- enumerate


def _cmd_enumerate(args) -> tuple[int, Iterable[str]]:
    if args.emit:
        # enumerate_rich checks its arguments when called, so a bad q
        # leaves no file behind
        by_length = [
            enumerate_rich(args.q, n, canonical=args.canonical)
            for n in range(args.max_len + 1)
        ]
        counts = []
        with open(args.emit, "w", encoding="ascii") as fh:
            for words in by_length:
                c = 0
                for w in words:
                    fh.write(w.text + "\n")
                    c += 1
                counts.append(c)
        rows = list(enumerate(counts))
    else:
        stats = rich_counts(
            args.q,
            args.max_len,
            jobs=args.jobs,
            shard_prefix=args.shard_prefix,
            canonical=args.canonical,
        )
        rows = list(enumerate(stats.counts))
    if args.csv:
        return 0, [_csv_text(["n", "count"], rows)]
    payload = {
        "q": args.q,
        "max_len": args.max_len,
        "canonical": args.canonical,
        "counts": [{"n": n, "count": c} for n, c in rows],
    }
    return 0, [_emit_json(payload)]


# ---------------------------------------------------------------- oracle-check


def _cmd_oracle_check(args) -> tuple[int, Iterable[str]]:
    # a malformed cell list, or a cell over the oracle's length cap, is an
    # error before any checking starts
    specs = parse_cells(args.cells) if args.cells else ()
    for spec in specs:
        check_cell(spec)
    results = []
    if args.exhaustive_max_len is not None:
        results.append(exhaustive_check(args.exhaustive_q, args.exhaustive_max_len))
    if specs:
        results.extend(run_cells(specs, args.seed))
    if not results:
        raise ValueError("nothing to check: give --cells and/or --exhaustive-max-len")
    payload = []
    for r in results:
        print(f"{r.spec.label}: {r.elapsed:.3f}s", file=sys.stderr)
        d = r.to_json_dict()
        d.pop("elapsed_seconds")  # keep stdout byte-identical across reruns
        payload.append(d)
    return (0 if all(r.ok for r in results) else 1), [_emit_json(payload)]


# ---------------------------------------------------------------- parser


def _int_at_least(low: int):
    """argparse type: an int >= low; anything else is a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_NONNEGATIVE = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def _add_word_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("word", help="word to analyze (may be empty)")
    sub.add_argument(
        "--alphabet",
        help="explicit alphabet string; each character's symbol is its index "
        "(default mapping: 0-9 then a-z)",
    )


def _add_size_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, required=True, help="alphabet size")
    sub.add_argument(
        "--max-len", type=_NONNEGATIVE, required=True, help="largest word length"
    )


def _add_bounds_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--bounds", help="comma-separated bound ids (default: all)")


def _add_jobs_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=_POSITIVE,
        default=1,
        help="worker processes, at most one per usable CPU (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richlab",
        description="Palindromic richness toolbox: analyze words, verify "
        "complexity bounds, enumerate rich words, cross-check against "
        "naive oracles.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="full palindromic report for one word")
    _add_word_arg(p)
    p.set_defaults(func=_cmd_analyze)

    p = subs.add_parser("switches", help="emit length-n switches as JSON lines")
    _add_word_arg(p)
    p.add_argument("--n", type=_NONNEGATIVE, required=True, help="switch length")
    p.set_defaults(func=_cmd_switches)

    p = subs.add_parser("closure", help="print the palindromic closure")
    _add_word_arg(p)
    p.set_defaults(func=_cmd_closure)

    p = subs.add_parser("verify", help="check complexity bounds on one word")
    _add_word_arg(p)
    _add_bounds_arg(p)
    p.add_argument(
        "--n",
        type=int,
        help="check a single order n; without --bounds, bounds that do not "
        "apply at n are skipped (one stderr line each)",
    )
    p.add_argument(
        "--all-n",
        action="store_true",
        help="check every admissible order (the default)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="evaluate richness-only bounds on non-rich words "
        "(reports are marked as not covered)",
    )
    p.add_argument(
        "--with-closure",
        action="store_true",
        help="also run B8/B9 on the palindromic closure",
    )
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("sweep", help="check bounds on every rich word up to a length")
    _add_size_args(p)
    _add_bounds_arg(p)
    _add_jobs_arg(p)
    p.add_argument(
        "--no-closure",
        action="store_true",
        help="skip the B8/B9 runs on palindromic closures",
    )
    p.add_argument("--csv", action="store_true", help="CSV summary instead of JSON")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("enumerate", help="count (or list) rich words per length")
    _add_size_args(p)
    p.add_argument(
        "--shard-prefix",
        type=_NONNEGATIVE,
        default=DEFAULT_SHARD_PREFIX,
        help=f"prefix length for parallel sharding (default {DEFAULT_SHARD_PREFIX})",
    )
    _add_jobs_arg(p)
    p.add_argument(
        "--canonical",
        action="store_true",
        help="count words up to letter renaming only",
    )
    p.add_argument("--emit", metavar="FILE", help="write the words to FILE, one per line")
    p.add_argument("--csv", action="store_true", help="CSV table instead of JSON")
    p.set_defaults(func=_cmd_enumerate)

    p = subs.add_parser(
        "oracle-check", help="compare fast implementations against naive oracles"
    )
    p.add_argument("--seed", type=int, default=0, help="fuzzing seed (default 0)")
    p.add_argument(
        "--cells",
        help="comma-separated cells like q2:len50:1000 "
        "(alphabet 2, length 50, 1000 words)",
    )
    p.add_argument(
        "--exhaustive-max-len",
        type=_NONNEGATIVE,
        help="also compare every word up to this length",
    )
    p.add_argument(
        "--exhaustive-q",
        type=int,
        default=2,
        help="alphabet size for the exhaustive comparison (default 2)",
    )
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    try:
        code, out = args.func(args)
    except (ValueError, OSError) as exc:
        # parse errors (a ValueError) and domain preconditions (richness,
        # closure, limits) are usage errors, as are unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: keep exit 1 unambiguous
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    # the command has its exit code before any of its stdout is written, so
    # a command that fails writes none, and a reader who stops early
    # cannot change the code
    _write_stdout(out)
    return code


def _write_stdout(pieces: Iterable[str]) -> None:
    """Write the pieces to stdout; a reader that has closed the pipe gets no more.

    Whether a write finds the pipe closed depends on when the reader
    (`head`, say) quit, so a broken pipe is not an error: the rest of the
    output is dropped and the exit code stays the command's own.
    """
    try:
        for piece in pieces:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot fail too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
