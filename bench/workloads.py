"""One cold round of one benchmark workload, run in a fresh process.

    python3 bench/workloads.py --workload sweep --seed 1 --trace 0

The process imports ``richlab.cli``, builds the workload's inputs from the
seed, runs the timed phase through richlab's public API, checks every
output, and prints one JSON line: timings, item counts, failures and, when
traced, the per-layer figures.  ``bench/run.py`` starts one such process per
round, because richlab's lru caches would make a second in-process round
warm while a command-line user always starts cold.

Sizes are scaled from the issue's figures so that one round takes a few
seconds on a 2-core box; the mix of alphabets and modes is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED_PATH = BENCH / "expected.json"
SPANS_DIR = ROOT / ".bench_out"

# Rich-word counts per length, as recorded in tests/test_acceptance.py.
PI2 = (1, 2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756,
       3246, 5916, 10618, 18800, 32846)
PI3 = (1, 3, 9, 27, 75, 201, 513, 1269, 3033, 7047)
PI = {2: PI2, 3: PI3}

SWEEP_CALLS = ((2, 9), (3, 6))
COUNT_CALLS = ((2, 20), (3, 12))
EXHAUSTIVE = (2, 9)
# (q, length, words): short cells over q2/q3, long ones over q2/q4
CELLS = ((2, 50, 150), (3, 50, 150), (2, 200, 30), (4, 200, 30))
# (kind, q, length) per verify_long request; each slot has VARIANTS words
# in the recorded pool and the seed picks one, so every seed costs about
# the same while the words differ.
VERIFY_SLOTS = (
    tuple(("rich", 2, 120 + 15 * k) for k in range(12))
    + tuple(("rich", 3, 120 + 15 * k) for k in range(12))
    + tuple(("fib", 2, 150 + 30 * k) for k in range(6))
)
VARIANTS = 8
# back-to-back host-speed samples before and after the timed phase, so the
# first and last requests have samples on both sides
PROBE_WARM_S = 0.15


def monotonic() -> float:
    """System-wide clock, comparable between this process and its parent."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(obj) -> str:
    """Short stable hash of JSON-able data, floats clamped as the CLI prints them."""

    def portable(v):
        if isinstance(v, float):
            return float(f"{v:.12g}")
        if isinstance(v, dict):
            return {k: portable(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [portable(x) for x in v]
        return v

    text = json.dumps(portable(obj), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_payload(summary) -> dict:
    """The sweep summary as ``richlab sweep`` prints it (no timing)."""
    payload = summary.to_json_dict()
    payload.pop("elapsed_seconds")
    return payload


def verify_payload(reports) -> list:
    return [r.to_json_dict() for r in reports]


# ---------------------------------------------------------------- requests


@dataclass
class Request:
    """One call into richlab's public API; resolved by name at call time so
    that a traced round goes through the wrappers."""

    module: str
    func: str
    args: tuple
    kwargs: dict = field(default_factory=dict)
    items: int = 1
    check: tuple = ()  # what the output is checked against

    def resolve(self):
        return getattr(importlib.import_module(f"richlab.{self.module}"), self.func)


@dataclass
class Workload:
    requests: list
    # batch: the whole round is one request (as one CLI invocation would
    # be); otherwise every Request is an independent request
    batch: bool


def sweep_requests(seed, expected, round_no=0) -> Workload:
    from richlab.bounds import BOUND_IDS

    reqs = []
    for q, max_len in SWEEP_CALLS:
        exp = expected["sweep"][f"q{q}:{max_len}"]
        reqs.append(Request("bounds", "sweep_rich", (q, max_len, BOUND_IDS),
                            {"include_closure": True, "jobs": 1},
                            items=sum(PI[q][: max_len + 1]),
                            check=(q, max_len, exp["digest"])))
    return Workload(reqs, batch=True)


def count_requests(seed, expected, round_no=0) -> Workload:
    reqs = []
    for q, max_len in COUNT_CALLS:
        counts = tuple(expected["count"][f"q{q}:{max_len}"])
        reqs.append(Request("enumeration", "rich_counts", (q, max_len),
                            {"jobs": 1}, items=sum(counts), check=(q, counts)))
    return Workload(reqs, batch=True)


def crosscheck_requests(seed, expected, round_no=0) -> Workload:
    from richlab.words import Word

    q, max_len = EXHAUSTIVE
    reqs = [
        Request("crosscheck", "compare_word", (Word.from_symbols(t, q),))
        for n in range(max_len + 1)
        for t in itertools.product(range(q), repeat=n)
    ]
    for q, length, count in CELLS:
        rng = random.Random(f"{seed}:{round_no}:{q}:{length}")
        for i in range(count):
            w = Word.from_symbols([rng.randrange(q) for _ in range(length)], q)
            sampler = random.Random(f"{seed}:{round_no}:{q}:{length}:{i}")
            reqs.append(Request("crosscheck", "compare_word", (w, sampler)))
    return Workload(reqs, batch=False)


def verify_requests(seed, expected, round_no=0) -> Workload:
    from richlab.words import Word

    pool = expected["verify_long"]
    # each round of a run draws its own variants, so one run covers many
    # more words than one round holds and its percentiles depend less on
    # which variants one draw happened to pick
    rng = random.Random(f"verify_long:{seed}:{round_no}")
    reqs = []
    for k in range(len(VERIFY_SLOTS)):
        v = rng.randrange(VARIANTS)
        w = Word.parse(pool["words"][k][v])
        reqs.append(Request("bounds", "evaluate_word", (w,),
                            {"include_closure": True},
                            check=(pool["digests"][k][v],)))
    return Workload(reqs, batch=False)


BUILDERS = {
    "sweep": sweep_requests,
    "count": count_requests,
    "crosscheck": crosscheck_requests,
    "verify_long": verify_requests,
}


# ---------------------------------------------------------------- checks


def check_output(workload: str, req: Request, out) -> int:
    """Number of the request's items whose output is wrong."""
    if workload == "sweep":
        q, max_len, want = req.check
        by_bound = out.per_bound
        ok = (
            out.words == sum(PI[q][: max_len + 1])
            and out.violations == 0
            and by_bound["B8"]["equalities"] == by_bound["B8"]["reports"]
            and digest(sweep_payload(out)) == want
        )
        return 0 if ok else req.items
    if workload == "count":
        q, want = req.check
        got = out.counts
        if len(got) != len(want):
            return req.items
        known = PI[q]
        return sum(
            exp for n, exp in enumerate(want)
            if got[n] != exp or (n < len(known) and got[n] != known[n])
        )
    if workload == "crosscheck":
        return 1 if out else 0
    if workload == "verify_long":
        (want,) = req.check
        ok = all(r.holds for r in out) and digest(verify_payload(out)) == want
        return 0 if ok else 1
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- trace


def trace_metrics(workload: str, tracer, requests: list, outputs: list, cache0) -> dict:
    """Per-layer figures of one traced round."""
    import tracing
    from richlab.paltree import _lpps_of

    spans = tracing.summarize(tracer)
    items = sum(r.items for r in requests)
    total = sum(s["incl_s"] for name, s in spans.items() if name == "bench.request")

    def self_of(prefix: str) -> float:
        return sum(s["self_s"] for name, s in spans.items() if name.startswith(prefix))

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def share(seconds: float) -> float:
        return seconds / total if total else 0.0

    counts = tracer.counts
    info = _lpps_of.cache_info()
    hits, misses = info.hits - cache0.hits, info.misses - cache0.misses
    m = {
        "words.word_init_calls": counts["word_init"],
        "paltree.palindex_builds": calls("paltree.PalIndex"),
        "paltree.palindex_builds_per_item": calls("paltree.PalIndex") / items,
        "paltree.palindex_self_s": self_of("paltree.PalIndex"),
        "paltree.lpps_calls": calls("paltree.lpps"),
        "paltree.lpps_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "structures.switches_calls": calls("structures.switches"),
        "structures.switches_self_s": self_of("structures.switches"),
        "structures.closure_self_s": self_of("structures.palindromic_closure"),
        "bounds.word_profile_self_s": self_of("bounds.word_profile"),
        "bounds.word_profile_share": share(self_of("bounds.word_profile")),
        "bounds.reports_built": counts["reports_built"],
        "bounds.evaluate_self_s": self_of("bounds.evaluate_word"),
        "bounds.log_domain_reports": counts["log_domain_reports"],
        "bounds.hp_escalations": counts["workprec"],
        "oracle.self_s": self_of("oracle."),
        "oracle.share": share(self_of("oracle.")),
        "crosscheck.compare_word_self_s": self_of("crosscheck.compare_word"),
        "trace.spans": len(tracer.start),
    }
    for layer in tracing.LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = self_of(f"{layer}.")
    # reports that reached the workload's output
    if workload == "sweep":
        m["bounds.reports_folded"] = sum(out.reports for out in outputs)
    elif workload == "verify_long":
        m["bounds.reports_folded"] = sum(len(out) for out in outputs)
    else:
        m["bounds.reports_folded"] = 0
    # largest single-length slice's share of its serial sweep
    slice_share = 0.0
    sweep_id = tracer.name_id("bounds.sweep_rich")
    slice_id = tracer.name_id("bounds._sweep_length")
    for i, nid in enumerate(tracer.name_of):
        if nid == slice_id:
            p = tracer.parent[i]
            if p >= 0 and tracer.name_of[p] == sweep_id:
                whole = tracer.end[p] - tracer.start[p]
                slice_share = max(slice_share, (tracer.end[i] - tracer.start[i]) / whole)
    m["enumeration.slice_max_share"] = slice_share
    m.update(enumeration_counts(workload, requests, outputs))
    return m


def enumeration_counts(workload: str, requests: list, outputs: list) -> dict:
    """Exact Eertree work of a count round, derived from its output.

    rich_counts visits every rich prefix once and tries q appends (each
    followed by one pop) below every prefix shorter than max_len; exactly
    the visited prefixes of length >= 1 were created by an append.
    """
    if workload != "count":
        return {"paltree.eertree_append_pops": 0, "enumeration.prune_ratio": 0.0}
    attempted = created = 0
    for req, out in zip(requests, outputs):
        q = req.args[0]
        attempted += q * sum(out.counts[:-1])
        created += sum(out.counts[1:])
    return {
        "paltree.eertree_append_pops": attempted,
        "enumeration.prune_ratio": created / attempted,
    }


# ---------------------------------------------------------------- main


def run_round(workload: str, seed: int, round_no: int, traced: bool, expected: dict) -> dict:
    t = time.perf_counter()
    import richlab.cli  # noqa: F401  (what a CLI invocation pays for)

    import_s = time.perf_counter() - t
    wl = BUILDERS[workload](seed, expected, round_no)
    ready = monotonic()

    tracer = None
    if traced:
        import tracing
        from richlab.paltree import _lpps_of

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cache0 = _lpps_of.cache_info()
    calls = [(req.resolve(), req) for req in wl.requests]

    def issue(fn, req):
        return fn(*req.args, **req.kwargs)

    if traced:
        # one root span per request, so each layer's share has a base
        issue = tracer.span_function(issue, "bench.request")

    outputs = []
    windows = []
    clock = time.perf_counter
    probe = HostSpeedProbe()
    probe.warm(PROBE_WARM_S)
    with probe:
        cpu0 = time.process_time()
        t0 = clock()
        for fn, req in calls:
            t = clock()
            outputs.append(issue(fn, req))
            windows.append((t, clock()))
        t1 = clock()
        cpu = time.process_time() - cpu0
        probe.warm(PROBE_WARM_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    nominal = probe.nominal(t0, t1)
    latencies = [nominal] if wl.batch else [probe.nominal(a, b) for a, b in windows]

    failed = sum(check_output(workload, req, out) for req, out in zip(wl.requests, outputs))
    result = {
        "ready": ready,
        "import_s": import_s,
        # set-up ran just before the probe's first samples
        "setup_factor": probe.factor(probe.at[0], probe.at[0]),
        "wall_s": t1 - t0,
        "nominal_s": nominal,
        "cpu_s": cpu,
        "items": sum(r.items for r in wl.requests),
        "failed": failed,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        layers = trace_metrics(workload, tracer, wl.requests, outputs, cache0)
        # self times in nominal seconds too, like every other time reported
        factor = probe.factor(t0, t1)
        result["layers"] = {
            k: v * factor if k.endswith("_s") else v for k, v in layers.items()
        }
        tracer.write(SPANS_DIR / f"spans-{workload}.bin")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, default=0, help="round of the run; picks inputs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    expected = json.loads(EXPECTED_PATH.read_text())
    result = run_round(args.workload, args.seed, args.round, bool(args.trace), expected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
