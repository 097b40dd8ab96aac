"""richlab benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs cold rounds of the workload (one fresh process each, see
``workloads.py``) until ``--seconds`` have passed, then prints one line per
metric with its unit and, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, taken as medians
over the rounds: ``setup_s`` (interpreter start, ``import richlab.cli`` and
input generation, timed from the spawn of the process), ``items_per_s``,
``latency_p50_ms``, ``latency_p90_ms`` and ``peak_rss_mb``.  With
``--trace 1`` untraced and traced rounds alternate; the metrics are the
per-layer ones from the traced rounds plus ``trace.overhead_ratio``, the
traced over the untraced timed wall time.

Runs from the root of a checkout and reads and writes only inside it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep", "count", "crosscheck", "verify_long")

ROUND_TIMEOUT_S = 120
MIN_ROUNDS = 3
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10
# Per-layer figures that are exact counts; they must repeat from round to
# round, and a round that disagrees marks the run incorrect.
COUNTS = (
    "words.word_init_calls",
    "paltree.palindex_builds",
    "paltree.palindex_builds_per_item",
    "paltree.eertree_append_pops",
    "paltree.lpps_calls",
    "structures.switches_calls",
    "bounds.reports_built",
    "bounds.reports_folded",
    "bounds.log_domain_reports",
    "bounds.hp_escalations",
    "trace.spans",
)
UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "paltree.palindex_builds_per_item": "builds/item",
    "paltree.ns_per_append_pop": "ns",
    "cli.import_s": "s",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name in COUNTS:
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def tail_percentile(n: int, wanted: float = 90.0) -> float | None:
    """Highest percentile up to `wanted` that has TAIL_SAMPLES of n beyond it."""
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        # in tenths of a percent, so 99.9 has no rounding error
        if p <= wanted and n * (1000 - round(p * 10)) >= TAIL_SAMPLES * 1000:
            return p
    return None


def percentile(samples: list[float], p: float) -> float:
    """Linear-interpolated percentile, matching statistics.quantiles(inclusive)."""
    s = sorted(samples)
    if len(s) == 1:
        return s[0]
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def machine_facts() -> dict:
    """Read-only facts about the host; nothing here changes a setting."""
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "cpu_model": None,
        "loadavg": None,
    }
    for pkg in ("mpmath", "numpy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    facts["loadavg"] = loadavg()
    return facts


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_round(workload: str, seed: int, round_no: int, traced: bool) -> dict:
    """One cold process: its result plus set-up time seen from here."""
    env = dict(os.environ)
    # fixed set order, so sampled work and exact counts repeat run to run
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--round", str(round_no), "--trace", str(int(traced))]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} round exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - spawned
    result["setup_s"] = result["setup_wall_s"] * result["setup_factor"]
    return result


def end_to_end(rounds: list[dict]) -> tuple[dict, dict]:
    """Metrics over untraced rounds, and notes on how each was taken."""
    latencies = [x for r in rounds for x in r["latencies_s"]]
    notes = {}
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        # all rounds pooled: rounds may draw different inputs (verify_long)
        "items_per_s": sum(r["items"] for r in rounds) / sum(r["nominal_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    for p in (50, 90):
        name = f"latency_p{p}_ms"
        metrics[name] = percentile(latencies, p) * 1000.0
        tail = tail_percentile(len(latencies), p)
        notes[name] = (
            f"over {len(latencies)} requests; highest percentile with "
            f"{TAIL_SAMPLES} beyond: {'none' if tail is None else f'p{tail:g}'}"
        )
    setup_wall = statistics.median(r["setup_wall_s"] for r in rounds)
    notes["setup_s"] = f"median of {len(rounds)} cold processes; wall {setup_wall:.4g} s"
    cpu = statistics.median(r["cpu_s"] / r["wall_s"] for r in rounds)
    raw = sum(r["items"] for r in rounds) / sum(r["wall_s"] for r in rounds)
    notes["items_per_s"] = (
        f"{len(rounds)} rounds; per wall second {raw:.6g}; cpu/wall {cpu:.3f}"
    )
    return metrics, notes


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Per-layer metrics: counts must agree; timings are medians."""
    layers = [r["layers"] for r in traced]
    metrics = {}
    steady = True
    for name in layers[0]:
        values = [lay[name] for lay in layers]
        if name in COUNTS:
            steady &= len(set(values)) == 1
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    wall = statistics.median(r["nominal_s"] for r in plain)
    pops = metrics["paltree.eertree_append_pops"]
    metrics["paltree.ns_per_append_pop"] = wall / pops * 1e9 if pops else 0.0
    metrics["cli.import_s"] = statistics.median(
        r["import_s"] * r["setup_factor"] for r in plain + traced
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["nominal_s"] for r in traced) / wall
    )
    return metrics, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "richlab" / "__init__.py").is_file():
        print(f"no richlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    facts = machine_facts()
    plain: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    while True:
        plain.append(run_round(args.workload, args.seed, len(plain), False))
        if args.trace:
            # traced rounds all take round 0's inputs, so counts must repeat
            traced.append(run_round(args.workload, args.seed, 0, True))
        enough = len(plain) >= MIN_ROUNDS or args.trace
        samples = sum(len(r["latencies_s"]) for r in plain)
        if samples > len(plain) and not args.trace:
            # per-item requests: hold enough samples for a genuine p90
            enough = enough and tail_percentile(samples) == 90.0
        if enough and time.monotonic() - start >= args.seconds:
            break
    facts["loadavg_after"] = loadavg()

    rounds = plain + traced
    attempted = sum(r["items"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    e2e, notes = end_to_end(plain)
    correct = failed == 0
    if args.trace:
        metrics, steady = per_layer(plain, traced)
        correct &= steady
    else:
        metrics = e2e

    print("machine " + json.dumps(facts))
    for k, r in enumerate(rounds):
        kind = "traced" if k >= len(plain) else "plain"
        print(f"round {k:<3} {kind:<6} items {r['items']:<8} failed {r['failed']:<4} "
              f"wall {r['wall_s']:.4f} s  nominal {r['nominal_s']:.4f} s  "
              f"cpu {r['cpu_s']:.4f} s  setup {r['setup_wall_s']:.4f} s")
    shown = dict(e2e, failed_ratio=failed / attempted)
    if args.trace:
        shown.update(metrics)
    for name, value in shown.items():
        note = notes.get(name, "")
        print(f"{args.workload:<12} {name:<34} {value:>16.6g} {unit_of(name):<12} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
