"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import ast
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # root [0,10] has children a [1,4] and b [3,6], which overlap, and c
    # [8,12], which outlives its parent; a has one child g [2,3].
    names = ["root", "a", "g", "b", "c"]
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    selfs = dict(zip(names, tracing.self_times(parent, start, end)))
    # children of root cover [1,6] and [8,10]
    assert selfs == pytest.approx({"root": 3.0, "a": 2.0, "g": 1.0, "b": 3.0, "c": 4.0})


def test_tracer_wrappers_nest_and_self_times_add_up():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    def gen():
        yield leaf()
        yield leaf()

    leaf = tracer.span_function(leaf, "x.leaf")
    gen = tracer.span_function(gen, "x.gen")

    def top():
        return sum(gen()) + leaf()

    top = tracer.span_function(top, "x.top")
    assert top() == 3
    spans = tracing.summarize(tracer)
    assert {k: v["calls"] for k, v in spans.items()} == {
        "x.top": 1, "x.gen": 3, "x.leaf": 3,  # three resumes of the generator
    }
    total_self = sum(v["self_s"] for v in spans.values())
    assert total_self == pytest.approx(spans["x.top"]["incl_s"])
    assert list(tracer.parent) == [-1, 0, 1, 0, 3, 0, 0]


@pytest.mark.parametrize(
    "n, wanted, expected",
    [
        (10000, 90.0, 90.0),
        (10000, 99.9, 99.9),
        (1000, 99.9, 99.0),
        (100, 90.0, 90.0),
        (99, 90.0, 75.0),
        (40, 90.0, 75.0),
        (20, 90.0, 50.0),
        (19, 90.0, None),
        (0, 50.0, None),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(n, wanted, expected):
    assert run.tail_percentile(n, wanted) == expected


def test_percentile_matches_statistics_quantiles():
    import statistics

    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    q = statistics.quantiles(xs, n=10, method="inclusive")
    assert run.percentile(xs, 90) == pytest.approx(q[8])
    assert run.percentile(xs, 50) == pytest.approx(statistics.median(xs))


def test_probe_removes_its_own_samples_and_scales_by_nearby_speed():
    probe = hostspeed.HostSpeedProbe()
    # the host ran at half the nominal speed: every sample took twice NOMINAL_S
    probe.at = [0.0, 1.0, 2.0, 3.0]
    probe.took = [2 * hostspeed.NOMINAL_S] * 4
    assert probe.factor(0.5, 2.5) == pytest.approx(0.5)
    # [0.5, 2.5) holds the samples at 1.0 and 2.0
    own = 2 * 2 * hostspeed.NOMINAL_S
    assert probe.nominal(0.5, 2.5) == pytest.approx((2.0 - own) * 0.5)


def test_probe_follows_a_speed_change_within_one_interval():
    probe = hostspeed.HostSpeedProbe()
    # half speed until t = 1, nominal speed after; samples every 20 ms
    probe.at = [k * 0.02 for k in range(-50, 150)]
    probe.took = [(2 if t < 1 else 1) * hostspeed.NOMINAL_S for t in probe.at]
    own = sum(probe.took[50:150])
    assert probe.nominal(0.0, 2.0) == pytest.approx(1.5 - 0.75 * own, rel=0.05)


def test_pi_tables_match_the_acceptance_tests():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("PI2", "PI3")
    }
    assert tables == {"PI2": workloads.PI2, "PI3": workloads.PI3}


def test_recorded_counts_agree_with_the_pi_tables():
    import json

    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    for q, max_len in workloads.COUNT_CALLS:
        counts = expected["count"][f"q{q}:{max_len}"]
        known = workloads.PI[q]
        assert len(counts) == max_len + 1
        assert counts[: len(known)] == list(known[: max_len + 1])


def _expected_with_wrong_digests():
    import json

    expected = json.loads(workloads.EXPECTED_PATH.read_text())
    expected["sweep"]["q2:4"] = {"words": 31, "digest": "0" * 16}
    expected["count"]["q2:6"] = [1, 2, 4, 8, 16, 32, 65]
    digests = expected["verify_long"]["digests"]
    expected["verify_long"]["digests"] = [["0" * 16] * len(row) for row in digests]
    return expected


@pytest.mark.parametrize(
    "workload, patch",
    [
        ("sweep", {"SWEEP_CALLS": ((2, 4),)}),
        ("count", {"COUNT_CALLS": ((2, 6),)}),
        ("verify_long", {"VERIFY_SLOTS": workloads.VERIFY_SLOTS[:1]}),
    ],
)
def test_wrong_expected_digest_counts_as_failed(monkeypatch, workload, patch):
    for name, value in patch.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(workloads, "PROBE_WARM_S", 0.01)
    result = workloads.run_round(workload, 1, 0, False, _expected_with_wrong_digests())
    assert result["items"] >= 1
    assert 0 < result["failed"] <= result["items"]


def test_right_digests_pass_on_a_small_sweep(monkeypatch):
    from richlab.bounds import BOUND_IDS, sweep_rich

    monkeypatch.setattr(workloads, "SWEEP_CALLS", ((2, 4),))
    monkeypatch.setattr(workloads, "PROBE_WARM_S", 0.01)
    summary = sweep_rich(2, 4, BOUND_IDS, include_closure=True)
    expected = _expected_with_wrong_digests()
    expected["sweep"]["q2:4"]["digest"] = workloads.digest(workloads.sweep_payload(summary))
    result = workloads.run_round("sweep", 1, 0, False, expected)
    assert (result["items"], result["failed"]) == (31, 0)


def test_same_seed_same_inputs_other_seed_other_inputs():
    import json

    expected = json.loads(workloads.EXPECTED_PATH.read_text())

    def words(seed):
        wl = workloads.crosscheck_requests(seed, expected, round_no=0)
        return [r.args[0].chars for r in wl.requests]

    assert words(7) == words(7)
    assert words(7) != words(8)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_exactly_the_metrics_benchmark_json_names(trace, section):
    import json
    import subprocess

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "count", "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_run_refuses_a_tree_without_richlab(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
