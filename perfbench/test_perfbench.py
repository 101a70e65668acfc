"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``; the
package's own suite under ``tests/`` does not collect them.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hitmin  # noqa: E402
import tracing  # noqa: E402
from reference import Reference, close  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_reference_matches_the_exact_solver():
    cases = [
        (hitmin.gen_planted_two_community(6, 5, 0.6, 0.3, 3), [(), (0,), (0, 0, 2)]),
        (hitmin.gen_lollipop(30, 6), [(), (35,)]),
        (hitmin.gen_path(7, [0, 6]), [(), (3,)]),
    ]
    for graph, shortcut_sets in cases:
        ref = Reference(graph)
        for endpoints in shortcut_sets:
            profile = hitmin.hitting_to_blue(graph, endpoints)
            assert np_close(profile.times, ref.times(endpoints))
            assert close(profile.mean_time, ref.mean(endpoints))
            assert close(profile.max_time, ref.max(endpoints))


def np_close(a, b):
    return all(close(x, y) for x, y in zip(a, b)) and len(a) == len(b)


def traced_pass(name, seed):
    workload = WORKLOADS[name](seed)
    inputs = workload.setup()
    with tracing.Tracer() as tracer:
        started = time.perf_counter()
        outcomes, _times = workload.run_pass(inputs)
        wall = time.perf_counter() - started
    metrics = tracing.layer_metrics(tracer.spans, 0, len(tracer.spans), wall)
    mismatches, _ratios = workload.check(inputs, outcomes)
    counts = {k: v for k, v in metrics.items() if tracing.LAYER_UNITS[k] == "count"}
    return counts, metrics, mismatches


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_a_seed(name):
    first, metrics, mismatches = traced_pass(name, 7)
    again, _metrics, _mismatches = traced_pass(name, 7)
    assert first == again
    assert mismatches == {}
    # each layer is exercised by one workload and bypassed by another
    if name == "greedy-plus-guarantee":
        assert first["exact.solve_calls"] == 0
        assert first["estimator.walk_steps"] > 0
        assert first["optimize.cand_evals"] > 0
        assert first["estimator.degenerate"] == 0
    else:
        assert first["exact.solve_calls"] > 0
        assert metrics["estimator.walk_s"] == 0
    assert (first["kcenter.qm_solves"] > 0) == (name == "sweep-planted")


def test_tracer_restores_every_binding():
    before = {name: getattr(hitmin.cli, name) for name in ("evaluate", "run_sweep")}
    lu_factor = tracing.scipy.linalg.lu_factor
    with tracing.Tracer():
        assert hitmin.cli.evaluate is not before["evaluate"]
    assert {name: getattr(hitmin.cli, name) for name in before} == before
    assert tracing.scipy.linalg.lu_factor is lu_factor


def test_run_prints_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_UNITS)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-planted",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eval-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
