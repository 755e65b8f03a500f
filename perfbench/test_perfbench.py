"""Smoke tests of the benchmark itself: a short seeded run per workload.

Run from the root of the checkout:

    python3 -m pytest -q perfbench

Each run uses ``--smoke`` (small inputs) in a fresh process, as the
benchmark does.  The tests check that every declared metric is printed
with its unit, that traced spans nest with self time >= 0, and that the
work counts and result digests repeat exactly for a fixed seed.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("line_density", "point_solves", "monte_carlo")
SEED = 7

sys.path.insert(0, HERE)
import tracing  # noqa: E402


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, seed=SEED):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    with open(os.path.join(RUN_DIR, f"report-{workload}-seed{seed}"
                                    f"-trace{trace}.json")) as fh:
        report = json.load(fh)
    return result, report


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_repeat_counts_and_digests(workload):
    first, rep1 = _run(workload, 0)
    second, rep2 = _run(workload, 0)
    _check_metrics(first, _declared()["end_to_end"])
    assert first["correct"] and first["failed"] == 0, rep1["failures"]
    assert first["metrics"]["wall_s"]["value"] > 0
    assert first["metrics"]["setup_s"]["value"] > 0
    assert rep1["counts"] and rep1["digests"]
    assert rep1["counts"] == rep2["counts"]
    assert rep1["digests"] == rep2["digests"]
    assert rep1["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_nested_spans(workload):
    result, report = _run(workload, 1)
    _check_metrics(result, _declared()["per_layer"])
    with open(os.path.join(RUN_DIR, f"spans-{workload}.json")) as fh:
        spans = [tuple(s) for s in json.load(fh)["spans"]]
    assert spans
    assert tracing.nesting_errors(spans) == []
    assert min(tracing.self_times(spans)) >= 0
    # tracing changes no result, and the traced work counts are exact
    _, untraced = _run(workload, 0)
    assert report["counts"] == untraced["counts"]
    assert report["digests"] == untraced["digests"]
    again, _ = _run(workload, 1)
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] == "count"}
    assert counts == {k: again["metrics"][k]["value"] for k in counts}


def test_benchmark_fails_without_the_package():
    os.makedirs(RUN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as bare:
        bench = os.path.join(bare, "perfbench")
        os.mkdir(bench)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(HERE):
            if name.endswith((".py", ".md")):
                shutil.copy(os.path.join(HERE, name), bench)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "point_solves",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
