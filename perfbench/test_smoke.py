"""Reduced-size smoke test of the benchmark harness.

Run from the root of the checkout:  python3 -m pytest perfbench/test_smoke.py
"""

import copy
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = workload.load_spec()
WORKLOADS = sorted(SPEC["workloads"])  # the ones BENCHMARK.json lists and the opt-in ones


def run_bench(cwd, name, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_emits_every_named_metric(name, trace):
    proc = run_bench(ROOT, name, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def _corrupt(name, size):
    if name == "penzl-cli":
        size["poles"] = [[2.0 * re, 2.0 * im] for re, im in size["poles"]]
    elif name == "poisson-stationary":
        size["objective"] /= 2.0
    else:
        size["objectives"] = [v / 2.0 for v in size["objectives"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_corrupted_reference_trips_the_output_check(name):
    size = copy.deepcopy(SPEC["workloads"][name]["sizes"]["smoke"])
    cls = workload.WORKLOADS[name]
    good = cls(size, 1, SPEC)
    try:
        assert workload.run_pipelines(good, 0, log=io.StringIO())["failed"] == 0
    finally:
        good.close()
    _corrupt(name, size)
    bad = cls(size, 1, SPEC)
    try:
        result = workload.run_pipelines(bad, 0, log=io.StringIO())
    finally:
        bad.close()
    assert result["attempted"] == 1 and result["failed"] == 1


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
