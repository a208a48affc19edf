"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("simulate.windows", "simulate.points", "simulate.rng_streams", "deviations.cumulant_orders")


def bench(workload, trace, seed=1, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    text, result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    table = text.splitlines()[:-1]
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"]) for line in table), m["name"]
    assert '"seed": 1' in text.splitlines()[0]
    times = [m["name"] for m in spec if m["unit"] in ("s", "ns")]
    assert all(result["metrics"][name]["value"] > 0 for name in times)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(workload):
    _, a = bench(workload, 1, 7)
    _, b = bench(workload, 1, 7)
    assert a["correct"] and b["correct"]
    a, b = values(a), values(b)
    assert {k: a[k] for k in EXACT_COUNTS} == {k: b[k] for k in EXACT_COUNTS}
    assert a["deviations.cumulant_orders"] > 0
    if workload == "verify":
        assert a["simulate.windows"] > 0 and a["simulate.points"] > a["simulate.windows"]


def test_counts_do_not_depend_on_workers():
    # 4 workers on 2 cores also stresses the tracer's shared span list:
    # a lost append would lower a count
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    runs = [bench("verify", 1, 3, "--workers", str(w))[1] for w in (1, 2, 4)]
    assert all(r["correct"] for r in runs)
    one, *others = [{k: values(r)[k] for k in counts} for r in runs]
    assert all(other == one for other in others)
    assert one["simulate.fields"] > 0 and one["simulate.cascades"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
