"""Self-test of the benchmark: every workload runs at toy size, untraced and
traced, and emits every metric that BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench -q

Toy sizes are too small for the statistical output checks, so `correct`
may be false here; the full-size runs are what the checks judge.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_emits_every_declared_metric(workload, trace, section):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, unit in declared.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit, name
        value = metric["value"]
        # only a timing of a pass whose checks failed may be missing
        assert isinstance(value, (int, float)) or (
            value is None and not result["correct"]), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
