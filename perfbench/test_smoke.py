"""Smoke tests of the benchmark runner, at the 16x16 smoke size.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import END_TO_END, PER_LAYER, REFERENCE, RunSet  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, reference_key  # noqa: E402


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    proc = run_bench(BENCH.parent, "--workload", workload, "--seed", "5",
                     "--seconds", "0", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = PER_LAYER if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert lines[0].startswith("environment ")
    table = "\n".join(lines[1:-1])
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s.*\s{re.escape(unit)}$", table, re.M), name


def test_tracer_records_nested_spans():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(1e-3), "leaf")
    step = tracer.wrap(lambda: (leaf(), leaf()), "step",
                       after=lambda args, result: setattr(tracer, "step", tracer.step + 1))
    tracer.wrap(lambda: [step() for _ in range(3)], "outer")()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer"] + ["step", "leaf", "leaf"] * 3
    parents = [-1] + [0, 1, 1, 0, 4, 4, 0, 7, 7]
    assert [s[3] for s in spans] == parents
    # the step id is the one being computed when the span started
    assert [s[4] for s in spans] == [1] + [1] * 3 + [2] * 3 + [3] * 3
    for name, t0, t1, parent, _ in spans:
        assert t0 <= t1
        if parent >= 0:
            assert spans[parent][1] <= t0 and t1 <= spans[parent][2]
        if name == "leaf":
            assert t1 - t0 >= 1e-3


def test_wrong_field_is_a_failed_run(tmp_path):
    key = reference_key("graded-direct-64", "smoke", 0)
    with np.load(REFERENCE) as ref:
        wrong = 1.01 * ref[key]
    runs = RunSet("graded-direct-64", "smoke", 0, tmp_path, wrong)
    assert runs.run(trace=False) is None
    assert (runs.attempted, runs.failed) == (1, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "graded-direct-64", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
