"""Smoke test of the benchmark: every workload at its smallest size, traced
and untraced.  It asserts that nothing fails and every named metric is
present; it sets no timing bound.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smallest_size_passes_and_reports_every_metric(workload, trace):
    out = _run(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert report["fail_ratio"] == 0
    assert set(report["environment"]) == {"python", "numpy", "platform", "nproc", "seed",
                                          "git_commit", "trace"}
    assert report["environment"]["trace"] is bool(trace)

    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert self_total <= metrics["trace.wall_s"]
    else:
        assert metrics["pass_ratio"] == 1.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
