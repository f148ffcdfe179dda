"""Smoke test of the benchmark at a one-second run length: every metric in
BENCHMARK.json is printed with its unit, and the output checks run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(info_line)["info"], result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_and_output_checks(workload):
    info, result = _result(workload, 0)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    reference = info["reference"]
    assert len(reference["posterior_sha256"]) == 64
    checks = info["checks"]
    if workload == "e1-prior":
        assert reference["oracle_trees"] > 0 and checks["oracle_trees_checked"] > 0
    else:
        assert set(reference["rmse"]) == set(checks["rmse_bounds"]) != set()
        assert all(reference["rmse"][k] <= bound for k, bound in checks["rmse_bounds"].items())


def test_traced_run_prints_every_layer_metric():
    info, result = _result("ogden", 1)
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result["metrics"]["inference.local.proposed"]["value"] > 0
    assert (ROOT / info["spans"]).is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "ogden", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
