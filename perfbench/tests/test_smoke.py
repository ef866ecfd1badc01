"""Self-test of the benchmark: every workload at tiny size.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ("kernels.terms", "rachsim.correlations", "seqforge.members",
                "factorlab.lengths")
# exact counts each workload must drive above zero
EXERCISED = {
    "family_tables": ("factorlab.lengths", "seqforge.members"),
    "spectral": ("kernels.terms",),
    "rach_id": ("rachsim.correlations",),
    "rach_wide": ("rachsim.correlations",),
}


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    assert result["correct"] is (result["failed"] == 0)
    assert result["correct"], result
    return result


def _assert_metrics(result: dict, spec: list[dict]):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    for result in (first, second):
        _assert_metrics(result, SPEC["per_layer"])
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for name in EXERCISED[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
