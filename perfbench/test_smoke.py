"""Smoke test of the benchmark at small size.

Every metric named in BENCHMARK.json is present, no operation fails, and the
exact counts repeat between two runs with the same seed.  Run from the
checkout root:

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("optimizer.evaluations", "optimizer.refine_passes", "nchv.assignments_examined",
         "nchv.witnesses_materialized")

# Closed forms for one small pass.  optimize: Hardy at grid 16 takes
# 16^2 + 28 * 81 = 2524 evaluations and the family at grid 64 takes
# 64 + 25 * 9 = 289.  enumerate-wide: 2^n assignments per case, and
# 2 * 2^(n-2) witnesses per witness-heavy case and 2^k per k-context qubit case.
KNOWN = {
    "optimize": {"optimizer.evaluations": 2524 + 289, "optimizer.refine_passes": 28 + 25},
    "enumerate-wide": {
        "nchv.assignments_examined": 2**12 + 3 * 2**10 + 2 * 2**18 + 2**10 + 2**12 + 2**10 + 2**12,
        "nchv.witnesses_materialized": 2 * 2**10 + 3 * 2 * 2**8 + 2**5 + 2**6,
    },
}


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    text, result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 11
    assert "failed_frac 0 ratio" in text
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    _, first = _run(workload, 1)
    _, second = _run(workload, 1)
    assert first["correct"] is True and second["correct"] is True
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = [name for name in first["metrics"] if name in EXACT or name.endswith(".calls")]
    assert exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    for name, value in KNOWN.get(workload, {}).items():
        assert first["metrics"][name]["value"] == value, name
