"""Smoke test of the benchmark itself; run it explicitly with
``python -m pytest bench_e2e -q`` (``pytest.ini`` keeps tier-1 on ``tests/``)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_exactly_the_declared_metrics(trace, kind):
    completed = subprocess.run(
        [sys.executable, str(ROOT / "bench_e2e" / "run.py"), "--smoke", "--trace", trace],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {
        f"{workload['name']}/{metric['name']}": metric["unit"] for workload in SPEC["workloads"] for metric in SPEC[kind]
    }
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == declared
