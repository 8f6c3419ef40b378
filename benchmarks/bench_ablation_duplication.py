"""Ablation A1: latency overhead of duplicated predicates.

The paper reports (Section IV, experiment with P') that "time required for
processing the duplicated predicate increases latency up to 30%" with ~25%
of window instances belonging to the duplicated predicate.  This ablation
compares PR_Dep on P' (duplication) against PR_Dep on P (no duplication) on
identical windows and records the measured overhead.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_window_sizes, make_window, write_result_table
from repro.experiments.ablations import duplication_overhead

WINDOW_SIZES = bench_window_sizes()[:4]


@pytest.mark.parametrize("window_size", WINDOW_SIZES)
def test_ablation_duplication_overhead(benchmark, suite_p, suite_p_prime, window_size):
    """Time PR_Dep on P' and compare with PR_Dep on P for the same window."""
    window = make_window(window_size)

    with_duplication = benchmark.pedantic(
        suite_p_prime.dependency.evaluate_window, args=(window,), rounds=1, iterations=1, warmup_rounds=0
    )
    without_duplication = suite_p.dependency.evaluate_window(window)

    overhead = (
        with_duplication.metrics.latency_seconds / without_duplication.metrics.latency_seconds - 1.0
        if without_duplication.metrics.latency_seconds > 0
        else 0.0
    )

    benchmark.group = "ablation: duplication overhead"
    benchmark.extra_info["window_size"] = window_size
    benchmark.extra_info["duplication_ratio"] = round(with_duplication.metrics.duplication_ratio, 4)
    benchmark.extra_info["overhead"] = round(overhead, 4)

    assert with_duplication.metrics.duplication_ratio > 0
    assert without_duplication.metrics.duplication_ratio == 0


def test_ablation_duplication_report(benchmark):
    """Write the duplication-overhead table (paper reference: up to ~30%)."""
    records = benchmark.pedantic(
        duplication_overhead, kwargs={"window_sizes": WINDOW_SIZES, "seed": 2017}, rounds=1, iterations=1
    )
    lines = ["window  dup_ratio  latency_P'(ms)  latency_P(ms)  overhead"]
    for record in records:
        lines.append(
            f"{record.window_size:6d}  {record.duplication_ratio:9.3f}  "
            f"{record.latency_with_duplication_ms:14.1f}  {record.latency_without_duplication_ms:13.1f}  "
            f"{record.overhead:+8.1%}"
        )
    write_result_table("ablation_duplication.txt", "\n".join(lines))
    benchmark.group = "ablation: duplication overhead"
    assert all(record.duplication_ratio > 0 for record in records)
