"""Figure 8: accuracy over window size, program P.

Series: PR_Dep and PR_Ran_k2..k5, scored with the paper's non-monotonic
accuracy metric against the unpartitioned reasoner R.  The paper's
qualitative result: PR_Dep stays at accuracy 1.0 while random partitioning
drops sharply and degrades further as k grows.

The full series table is written to ``benchmarks/results/figure08.txt``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import RANDOM_KS, bench_window_sizes, write_result_table
from repro.core.accuracy import mean_accuracy
from repro.experiments.figures import SweepRecord
from repro.experiments.reporting import render_accuracy_table

WINDOW_SIZES = bench_window_sizes()
PARTITIONED = ["PR_Dep"] + [f"PR_Ran_k{k}" for k in RANDOM_KS]


def _session_for(suite, label):
    if label == "PR_Dep":
        return suite.dependency
    return suite.random[int(label.rsplit("k", 1)[1])]


@pytest.fixture(scope="module")
def reference_answers(suite_p, windows):
    """Answers of the unpartitioned reasoner R, per window size."""
    return {size: suite_p.baseline.reason(window).answers for size, window in windows.items()}


@pytest.mark.parametrize("window_size", WINDOW_SIZES)
@pytest.mark.parametrize("label", PARTITIONED)
def test_fig08_accuracy_program_p(benchmark, suite_p, windows, reference_answers, label, window_size):
    """Measure the partitioned reasoner and score its answers against R."""
    window = windows[window_size]
    session = _session_for(suite_p, label)

    result = benchmark.pedantic(session.evaluate_window, args=(window,), rounds=1, iterations=1, warmup_rounds=0)
    accuracy = mean_accuracy(result.answers, reference_answers[window_size])

    benchmark.group = f"fig08 accuracy P (window={window_size})"
    benchmark.extra_info["figure"] = 8
    benchmark.extra_info["program"] = "P"
    benchmark.extra_info["configuration"] = label
    benchmark.extra_info["window_size"] = window_size
    benchmark.extra_info["accuracy"] = round(accuracy, 4)

    assert 0.0 <= accuracy <= 1.0
    if label == "PR_Dep":
        assert accuracy == 1.0


def test_fig08_write_series_table(suite_p, windows, reference_answers):
    """Render the full Figure 8 series (and Figure 7 latencies) to results/."""
    records = []
    for window_size, window in sorted(windows.items()):
        latency = {"R": suite_p.baseline.reason(window).metrics.latency_milliseconds}
        accuracy = {"R": 1.0}
        for label in PARTITIONED:
            result = _session_for(suite_p, label).evaluate_window(window)
            latency[label] = result.metrics.latency_milliseconds
            accuracy[label] = mean_accuracy(result.answers, reference_answers[window_size])
        records.append(
            SweepRecord(
                program="P",
                window_size=window_size,
                latency_ms=latency,
                accuracy=accuracy,
                duplication_ratio=0.0,
            )
        )
    table = render_accuracy_table(records, title="Figure 8: accuracy (program P)")
    path = write_result_table("figure08.txt", table)
    assert path.exists()
    for record in records:
        assert record.accuracy["PR_Dep"] == 1.0
