"""Figure 7: reasoning latency over window size, program P.

Series: R (whole window), PR_Dep (dependency partitioning), PR_Ran_k2..k5
(random partitioning).  The paper's qualitative result: PR_Dep cuts roughly
half of R's latency while random partitioning gets faster as k grows.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import RANDOM_KS, bench_window_sizes

WINDOW_SIZES = bench_window_sizes()
CONFIGURATIONS = ["R", "PR_Dep"] + [f"PR_Ran_k{k}" for k in RANDOM_KS]


def _evaluator_for(suite, label):
    """``R.reason`` for the baseline, ``evaluate_window`` of the label's session otherwise."""
    if label == "R":
        return suite.baseline.reason
    if label == "PR_Dep":
        return suite.dependency.evaluate_window
    return suite.random[int(label.rsplit("k", 1)[1])].evaluate_window


@pytest.mark.parametrize("window_size", WINDOW_SIZES)
@pytest.mark.parametrize("label", CONFIGURATIONS)
def test_fig07_latency_program_p(benchmark, suite_p, windows, label, window_size):
    """Time one window evaluation for every configuration and window size."""
    window = windows[window_size]
    evaluate = _evaluator_for(suite_p, label)

    result = benchmark.pedantic(evaluate, args=(window,), rounds=1, iterations=1, warmup_rounds=0)

    benchmark.group = f"fig07 latency P (window={window_size})"
    benchmark.extra_info["figure"] = 7
    benchmark.extra_info["program"] = "P"
    benchmark.extra_info["configuration"] = label
    benchmark.extra_info["window_size"] = window_size
    benchmark.extra_info["reported_latency_ms"] = result.metrics.latency_milliseconds
    benchmark.extra_info["answer_count"] = result.metrics.answer_count

    assert result.metrics.latency_seconds > 0


def test_fig07_dependency_partitioning_beats_whole_window(suite_p, windows):
    """The headline claim of Figure 7: PR_Dep latency is well below R's."""
    largest = max(windows)
    window = windows[largest]
    latency_r = suite_p.baseline.reason(window).metrics.latency_milliseconds
    latency_dep = suite_p.dependency.evaluate_window(window).metrics.latency_milliseconds
    assert latency_dep < latency_r
