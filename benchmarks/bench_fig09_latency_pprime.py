"""Figure 9: reasoning latency over window size, program P'.

P' has a *connected* input dependency graph, so the dependency-based
partitioning plan duplicates ``car_number`` into both partitions.  The
paper's qualitative results: PR_Dep still clearly beats R, but processing
the duplicated predicate adds up to ~30% latency compared to the
duplication-free plan of P.
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
def test_fig09_latency_program_p_prime(benchmark, suite_p_prime, windows, label, window_size):
    """Time one window evaluation for every configuration and window size."""
    window = windows[window_size]
    evaluate = _evaluator_for(suite_p_prime, label)

    result = benchmark.pedantic(evaluate, args=(window,), rounds=1, iterations=1, warmup_rounds=0)

    benchmark.group = f"fig09 latency P' (window={window_size})"
    benchmark.extra_info["figure"] = 9
    benchmark.extra_info["program"] = "P_prime"
    benchmark.extra_info["configuration"] = label
    benchmark.extra_info["window_size"] = window_size
    benchmark.extra_info["reported_latency_ms"] = result.metrics.latency_milliseconds
    if label == "PR_Dep":
        benchmark.extra_info["duplication_ratio"] = round(result.metrics.duplication_ratio, 4)

    assert result.metrics.latency_seconds > 0


def test_fig09_duplication_plan_is_used(suite_p_prime):
    """The partitioning plan for P' duplicates exactly car_number (Figure 5)."""
    assert suite_p_prime.decomposition.duplicated_predicates == frozenset({"car_number"})


def test_fig09_dependency_partitioning_still_beats_whole_window(suite_p_prime, windows):
    largest = max(windows)
    window = windows[largest]
    latency_r = suite_p_prime.baseline.reason(window).metrics.latency_milliseconds
    latency_dep = suite_p_prime.dependency.evaluate_window(window).metrics.latency_milliseconds
    assert latency_dep < latency_r
