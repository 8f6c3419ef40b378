"""Figure 10: accuracy over window size, program P'.

Despite the duplicated predicate, dependency-based partitioning keeps the
accuracy at 1.0 ("the accuracy of the answers remains the same as that for
P"), while random partitioning degrades exactly as in Figure 8.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import RANDOM_KS, bench_window_sizes
from repro.core.accuracy import mean_accuracy

WINDOW_SIZES = bench_window_sizes()
PARTITIONED = ["PR_Dep"] + [f"PR_Ran_k{k}" for k in RANDOM_KS]


def _session_for(suite, label):
    if label == "PR_Dep":
        return suite.dependency
    return suite.random[int(label.rsplit("k", 1)[1])]


@pytest.fixture(scope="module")
def reference_answers(suite_p_prime, windows):
    """Answers of the unpartitioned reasoner R over P', per window size."""
    return {size: suite_p_prime.baseline.reason(window).answers for size, window in windows.items()}


@pytest.mark.parametrize("window_size", WINDOW_SIZES)
@pytest.mark.parametrize("label", PARTITIONED)
def test_fig10_accuracy_program_p_prime(
    benchmark, suite_p_prime, windows, reference_answers, label, window_size
):
    """Measure the partitioned reasoner over P' and score against R."""
    window = windows[window_size]
    session = _session_for(suite_p_prime, label)

    result = benchmark.pedantic(session.evaluate_window, args=(window,), rounds=1, iterations=1, warmup_rounds=0)
    accuracy = mean_accuracy(result.answers, reference_answers[window_size])

    benchmark.group = f"fig10 accuracy P' (window={window_size})"
    benchmark.extra_info["figure"] = 10
    benchmark.extra_info["program"] = "P_prime"
    benchmark.extra_info["configuration"] = label
    benchmark.extra_info["window_size"] = window_size
    benchmark.extra_info["accuracy"] = round(accuracy, 4)

    assert 0.0 <= accuracy <= 1.0
    if label == "PR_Dep":
        assert accuracy == 1.0
