"""Unit tests for the parallel reasoner PR: a partitioned StreamSession."""

import pytest

from repro.core.partitioner import DependencyPartitioner, RandomPartitioner
from repro.core.accuracy import mean_accuracy
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES
from repro.streamrule.backends import InlineBackend, ThreadPoolBackend
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession


@pytest.fixture
def pr_dep(event_reasoner_p, plan_p):
    return StreamSession(event_reasoner_p, partitioner=DependencyPartitioner(plan_p))


class TestDependencyPartitionedReasoning:
    def test_motivating_example_is_answered_correctly(self, pr_dep, motivating_window):
        result = pr_dep.evaluate_window(motivating_window)
        assert len(result.answers) == 1
        assert {str(atom) for atom in result.answers[0]} == {"car_fire(dangan)", "give_notification(dangan)"}

    def test_answers_match_unpartitioned_reasoner(self, pr_dep, event_reasoner_p, small_traffic_window):
        reference = event_reasoner_p.reason(small_traffic_window)
        partitioned = pr_dep.evaluate_window(small_traffic_window)
        assert mean_accuracy(partitioned.answers, reference.answers) == 1.0

    def test_partition_results_are_exposed(self, pr_dep, motivating_window):
        result = pr_dep.evaluate_window(motivating_window)
        assert len(result.partition_results) == 2
        assert sum(r.metrics.window_size for r in result.partition_results) == len(motivating_window)

    def test_metrics_partition_sizes(self, pr_dep, motivating_window):
        result = pr_dep.evaluate_window(motivating_window)
        assert sorted(result.metrics.partition_sizes) == [3, 3]
        assert result.metrics.duplication_ratio == 0.0

    def test_duplication_ratio_with_p_prime_plan(self, program_p_prime, plan_p_prime, motivating_window):
        reasoner = Reasoner(program_p_prime, INPUT_PREDICATES, EVENT_PREDICATES)
        session = StreamSession(reasoner, partitioner=DependencyPartitioner(plan_p_prime))
        result = session.evaluate_window(motivating_window)
        # car_number(newcastle, 55) is copied into both partitions.
        assert result.metrics.duplication_ratio == pytest.approx(1 / 6)


class TestRandomPartitionedReasoning:
    def test_random_partitioning_can_produce_wrong_events(self, event_reasoner_p, motivating_window):
        # With the seed fixed so the window of Section II-A is split badly,
        # the traffic light is separated from the speed/count readings and a
        # spurious traffic jam is reported -- the paper's motivating anomaly.
        spurious_found = False
        for seed in range(30):
            session = StreamSession(event_reasoner_p, partitioner=RandomPartitioner(2, seed=seed))
            result = session.evaluate_window(motivating_window)
            atoms = {str(atom) for answer in result.answers for atom in answer}
            if "traffic_jam(newcastle)" in atoms:
                spurious_found = True
                break
        assert spurious_found

    def test_random_partitioning_accuracy_not_above_dependency(
        self, event_reasoner_p, plan_p, small_traffic_window
    ):
        reference = event_reasoner_p.reason(small_traffic_window)
        dep = StreamSession(event_reasoner_p, partitioner=DependencyPartitioner(plan_p))
        ran = StreamSession(event_reasoner_p, partitioner=RandomPartitioner(3, seed=5))
        dep_accuracy = mean_accuracy(dep.evaluate_window(small_traffic_window).answers, reference.answers)
        ran_accuracy = mean_accuracy(ran.evaluate_window(small_traffic_window).answers, reference.answers)
        assert dep_accuracy == 1.0
        assert ran_accuracy <= dep_accuracy


class TestBackends:
    def test_serial_backend_sums_latencies(self, event_reasoner_p, plan_p, motivating_window):
        partitioner = DependencyPartitioner(plan_p)
        simulated = StreamSession(event_reasoner_p, partitioner=partitioner).evaluate_window(motivating_window)
        serial = StreamSession(
            event_reasoner_p, partitioner=partitioner, backend=InlineBackend(simulated=False)
        ).evaluate_window(motivating_window)
        # Serial latency cannot be smaller than the simulated-parallel latency
        # of the same window (it is the sum rather than the max).
        assert serial.metrics.breakdown.reasoning_seconds >= 0
        assert simulated.answers == serial.answers

    def test_thread_backend_produces_same_answers(self, event_reasoner_p, plan_p, motivating_window):
        with StreamSession(
            event_reasoner_p, partitioner=DependencyPartitioner(plan_p), backend=ThreadPoolBackend(max_workers=2)
        ) as session:
            threaded = session.evaluate_window(motivating_window)
        assert {str(a) for ans in threaded.answers for a in ans} == {
            "car_fire(dangan)",
            "give_notification(dangan)",
        }

    def test_empty_window(self, pr_dep):
        result = pr_dep.evaluate_window([])
        assert result.metrics.window_size == 0
        assert result.metrics.duplication_ratio == 0.0
