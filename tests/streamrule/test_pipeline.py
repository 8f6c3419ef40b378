"""Unit tests for the end-to-end StreamRule pipeline: triples in, solution triples out."""

import pytest

from repro.core.partitioner import DependencyPartitioner
from repro.programs.traffic import INPUT_PREDICATES
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow
from repro.streamrule.session import StreamSession


@pytest.fixture
def motivating_triples():
    return [
        Triple("newcastle", "average_speed", 10, timestamp=0.0),
        Triple("newcastle", "car_number", 55, timestamp=1.0),
        Triple("newcastle", "traffic_light", "true", timestamp=2.0),
        Triple("car1", "car_in_smoke", "high", timestamp=3.0),
        Triple("car1", "car_speed", 0, timestamp=4.0),
        Triple("car1", "car_location", "dangan", timestamp=5.0),
    ]


class TestPipeline:
    def test_single_window_produces_solution_triples(self, event_reasoner_p, motivating_triples):
        session = StreamSession(
            event_reasoner_p,
            query_processor=StreamQueryProcessor(set(INPUT_PREDICATES)),
            window=CountWindow(size=6),
        )
        solutions = session.process_all(motivating_triples)
        assert len(solutions) == 1
        rendered = {triple.as_tuple() for triple in solutions[0].solution_triples}
        assert ("dangan", "car_fire", "true") in rendered
        assert ("dangan", "give_notification", "true") in rendered

    def test_noise_is_filtered_by_query_processor(self, event_reasoner_p, motivating_triples):
        noisy = motivating_triples + [Triple("x", "humidity", 10, timestamp=6.0)]
        session = StreamSession(
            event_reasoner_p,
            query_processor=StreamQueryProcessor(set(INPUT_PREDICATES)),
            window=CountWindow(size=7),
        )
        [solution] = session.process_all(noisy)
        assert solution.window_size == 6  # the humidity triple was dropped

    def test_multiple_windows(self, event_reasoner_p, motivating_triples):
        session = StreamSession(
            event_reasoner_p,
            query_processor=StreamQueryProcessor(set(INPUT_PREDICATES)),
            window=CountWindow(size=3),
        )
        solutions = session.process_all(motivating_triples)
        assert len(solutions) == 2
        assert [solution.window_index for solution in solutions] == [0, 1]

    def test_parallel_reasoner_in_pipeline(self, event_reasoner_p, plan_p, motivating_triples):
        session = StreamSession(event_reasoner_p, window=CountWindow(size=6), partitioner=DependencyPartitioner(plan_p))
        [solution] = session.process_all(motivating_triples)
        rendered = {triple.as_tuple() for triple in solution.solution_triples}
        assert ("dangan", "car_fire", "true") in rendered

    def test_without_query_processor(self, event_reasoner_p, motivating_triples):
        [solution] = StreamSession(event_reasoner_p, window=CountWindow(size=6)).process_all(motivating_triples)
        assert solution.window_size == 6

    def test_metrics_are_propagated(self, event_reasoner_p, motivating_triples):
        [solution] = StreamSession(event_reasoner_p, window=CountWindow(size=6)).process_all(motivating_triples)
        assert solution.metrics.latency_seconds > 0
