"""Tests for the StreamSession facade: push/results, windowing, fallback."""

from __future__ import annotations

import pytest

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import DependencyPartitioner, HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, TimeWindow
from repro.streamrule.backends import (
    BackendConnectionError,
    InlineBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
)
from repro.streamrule.placement import ConsistentHashPlacement
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom
from tests.streamrule.conftest import InThreadTcpBackend


def traffic_stream(length, seed=31):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


def traffic_reasoner(cache=False):
    return Reasoner(
        traffic_program(),
        INPUT_PREDICATES,
        EVENT_PREDICATES,
        grounding_cache=GroundingCache() if cache else None,
    )


def answer_sets(solution):
    return {frozenset(answer) for answer in solution.answers}


class TestPushResults:
    def test_push_evaluates_completed_count_windows(self):
        stream = traffic_stream(100)
        with StreamSession(traffic_reasoner(), window=CountWindow(size=40, emit_partial=False)) as session:
            assert session.push(stream[:30]) == 0  # window not yet full
            assert session.push(stream[30:85]) == 2  # windows 0 and 1 complete
            solutions = list(session.results())
        assert [solution.window_index for solution in solutions] == [0, 1]
        assert list(session.results()) == []  # results() drains

    def test_push_matches_bulk_process(self):
        stream = traffic_stream(120)
        window = CountWindow(size=40)
        with StreamSession(traffic_reasoner(), window=window) as pushed_session:
            for triple in stream:
                pushed_session.push([triple])
            pushed_session.finish()
            pushed = list(pushed_session.results())
        with StreamSession(traffic_reasoner(), window=window) as bulk_session:
            bulk = list(bulk_session.process(stream))
        assert [answer_sets(solution) for solution in pushed] == [answer_sets(solution) for solution in bulk]

    def test_finish_emits_partial_tail(self):
        stream = traffic_stream(50)
        with StreamSession(traffic_reasoner(), window=CountWindow(size=40)) as session:
            session.push(stream)
            assert len(list(session.results())) == 1  # only the full window
            assert session.finish() == 1  # the 10-item tail
            [tail] = list(session.results())
        assert tail.window_size == 10

    def test_pipelined_process_matches_synchronous_reference(self):
        stream = traffic_stream(120)
        window = CountWindow(size=40)
        with StreamSession(
            traffic_reasoner(),
            window=window,
            partitioner=HashPartitioner(2),
            backend=ThreadPoolBackend(max_workers=2),
            max_inflight=4,
        ) as pipelined:
            collected = list(pipelined.process(stream))
        with StreamSession(traffic_reasoner(), window=window, partitioner=HashPartitioner(2)) as reference:
            expected = list(reference.process(stream))
        assert [solution.window_index for solution in collected] == [0, 1, 2]
        assert [answer_sets(solution) for solution in collected] == [answer_sets(solution) for solution in expected]

    def test_windowless_process_is_one_window(self):
        stream = traffic_stream(50)
        with StreamSession(traffic_reasoner(), window=None) as session:
            [solution] = list(session.process(stream))
            expected = session.evaluate_window(stream)
        assert (solution.window_index, solution.window_size) == (0, 50)
        assert answer_sets(solution) == {frozenset(answer) for answer in expected.answers}

    def test_windowless_session_evaluates_each_push(self):
        with StreamSession(traffic_reasoner()) as session:
            session.push(traffic_stream(30))
            session.push(traffic_stream(20, seed=77))
            solutions = list(session.results())
        assert [solution.window_size for solution in solutions] == [30, 20]
        assert [solution.window_index for solution in solutions] == [0, 1]

    def test_time_windows_are_deferred_to_finish(self):
        triples = [Triple("s", "average_speed", index, timestamp=float(index)) for index in range(10)]
        with StreamSession(traffic_reasoner(), window=TimeWindow(duration=4.0)) as session:
            assert session.push(triples) == 0  # time layout needs the whole stream
            assert list(session.results()) == []
            assert session.finish() == 3
            assert len(list(session.results())) == 3

    def test_sliding_push_grounds_on_a_track(self):
        stream = traffic_stream(160)
        cache = GroundingCache()
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=cache)
        with StreamSession(reasoner, window=CountWindow(size=80, slide=20, emit_partial=False)) as session:
            session.push(stream)
            solutions = list(session.results())
        assert len(solutions) >= 4
        rebuilds = sum(solution.metrics.cache_misses for solution in solutions)
        hits = sum(solution.metrics.cache_hits for solution in solutions)
        assert rebuilds + hits == len(solutions) and rebuilds > 0
        statistics = cache.statistics()
        assert statistics["delta_states"] == 1.0  # one pair, on the session's track
        assert (statistics["misses"], statistics["hits"]) == (rebuilds, hits)
        # The first window has no predecessor and goes through the LRU memo.
        assert statistics["delta_rebuilds"] == rebuilds - 1

    def test_solutions_match_unwindowed_reference(self):
        stream = traffic_stream(80)
        window = CountWindow(size=40)
        reference = traffic_reasoner()
        expected = [
            {frozenset(answer) for answer in reference.reason(list(chunk)).answers}
            for chunk in window.windows(stream)
        ]
        with StreamSession(traffic_reasoner(), window=window) as session:
            session.push(stream)
            session.finish()
            actual = [answer_sets(solution) for solution in session.results()]
        assert actual == expected


class TestSessionConfiguration:
    def test_program_or_reasoner_constructor(self):
        window = traffic_stream(40)
        by_program = StreamSession(
            traffic_program(), input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES
        )
        by_reasoner = StreamSession(traffic_reasoner())
        first = by_program.evaluate_window(window)
        second = by_reasoner.evaluate_window(window)
        assert {frozenset(a) for a in first.answers} == {frozenset(a) for a in second.answers}

    def test_reasoner_with_predicate_arguments_rejected(self):
        with pytest.raises(ValueError):
            StreamSession(traffic_reasoner(), input_predicates=INPUT_PREDICATES)

    def test_placement_overrides_slot_owning_backend(self):
        placement = ConsistentHashPlacement()
        backend = SharedMemoryBackend(max_workers=1)
        session = StreamSession(traffic_reasoner(), backend=backend, placement=placement)
        assert backend.placement is placement
        session.close()

    def test_placement_on_slotless_backend_rejected(self):
        # InlineBackend/ThreadPoolBackend never consult a placement; a
        # silently ignored strategy would fake content-based routing.
        with pytest.raises(ValueError, match=r"\(SharedMemoryBackend, TcpBackend\)"):
            StreamSession(traffic_reasoner(), placement=ConsistentHashPlacement())
        with pytest.raises(ValueError):
            StreamSession(
                traffic_reasoner(), backend=ThreadPoolBackend(max_workers=1), placement=ConsistentHashPlacement()
            )

    def test_context_manager_closes_backend(self):
        backend = ThreadPoolBackend(max_workers=1)
        with StreamSession(traffic_reasoner(), backend=backend) as session:
            session.evaluate_window(traffic_stream(20))
            assert backend.started
        assert not backend.started

    def test_sliding_windows_dispatch_incremental_items(self, plan_p):
        # Only the window and the partitioner decide the incremental intent;
        # every backend keeps per-track order, so none can veto it.
        submitted = []

        class RecordingBackend(InlineBackend):
            def _submit(self, item):
                submitted.append(item)
                return super()._submit(item)

        window = CountWindow(size=40, slide=10, emit_partial=False)
        with StreamSession(
            traffic_reasoner(cache=True), window=window, partitioner=DependencyPartitioner(plan_p),
            backend=RecordingBackend(),
        ) as session:
            list(session.process(traffic_stream(80)))
        by_epoch = {}
        for item in submitted:
            by_epoch.setdefault(item.epoch, set()).add(item.incremental)
        assert by_epoch[min(by_epoch)] == {False}  # the first window carries nothing over
        assert all(intents == {True} for epoch, intents in by_epoch.items() if epoch != min(by_epoch))

    def test_epochs_are_monotonic(self):
        session = StreamSession(traffic_reasoner())
        session.evaluate_window(traffic_stream(10))
        session.evaluate_window(traffic_stream(10))
        assert session._epoch == 2


class _ProbeCountingBackend(ThreadPoolBackend):
    """A pipelined backend that counts ``queue_depth`` probes."""

    name = "probe-counting"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.depth_probes = 0

    def queue_depth(self) -> int:
        self.depth_probes += 1
        return super().queue_depth()


class TestIdleDrainFastPath:
    """``results(wait=False)`` with nothing to gather is free of side effects."""

    def test_idle_drain_touches_no_gather_machinery(self):
        backend = _ProbeCountingBackend(max_workers=2)
        with StreamSession(
            traffic_reasoner(),
            window=CountWindow(size=10, slide=10),
            backend=backend,
        ) as session:
            session.push(traffic_stream(40))
            session.finish()
            emitted = list(session.results())
            assert emitted
            stalls_before = session.ingestion.backpressure_stalls
            probes_before = backend.depth_probes
            # An idle poll loop -- the serving shape between bursts -- must
            # not enter the gather path: no stall accounting, no backend
            # probes.
            for _ in range(50):
                assert list(session.results(wait=False)) == []
            assert session.ingestion.backpressure_stalls == stalls_before
            assert backend.depth_probes == probes_before

    def test_nonblocking_drain_stops_at_the_first_unfinished_window(self):
        backend = _ProbeCountingBackend(max_workers=1)
        reasoner = traffic_reasoner()
        with StreamSession(
            reasoner, window=CountWindow(size=10, slide=10), backend=backend, max_inflight=8
        ) as session:
            session.push(traffic_stream(40))
            drained = list(session.results(wait=False))
            finished = len(drained)
            session.finish()
            rest = list(session.results())
            indexes = [s.window_index for s in drained + rest]
            assert indexes == sorted(indexes)
            assert finished + len(rest) == len(indexes)


class TestInlineFallback:
    CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

    def choice_session(self, **kwargs):
        reasoner = Reasoner(parse_program(self.CHOICE_PROGRAM), input_predicates=["item"])
        return StreamSession(
            reasoner,
            partitioner=HashPartitioner(2),
            backend=InThreadTcpBackend(1),
            **kwargs,
        )

    def window(self):
        return [make_atom("item", index) for index in range(4)]

    def test_dropped_connection_falls_back_inline(self):
        with self.choice_session() as session:
            healthy = session.evaluate_window(self.window())
            assert session.fallbacks == 0
            session.backend.drop_connection(0)
            degraded = session.evaluate_window(self.window())
            assert session.fallbacks > 0
        assert {frozenset(a) for a in healthy.answers} == {frozenset(a) for a in degraded.answers}

    def test_fallback_disabled_raises(self):
        with self.choice_session(inline_fallback=False) as session:
            session.evaluate_window(self.window())
            session.backend.drop_connection(0)
            with pytest.raises(BackendConnectionError):
                session.evaluate_window(self.window())


class TestParallelEquivalence:
    def test_dependency_partitioned_session_matches_reasoner(self, plan_p, motivating_window):
        reasoner = traffic_reasoner()
        reference = {frozenset(a) for a in reasoner.reason(motivating_window).answers}
        with StreamSession(
            reasoner, partitioner=DependencyPartitioner(plan_p), backend=InlineBackend()
        ) as session:
            result = session.evaluate_window(motivating_window)
        assert {frozenset(a) for a in result.answers} == reference
