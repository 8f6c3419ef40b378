"""Pipelined ingestion: backpressure, ordering, parity with the sync path.

The contract under test (see ``docs/async-ingestion.md``): whatever
``max_inflight`` is and however pushes and result drains interleave, the
facade emits exactly the solutions of the synchronous path, in window
order -- pipelining may only change *when* work happens, never *what* comes
out.  ``max_inflight=1`` must reproduce the pre-pipelining behaviour
exactly (every window gathered before ``push`` returns).
"""

from __future__ import annotations

import time
from concurrent.futures import Future

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import (
    InlineBackend,
    ThreadPoolBackend,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import DEFAULT_MAX_INFLIGHT, StreamSession
from tests.streamrule.conftest import InThreadTcpBackend


def traffic_stream(length, seed=23):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


def traffic_reasoner():
    return Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)


def fingerprint(solution):
    """Everything observable about one solution (order-sensitive answers set)."""
    return (
        solution.window_index,
        solution.window_size,
        {frozenset(answer) for answer in solution.answers},
        solution.solution_triples,
    )


#: Shared stream + window for the interleaving tests.
STREAM_LENGTH = 60
WINDOW = CountWindow(size=20, slide=10, emit_partial=False)

_REFERENCE = None


def reference_solutions():
    """The synchronous answer trajectory (computed once per test run)."""
    global _REFERENCE
    if _REFERENCE is None:
        with StreamSession(
            traffic_reasoner(), window=WINDOW, backend=InlineBackend(simulated=False)
        ) as session:
            session.push(traffic_stream(STREAM_LENGTH))
            session.finish()
            _REFERENCE = [fingerprint(solution) for solution in session.results()]
        assert _REFERENCE  # the scenario must produce windows
    return _REFERENCE


class TestSynchronousParity:
    """``max_inflight=1`` is exactly the pre-pipelining session."""

    def test_push_gathers_before_returning(self):
        stream = traffic_stream(STREAM_LENGTH)
        with StreamSession(
            traffic_reasoner(), window=WINDOW, backend=ThreadPoolBackend(max_workers=2), max_inflight=1
        ) as session:
            collected = []
            for triple in stream:
                count = session.push([triple])
                # Synchronous contract: every dispatched window is already
                # gathered, so results() drains without blocking and nothing
                # stays in flight between pushes.
                assert not session._inflight
                drained = list(session.results())
                assert len(drained) == count
                collected.extend(drained)
            session.finish()
            collected.extend(session.results())
        assert [fingerprint(solution) for solution in collected] == reference_solutions()
        assert session.ingestion.inflight_high_water == 1
        assert session.ingestion.dispatched_ahead == 0

    def test_inline_backend_defaults_to_synchronous(self):
        session = StreamSession(traffic_reasoner(), window=WINDOW)
        assert session.effective_max_inflight() == 1

    def test_pipelined_backend_defaults_to_dispatch_ahead(self):
        session = StreamSession(
            traffic_reasoner(), window=WINDOW, backend=ThreadPoolBackend(max_workers=2)
        )
        assert session.effective_max_inflight() == DEFAULT_MAX_INFLIGHT
        session.close()

    @pytest.mark.parametrize("bound", [0, -1, 2.5, True, "adaptive"], ids=repr)
    def test_max_inflight_is_an_int_or_none(self, bound):
        with pytest.raises(ValueError, match=r"max_inflight must be an int of at least 1 or None"):
            StreamSession(traffic_reasoner(), max_inflight=bound)


class TestInterleavings:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_interleaving_matches_the_synchronous_path(self, data):
        """Chunked pushes, partial drains, any bound: identical solutions."""
        max_inflight = data.draw(st.sampled_from([1, 2, 4, 8]), label="max_inflight")
        stream = traffic_stream(STREAM_LENGTH)
        chunk_sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=8),
            label="chunk_sizes",
        )
        drain_after = data.draw(
            st.lists(st.booleans(), min_size=len(chunk_sizes), max_size=len(chunk_sizes)),
            label="drain_after",
        )
        collected = []
        with StreamSession(
            traffic_reasoner(),
            window=WINDOW,
            backend=ThreadPoolBackend(max_workers=2),
            max_inflight=max_inflight,
        ) as session:
            cursor = 0
            for size, drain in zip(chunk_sizes, drain_after):
                chunk = stream[cursor : cursor + size]
                cursor += size
                session.push(chunk)
                if drain:
                    collected.extend(session.results())
            session.push(stream[cursor:])
            session.finish()
            collected.extend(session.results())
            assert session.ingestion.inflight_high_water <= max_inflight
        assert [fingerprint(solution) for solution in collected] == reference_solutions()

    def test_nonblocking_drain_keeps_the_pipeline_full(self):
        """results(wait=False) never waits, so push/drain loops stay pipelined."""
        stream = traffic_stream(80)
        backend = _SlowBackend(0.05, max_workers=1)
        with StreamSession(
            traffic_reasoner(), window=CountWindow(size=20), backend=backend, max_inflight=8
        ) as session:
            collected = []
            for index in range(0, len(stream), 20):
                session.push(stream[index : index + 20])
                collected.extend(session.results(wait=False))
            # All four windows dispatched; the slow backend cannot have
            # finished them all, so the non-blocking drain left some in
            # flight instead of stalling the producer on them.
            assert session.ingestion.inflight_high_water > 1
            assert len(collected) < 4
            session.finish()  # the barrier gathers the rest
            collected.extend(session.results(wait=False))
            assert [solution.window_index for solution in collected] == [0, 1, 2, 3]

    def test_pipelined_push_dispatches_ahead(self):
        stream = traffic_stream(STREAM_LENGTH)
        with StreamSession(
            traffic_reasoner(), window=WINDOW, backend=ThreadPoolBackend(max_workers=2), max_inflight=3
        ) as session:
            session.push(stream)
            session.finish()
            solutions = [fingerprint(solution) for solution in session.results()]
        assert solutions == reference_solutions()
        assert session.ingestion.dispatched_ahead > 0
        assert 1 < session.ingestion.inflight_high_water <= 3


class _SlowBackend(ThreadPoolBackend):
    """A pipelined backend whose every evaluation takes ``delay`` seconds."""

    name = "slow-threads"

    def __init__(self, delay: float, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def _submit(self, item):
        reasoner = self._require_started()
        assert self._pool is not None

        def _evaluate():
            time.sleep(self.delay)
            return reasoner.reason_item(item)

        return self._pool.submit(_evaluate)


class _ExplodingBackend(ThreadPoolBackend):
    """A pipelined backend whose futures always fail (deferred-error probe)."""

    name = "exploding"

    def _submit(self, item):
        self._require_started()
        future: Future = Future()
        future.set_exception(RuntimeError("deferred evaluation error"))
        return future


class TestBackpressure:
    def test_full_queue_with_slow_backend_stalls_the_producer(self):
        stream = traffic_stream(80)
        backend = _SlowBackend(0.05, max_workers=1)
        with StreamSession(
            traffic_reasoner(), window=CountWindow(size=20), backend=backend, max_inflight=2
        ) as session:
            session.push(stream)  # four windows through a 2-deep pipe
            session.finish()
            solutions = list(session.results())
        assert len(solutions) == 4
        assert session.ingestion.backpressure_stalls >= 1
        assert session.ingestion.backpressure_wait_seconds > 0.0
        assert session.ingestion.inflight_high_water == 2

    def test_queue_depth_reports_inflight_items(self):
        backend = _SlowBackend(0.2, max_workers=1)
        reasoner = traffic_reasoner()
        with StreamSession(
            reasoner, window=CountWindow(size=10), backend=backend, max_inflight=4
        ) as session:
            assert backend.queue_depth() == 0
            session.push(traffic_stream(20))  # two windows dispatched, none gathered
            assert backend.queue_depth() > 0
            session.finish()
            list(session.results())
        assert backend.queue_depth() == 0
        assert backend.queue_high_water >= 1


class TestDeferredOutcomes:
    def test_evaluation_errors_surface_at_the_gather_point(self):
        backend = _ExplodingBackend(max_workers=1)
        session = StreamSession(
            traffic_reasoner(), window=CountWindow(size=10), backend=backend, max_inflight=8
        )
        # Dispatch succeeds: the error lives in the future, not in push.
        assert session.push(traffic_stream(20)) == 2
        with pytest.raises(RuntimeError, match="deferred evaluation error"):
            session.finish()
        session.backend.close()

    def test_exception_exit_abandons_inflight_instead_of_masking(self):
        """A failing `with` body wins over deferred errors in the pipeline."""
        backend = _ExplodingBackend(max_workers=1)
        with pytest.raises(ValueError, match="the original error"):
            with StreamSession(
                traffic_reasoner(), window=CountWindow(size=10), backend=backend, max_inflight=8
            ) as session:
                session.push(traffic_stream(20))  # futures hold RuntimeErrors
                raise ValueError("the original error")
        assert not backend.started  # resources still released

    def test_close_gathers_inflight_windows_for_results(self):
        stream = traffic_stream(STREAM_LENGTH)
        session = StreamSession(
            traffic_reasoner(), window=WINDOW, backend=ThreadPoolBackend(max_workers=2), max_inflight=8
        )
        session.push(stream)
        session.finish()
        session.close()
        # Solutions dispatched before close stay drainable after it.
        assert [fingerprint(solution) for solution in session.results()] == reference_solutions()

    def test_late_connection_loss_falls_back_inline(self):
        stream = traffic_stream(STREAM_LENGTH)
        partitioner = HashPartitioner(2)
        with StreamSession(
            traffic_reasoner(),
            window=WINDOW,
            partitioner=partitioner,
            backend=InlineBackend(simulated=False),
        ) as healthy:
            healthy.push(stream)
            healthy.finish()
            expected = [fingerprint(solution) for solution in healthy.results()]
        backend = InThreadTcpBackend(1)
        with StreamSession(
            traffic_reasoner(),
            window=WINDOW,
            partitioner=partitioner,
            backend=backend,
            max_inflight=8,
        ) as session:
            # Warm the backend, then sever the only worker connection: every
            # window dispatched afterwards fails its future at gather time
            # and must be re-evaluated inline.
            session.evaluate_window(stream[:10])
            backend.drop_connection(0)
            session.push(stream)
            session.finish()
            solutions = [fingerprint(solution) for solution in session.results()]
            assert session.fallbacks > 0
        assert solutions == expected
