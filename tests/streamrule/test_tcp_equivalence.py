"""Cross-backend equivalence of ``TcpBackend`` over real worker daemons.

The acceptance matrix of the distributed tier: every window kind
(tumbling, sliding, hopping), with the delta path on and off, must answer
byte-for-byte like the serial inline reference -- evaluated on *real*
``python -m repro.streamrule.worker`` subprocesses over localhost TCP,
including while a worker is killed mid-stream.

The worker fleet comes from the ``STREAMRULE_WORKERS`` environment variable
(comma-separated ``host:port`` endpoints -- this is how the CI job points
the suite at daemons it launched itself) or, when unset, from daemons this
module spawns with :func:`repro.streamrule.worker.spawn_local_workers`.
"""

from __future__ import annotations

import os

import pytest

from repro.core.partitioner import DependencyPartitioner, HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.placement import ConsistentHashPlacement
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.worker import spawn_local_workers
from tests.streamrule.conftest import worker_security_kwargs

pytestmark = pytest.mark.slow  # spawns worker subprocesses

WINDOW_SCENARIOS = {
    "tumbling": CountWindow(size=60),
    "sliding": CountWindow(size=60, slide=20),
    "hopping": CountWindow(size=40, slide=60),
}


def traffic_stream(length, seed=47):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


def dense_traffic_stream(length, seed=47):
    """Three segments and three cars: windows raise events, so an exact match is not a match of empty sets.

    The events are car fires, which P's dependency plan puts on track 1
    (slot 1, the second worker): the kill tests kill that worker.
    """
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed,
        location_count=3, car_count=3,
    )
    return generate_window(config)


@pytest.fixture(scope="module")
def worker_endpoints():
    """Two live worker daemons: from ``STREAMRULE_WORKERS`` or self-spawned."""
    configured = os.environ.get("STREAMRULE_WORKERS")
    if configured:
        yield [endpoint.strip() for endpoint in configured.split(",") if endpoint.strip()]
        return
    workers = spawn_local_workers(2)
    try:
        yield [worker.endpoint for worker in workers]
    finally:
        for worker in workers:
            worker.terminate()


def scratch_answers_per_window(window_policy, stream, partitioner):
    reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
    with StreamSession(reasoner, partitioner=partitioner, backend=InlineBackend(simulated=False)) as session:
        return [
            {frozenset(answer) for answer in session.evaluate_window(list(window)).answers}
            for window in window_policy.windows(stream)
        ]


class TestTcpEquivalenceMatrix:
    @pytest.mark.parametrize("window_kind", sorted(WINDOW_SCENARIOS), ids=str)
    @pytest.mark.parametrize("use_delta", [True, False], ids=["delta", "no-delta"])
    def test_backend_equivalence(self, worker_endpoints, window_kind, use_delta):
        stream = traffic_stream(200)
        window_policy = WINDOW_SCENARIOS[window_kind]
        partitioner = HashPartitioner(3)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        backend = TcpBackend(worker_endpoints, **worker_security_kwargs())
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
            if use_delta:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(delta.window)).answers}
                    for delta in window_policy.deltas(stream)
                ]
            else:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                    for window in window_policy.windows(stream)
                ]
            assert session.fallbacks == 0  # answered over the wire, not inline
        assert actual == expected

    def test_dependency_partitioner_with_content_placement(self, worker_endpoints, plan_p):
        stream = traffic_stream(180)
        window_policy = CountWindow(size=60, slide=30)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        backend = TcpBackend(worker_endpoints, placement=ConsistentHashPlacement(), **worker_security_kwargs())
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
            actual = [
                {frozenset(a) for a in session.evaluate_window(list(delta.window)).answers}
                for delta in window_policy.deltas(stream)
            ]
        assert actual == expected

    def test_push_facade_over_tcp(self, worker_endpoints):
        stream = traffic_stream(150)
        window_policy = CountWindow(size=50, slide=25)
        expected = scratch_answers_per_window(window_policy, stream, HashPartitioner(2))
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(
            reasoner,
            window=window_policy,
            partitioner=HashPartitioner(2),
            backend=TcpBackend(worker_endpoints, **worker_security_kwargs()),
        ) as session:
            session.push(stream)
            session.finish()
            actual = [{frozenset(a) for a in solution.answers} for solution in session.results()]
        assert actual == expected


class TestKillAWorker:
    """A worker subprocess SIGKILLed mid-stream: slots reroute, windows exact."""

    def test_killed_worker_subprocess_reroutes_without_losing_windows(self, plan_p):
        stream = dense_traffic_stream(220)
        window_policy = CountWindow(size=80, slide=20)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        assert any(any(answers) for answers in expected)
        workers = spawn_local_workers(2)
        try:
            backend = TcpBackend([worker.endpoint for worker in workers])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            solutions = []
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                for index, delta in enumerate(window_policy.deltas(stream)):
                    if index == 2:
                        workers[1].kill()  # SIGKILL: no goodbye, no flush
                    result = session.evaluate_window(list(delta.window))
                    solutions.append({frozenset(answer) for answer in result.answers})
                assert len(solutions) == len(expected)  # no lost/duplicated windows
                assert solutions == expected
                assert backend.fleet.reroutes >= 1
                assert [str(e) for e in backend.fleet.alive_endpoints] == [workers[0].endpoint]
        finally:
            for worker in workers:
                worker.terminate()

    def test_killed_worker_with_pending_pipelined_dispatches_resubmits(self, plan_p):
        """Regression: a reroute must also resubmit *pending* dispatches.

        Under pipelined ingestion a slot can have several windows in flight
        on its worker when that worker dies -- the one whose receive hit the
        error and the ones queued behind it.  Every one of them must be
        resubmitted on the rerouted slot (not lost, not duplicated, and not
        silently degraded to the inline fallback).
        """
        stream = dense_traffic_stream(260)
        window_policy = CountWindow(size=60, slide=20)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        assert any(any(answers) for answers in expected)
        workers = spawn_local_workers(2)
        try:
            backend = TcpBackend([worker.endpoint for worker in workers])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(
                reasoner,
                window=window_policy,
                partitioner=partitioner,
                backend=backend,
                max_inflight=8,
            ) as session:
                # Fill the pipe: several windows dispatched, none gathered.
                session.push(stream[: len(stream) // 2])
                assert session.ingestion.inflight_high_water > 1
                workers[1].kill()  # SIGKILL with the victim's slot mid-burst
                session.push(stream[len(stream) // 2 :])
                session.finish()
                actual = [{frozenset(a) for a in solution.answers} for solution in session.results()]
                assert actual == expected  # no lost/duplicated/reordered windows
                assert session.fallbacks == 0  # resubmitted on the survivor, not inline
                assert backend.fleet.reroutes >= 1
                assert [str(e) for e in backend.fleet.alive_endpoints] == [workers[0].endpoint]
        finally:
            for worker in workers:
                worker.terminate()
