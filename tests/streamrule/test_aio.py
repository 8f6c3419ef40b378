"""The asyncio facade: async/sync equivalence across schedules and backends.

The contract (see ``docs/async-serving.md``): :class:`AsyncStreamSession`
shares the dispatch/gather seam with the synchronous session, so whatever
the backend, whatever the in-flight bound (fixed or ``"adaptive"``), and
however ``await push`` calls interleave with ``results(wait=False)``
drains, the async facade emits exactly the solutions of the synchronous
inline path, in window order.  The hypothesis suite drives randomized
schedules over that surface; the backend matrix re-checks one canonical
schedule on every execution backend, including the asyncio-native TCP
backend against real worker daemons (``STREAMRULE_WORKERS``, or
self-spawned); the multiplexing test is the serving shape -- many sessions
interleaved on one loop over one shared backend.
"""

from __future__ import annotations

import asyncio
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AioTcpBackend, AsyncStreamSession
from repro.streamrule.backends import (
    InlineBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
)
from repro.streamrule.errors import BackendError
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.worker import spawn_local_workers
from tests.streamrule.conftest import InThreadTcpBackend, worker_security_kwargs


def traffic_stream(length, seed=23):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


def traffic_reasoner():
    return Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)


def fingerprint(solution):
    return (
        solution.window_index,
        solution.window_size,
        {frozenset(answer) for answer in solution.answers},
        solution.solution_triples,
    )


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
        assert _REFERENCE
    return _REFERENCE


async def drive_session(
    session: AsyncStreamSession, stream, chunk_sizes=(STREAM_LENGTH,), drain_after=()
):
    """Push ``stream`` in chunks, optionally draining non-blockingly between."""
    collected = []
    cursor = 0
    for position, size in enumerate(chunk_sizes):
        await session.push(stream[cursor : cursor + size])
        cursor += size
        if position < len(drain_after) and drain_after[position]:
            async for solution in session.results(wait=False):
                collected.append(solution)
    await session.push(stream[cursor:])
    await session.finish()
    async for solution in session.results():
        collected.append(solution)
    return collected


class TestAsyncSynchronousParity:
    """``max_inflight=1`` under the async facade is still fully synchronous."""

    def test_push_gathers_before_returning(self):
        stream = traffic_stream(STREAM_LENGTH)

        async def scenario():
            collected = []
            async with AsyncStreamSession(
                traffic_reasoner(),
                window=WINDOW,
                backend=ThreadPoolBackend(max_workers=2),
                max_inflight=1,
            ) as session:
                for triple in stream:
                    count = await session.push([triple])
                    assert not session.session._inflight
                    drained = await session.results_list()
                    assert len(drained) == count
                    collected.extend(drained)
                await session.finish()
                collected.extend(await session.results_list())
                assert session.ingestion.inflight_high_water == 1
                assert session.ingestion.dispatched_ahead == 0
            return collected

        collected = asyncio.run(scenario())
        assert [fingerprint(solution) for solution in collected] == reference_solutions()


class TestAsyncInterleavings:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_any_async_schedule_matches_the_synchronous_path(self, data):
        """Random await/drain schedules, any bound: identical solutions."""
        max_inflight = data.draw(st.sampled_from([1, 2, 8, "adaptive"]), label="max_inflight")
        chunk_sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=8),
            label="chunk_sizes",
        )
        drain_after = data.draw(
            st.lists(st.booleans(), min_size=len(chunk_sizes), max_size=len(chunk_sizes)),
            label="drain_after",
        )
        stream = traffic_stream(STREAM_LENGTH)

        async def scenario():
            async with AsyncStreamSession(
                traffic_reasoner(),
                window=WINDOW,
                backend=ThreadPoolBackend(max_workers=2),
                max_inflight=max_inflight,
            ) as session:
                collected = await drive_session(session, stream, chunk_sizes, drain_after)
                if isinstance(max_inflight, int):
                    assert session.ingestion.inflight_high_water <= max_inflight
                else:
                    assert session.inflight_controller is not None
            return collected

        collected = asyncio.run(scenario())
        assert [fingerprint(solution) for solution in collected] == reference_solutions()


# --------------------------------------------------------------------------- #
# The backend matrix
# --------------------------------------------------------------------------- #
#: One canonical chunked schedule with interleaved non-blocking drains.
CANONICAL_CHUNKS = (7, 18, 25, 5)
CANONICAL_DRAINS = (False, True, True, False)

LIGHT_BACKENDS = {
    "inline": lambda: InlineBackend(simulated=False),
    "threads": lambda: ThreadPoolBackend(max_workers=2),
    "tcp": lambda: InThreadTcpBackend(2),
    "tcp-full-frames": lambda: InThreadTcpBackend(2, delta_shipping=False, symbol_ids=False),
}

HEAVY_BACKENDS = {
    "shared-memory": lambda: SharedMemoryBackend(max_workers=2),
}


async def matrix_scenario(backend, max_inflight, owns_backend=True, reasoner=None, track_base=0):
    session = AsyncStreamSession(
        reasoner if reasoner is not None else traffic_reasoner(),
        window=WINDOW,
        backend=backend,
        max_inflight=max_inflight,
        owns_backend=owns_backend,
        track_base=track_base,
    )
    async with session:
        collected = await drive_session(
            session, traffic_stream(STREAM_LENGTH), CANONICAL_CHUNKS, CANONICAL_DRAINS
        )
    return [fingerprint(solution) for solution in collected]


class TestBackendMatrix:
    @pytest.mark.parametrize("backend_kind", sorted(LIGHT_BACKENDS), ids=str)
    @pytest.mark.parametrize("max_inflight", [2, "adaptive"], ids=["fixed", "adaptive"])
    def test_light_backends(self, backend_kind, max_inflight):
        backend = LIGHT_BACKENDS[backend_kind]()
        assert asyncio.run(matrix_scenario(backend, max_inflight)) == reference_solutions()

    @pytest.mark.slow
    @pytest.mark.parametrize("backend_kind", sorted(HEAVY_BACKENDS), ids=str)
    @pytest.mark.parametrize("max_inflight", [2, "adaptive"], ids=["fixed", "adaptive"])
    def test_heavy_backends(self, backend_kind, max_inflight):
        backend = HEAVY_BACKENDS[backend_kind]()
        assert asyncio.run(matrix_scenario(backend, max_inflight)) == reference_solutions()


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


class TestAioTcp:
    @pytest.mark.parametrize("max_inflight", [1, 2, 8, "adaptive"], ids=str)
    def test_aio_tcp_matches_the_synchronous_path(self, worker_endpoints, max_inflight):
        backend = AioTcpBackend(worker_endpoints, **worker_security_kwargs())
        result = asyncio.run(matrix_scenario(backend, max_inflight))
        assert result == reference_solutions()

    def test_items_actually_travel_the_wire(self, worker_endpoints):
        backend = AioTcpBackend(worker_endpoints, **worker_security_kwargs())

        async def scenario():
            async with AsyncStreamSession(
                traffic_reasoner(), window=WINDOW, backend=backend, max_inflight=4
            ) as session:
                await session.push(traffic_stream(STREAM_LENGTH))
                await session.finish()
                collected = await session.results_list()
                assert session.fallbacks == 0
                stats = backend.wire_statistics()
            return collected, stats

        collected, stats = asyncio.run(scenario())
        assert [fingerprint(solution) for solution in collected] == reference_solutions()
        assert stats["items_full"] + stats["items_delta"] >= len(collected)
        # The wire stats snapshot survives the (owned) backend's close.
        assert backend.wire_statistics() == stats

    def test_sync_start_is_rejected_with_guidance(self, worker_endpoints):
        backend = AioTcpBackend(worker_endpoints, **worker_security_kwargs())
        with pytest.raises(BackendError, match="astart"):
            backend.start(traffic_reasoner())

    def test_astart_is_idempotent_per_reasoner(self, worker_endpoints):
        backend = AioTcpBackend(worker_endpoints, **worker_security_kwargs())
        reasoner = traffic_reasoner()

        async def scenario():
            await backend.astart(reasoner)
            fleet = backend.fleet
            await backend.astart(reasoner)  # same reasoner: no rebuild
            assert backend.fleet is fleet
            await backend.aclose()
            assert backend.fleet is None
            await backend.aclose()  # idempotent

        asyncio.run(scenario())

    def test_dispatch_off_the_owning_loop_is_rejected(self, worker_endpoints):
        backend = AioTcpBackend(worker_endpoints, **worker_security_kwargs())
        reasoner = traffic_reasoner()
        asyncio.run(backend.astart(reasoner))
        # The loop that started the backend is gone; dispatching from
        # outside any loop (or another loop) must fail loudly, not hang.
        item_source = StreamSession(reasoner, backend=backend, owns_backend=False)
        with pytest.raises(BackendError, match="event loop"):
            item_source.evaluate_window(traffic_stream(10))
        backend.close()


class TestAsyncFleetResubmission:
    """Regression: a dead worker's in-flight items must be resubmitted to
    the survivors on the event loop, not dropped to the inline fallback
    (which runs solver work synchronously and blocks the loop)."""

    def test_dead_worker_items_reroute_to_survivors(self):
        workers = spawn_local_workers(2)
        try:
            backend = AioTcpBackend([worker.endpoint for worker in workers])

            async def scenario():
                async with AsyncStreamSession(
                    traffic_reasoner(), window=WINDOW, backend=backend, max_inflight=4
                ) as session:
                    stream = traffic_stream(STREAM_LENGTH)
                    half = len(stream) // 2
                    await session.push(stream[:half])
                    # Kill one worker while its connections are live; the
                    # remaining windows (and any in-flight retries) must be
                    # absorbed by the survivor.
                    workers[0].terminate()
                    await session.push(stream[half:])
                    await session.finish()
                    collected = await session.results_list()
                    reroutes = backend.fleet.reroutes
                    return collected, session.fallbacks, reroutes

            collected, fallbacks, reroutes = asyncio.run(scenario())
        finally:
            for worker in workers:
                worker.terminate()
        assert [fingerprint(solution) for solution in collected] == reference_solutions()
        assert fallbacks == 0  # the survivor answered; inline never ran
        assert reroutes >= 1  # the dead worker's slots were remapped


class TestManySessionsOneLoop:
    """The serving shape: many sessions multiplexed over one shared backend."""

    SESSIONS = 12

    def test_interleaved_sessions_share_a_backend(self):
        reasoner = traffic_reasoner()
        backend = ThreadPoolBackend(max_workers=2)
        stream = traffic_stream(STREAM_LENGTH)

        async def scenario():
            sessions = [
                AsyncStreamSession(
                    reasoner,
                    window=WINDOW,
                    backend=backend,
                    max_inflight="adaptive",
                    owns_backend=False,
                    track_base=1000 * index,
                )
                for index in range(self.SESSIONS)
            ]
            # Round-robin the same stream through every session: pushes of
            # different sessions interleave on the loop, all over one
            # backend and one reasoner.
            for start in range(0, len(stream), 10):
                chunk = stream[start : start + 10]
                await asyncio.gather(*(session.push(chunk) for session in sessions))
            await asyncio.gather(*(session.finish() for session in sessions))
            collected = []
            for session in sessions:
                collected.append([fingerprint(s) for s in await session.results_list()])
                await session.close()
            return collected

        try:
            per_session = asyncio.run(scenario())
        finally:
            backend.close()
        for result in per_session:
            assert result == reference_solutions()

    def test_sessions_get_disjoint_track_namespaces(self):
        reasoner = traffic_reasoner()
        backend = ThreadPoolBackend(max_workers=2)

        async def scenario():
            tracks = []
            for index in range(3):
                async with AsyncStreamSession(
                    reasoner,
                    window=WINDOW,
                    backend=backend,
                    owns_backend=False,
                    track_base=1000 * index,
                ) as session:
                    await session.push(traffic_stream(STREAM_LENGTH))
                    await session.finish()
                    await session.results_list()
                    tracks.append(1000 * index)
                    assert session.session.track_base == 1000 * index
            return tracks

        try:
            assert asyncio.run(scenario()) == [0, 1000, 2000]
        finally:
            backend.close()
