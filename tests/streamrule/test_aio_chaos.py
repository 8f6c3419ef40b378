"""Chaos: 200 async sessions on one loop survive a mid-stream worker kill.

The serving-layer fault story, end to end: one event loop multiplexes 200
:class:`AsyncStreamSession` instances over a single shared
:class:`AioTcpBackend` on a two-worker fleet; one worker is hard-killed
with a full wave of windows on the wire.  The async fleet resubmits every
in-flight window of the dead connection on the survivor (``aio.py``
module docstring -- same discipline as the sync fleet), so the inline
fallback -- which would run solver work synchronously on the event loop
-- never fires while any worker lives.  Asserted:

* no session loses, duplicates, or reorders a window -- every one of the
  200 emits exactly the reference solution trajectory;
* zero inline fallbacks (the kill was absorbed *on the wire*), with the
  fleet rerouting the dead worker's slots onto the lone survivor.

The fleet is always self-spawned (never ``STREAMRULE_WORKERS``): this test
kills one of its daemons, so it must own them.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AioTcpBackend, AsyncStreamSession
from repro.streamrule.backends import InlineBackend
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.worker import spawn_local_workers

SESSIONS = 200
WINDOW = CountWindow(size=30, slide=30)
STREAM_LENGTH = 90  # three windows per session
FIRST_WAVE = 30  # one window in flight when the worker dies


def traffic_stream():
    # One segment and one car: every window holds enough readings of them
    # to raise events, so the comparison is not between empty answers.
    config = SyntheticStreamConfig(
        window_size=STREAM_LENGTH, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=23,
        location_count=1, car_count=1,
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


def reference_solutions(stream):
    with StreamSession(
        traffic_reasoner(), window=WINDOW, backend=InlineBackend(simulated=False)
    ) as session:
        session.push(stream)
        session.finish()
        reference = [fingerprint(solution) for solution in session.results()]
    assert len(reference) == 3
    assert any(any(answers) for _index, _size, answers, _triples in reference)
    return reference


@pytest.mark.slow
def test_worker_kill_mid_stream_loses_nothing():
    stream = traffic_stream()
    reference = reference_solutions(stream)
    workers = spawn_local_workers(2)
    try:
        endpoints = [worker.endpoint for worker in workers]

        async def scenario():
            reasoner = traffic_reasoner()
            backend = AioTcpBackend(endpoints)
            await backend.astart(reasoner)
            sessions = [
                AsyncStreamSession(
                    reasoner,
                    window=WINDOW,
                    backend=backend,
                    max_inflight=4,
                    owns_backend=False,
                    track_base=100 * index,
                )
                for index in range(SESSIONS)
            ]
            try:
                # Wave 1: every session dispatches one window; nothing is
                # gathered (the bound of 4 is above 1), so 200
                # windows sit in flight across both workers.
                await asyncio.gather(
                    *(session.push(stream[:FIRST_WAVE]) for session in sessions)
                )
                # Two loop passes put the dispatch tasks' frames on the
                # wire; the roundtrips cannot complete that fast, so the
                # kill lands while wave 1 is genuinely in flight.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                workers[0].kill()
                # Waves 2-3 + drain: the survivor absorbs the rest.
                await asyncio.gather(
                    *(session.push(stream[FIRST_WAVE:]) for session in sessions)
                )
                await asyncio.gather(*(session.finish() for session in sessions))
                per_session = []
                for session in sessions:
                    solutions = await session.results_list()
                    per_session.append(
                        ([fingerprint(solution) for solution in solutions], session.fallbacks)
                    )
                stats = backend.transport_statistics()
            finally:
                for session in sessions:
                    await session.close(drain=False)
                await backend.aclose()
            return per_session, stats

        per_session, stats = asyncio.run(scenario())
    finally:
        for worker in workers:
            worker.terminate()

    # No session lost, duplicated, or reordered a window.
    for solutions, _fallbacks in per_session:
        assert solutions == reference

    # The kill was absorbed on the wire, not dodged and not degraded:
    # every in-flight window of the dead worker was resubmitted on the
    # survivor (regression guard for the old fall-back-inline behaviour,
    # which blocked the event loop on solver work).
    total_fallbacks = sum(fallbacks for _s, fallbacks in per_session)
    assert total_fallbacks == 0
    assert stats["alive_workers"] == 1.0
    assert stats["reroutes"] > 0
