"""Chaos, rejoin, and operator-driven fleet changes: the fleet under worker churn.

Three layers, cheapest first:

* :class:`TestFleetRegistry` -- the ANNOUNCE listener in isolation: a
  revived worker's announce flips its dead slot back to live, strangers
  and garbage are ignored, and the listener never unpickles anything.
* :class:`TestOperatorAdoption` -- ``adopt_endpoint``/``retire_endpoint``
  on a live fleet: an adopted daemon serves its slots of the widened
  layout, a retired one hands them back, and no window is lost.
* :class:`TestChaos` -- the acceptance scenario: a live
  4-worker fleet loses half its daemons mid-stream, keeps answering
  correctly off the survivors (reroutes, zero inline fallbacks), then
  re-adopts the revived daemons on the *same* ports -- via both the
  heartbeat re-probe and the ANNOUNCE push path -- without the backend
  ever restarting.  CI runs this as the ``chaos`` job.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.decomposition import decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.core.partitioner import DependencyPartitioner, HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.fleet import FleetRegistry, WorkerEndpoint, WorkerFleet
from repro.streamrule.net import announce_endpoint
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.worker import (
    LocalWorkerProcess,
    WorkerServer,
    _await_listening_line,
    spawn_local_workers,
)


def traffic_reasoner():
    return Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)


def traffic_stream(length, seed=67):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return list(generate_window(config))


def reasoner_spec():
    from repro.streamrule.codec import encode_reasoner_spec

    return encode_reasoner_spec(traffic_reasoner())


def spawn_worker_on(host, port, extra_arguments=()):
    """Spawn one worker daemon bound to a *specific* port (for revivals)."""
    source_root = str(Path(__file__).resolve().parents[2] / "src")
    environment = dict(os.environ)
    environment.pop("STREAMRULE_AUTH_TOKEN", None)  # private fleet, like spawn_local_workers
    python_path = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not python_path else source_root + os.pathsep + python_path
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.streamrule.worker", "--listen", f"{host}:{port}", *extra_arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=environment,
    )
    address = _await_listening_line(process, 30.0)
    return LocalWorkerProcess(process, address)


def wait_until(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# --------------------------------------------------------------------------- #
# ANNOUNCE / registry
# --------------------------------------------------------------------------- #
class TestFleetRegistry:
    def _fleet(self, server):
        fleet = WorkerFleet([f"{server.address[0]}:{server.address[1]}"])
        fleet.start(reasoner_spec())
        return fleet

    def test_announce_readopts_a_dead_endpoint(self):
        with WorkerServer(port=0) as server:
            fleet = self._fleet(server)
            try:
                with FleetRegistry(fleet) as registry:
                    fleet._mark_dead(0)
                    assert fleet.dead_endpoints
                    assert announce_endpoint(registry.address, server.address)
                    assert wait_until(lambda: not fleet.dead_endpoints)
                    assert fleet.readoptions == 1
                    assert registry.announces == 1
            finally:
                fleet.close()

    def test_announce_for_a_live_endpoint_is_a_noop(self):
        with WorkerServer(port=0) as server:
            fleet = self._fleet(server)
            try:
                with FleetRegistry(fleet) as registry:
                    assert announce_endpoint(registry.address, server.address)
                    assert wait_until(lambda: registry.announces == 1)
                    assert fleet.readoptions == 0
            finally:
                fleet.close()

    def test_announce_from_a_stranger_is_ignored(self):
        """An endpoint the operator never configured cannot announce its
        way into the fleet."""
        with WorkerServer(port=0) as server:
            fleet = self._fleet(server)
            try:
                with FleetRegistry(fleet) as registry:
                    assert announce_endpoint(registry.address, ("127.0.0.1", 1))
                    assert wait_until(lambda: registry.announces == 1)
                    assert len(fleet.endpoints) == 1
                    assert fleet.adoptions == 0 and fleet.readoptions == 0
            finally:
                fleet.close()

    def test_garbage_and_pickle_frames_are_dropped(self):
        """The registry neither crashes on nor unpickles hostile bytes."""
        import pickle

        from repro.streamrule.net import MAGIC, FrameKind, send_frame

        with WorkerServer(port=0) as server:
            fleet = self._fleet(server)
            try:
                with FleetRegistry(fleet) as registry:
                    with socket.create_connection(registry.address, timeout=5.0) as raw:
                        raw.sendall(b"JUNKJUNK")
                    with socket.create_connection(registry.address, timeout=5.0) as raw:
                        raw.sendall(MAGIC)
                        send_frame(raw, FrameKind.ANNOUNCE, pickle.dumps({"host": "x", "port": 1}))
                    # Still alive and still counting real announces:
                    assert announce_endpoint(registry.address, server.address)
                    assert wait_until(lambda: registry.announces == 1)
            finally:
                fleet.close()

    def test_close_wakes_the_accept_thread(self):
        """Closing the listener must unblock ``accept()`` at once, not after the join timeout."""
        registry = FleetRegistry(None)
        time.sleep(0.2)  # let the accept thread block in accept()
        started = time.perf_counter()
        registry.close()
        assert time.perf_counter() - started < 1.0
        assert not registry._thread.is_alive()


# --------------------------------------------------------------------------- #
# Operator-driven adoption and retirement
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestOperatorAdoption:
    def test_an_adopted_worker_serves_its_slots_until_retired(self):
        """Adopt a second daemon mid-stream, see its slots' work reach it,
        retire it again: every window still answers exactly as inline."""
        # Three segments and three cars: dense enough that most windows
        # raise events, so the comparison below is not between empty sets.
        config = SyntheticStreamConfig(
            window_size=240, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=67,
            location_count=3, car_count=3,
        )
        stream = list(generate_window(config))
        window_policy = CountWindow(size=40, slide=20, emit_partial=False)
        partitioner = DependencyPartitioner(
            decompose(build_input_dependency_graph(traffic_program(), INPUT_PREDICATES)).plan
        )
        with StreamSession(
            traffic_reasoner(), window=window_policy, partitioner=partitioner, backend=InlineBackend()
        ) as session:
            expected = [{frozenset(a) for a in s.answers} for s in session.process(stream)]

        workers = spawn_local_workers(2)
        try:
            first, second = (WorkerEndpoint.parse(worker.endpoint) for worker in workers)
            backend = TcpBackend([workers[0].endpoint], slots=2)
            with StreamSession(
                traffic_reasoner(), window=window_policy, partitioner=partitioner, backend=backend
            ) as session:
                session.push(stream[:80])
                fleet = backend.fleet
                index = fleet.adopt_endpoint(workers[1].endpoint)
                assert fleet.slot_table() == {0: str(first), 1: str(second)}
                session.push(stream[80:160])
                actual = [{frozenset(a) for a in s.answers} for s in session.results()]
                adopted = fleet._table.connections[index].stats
                assert adopted.items_full + adopted.items_delta > 0
                fleet.retire_endpoint(index)
                assert set(fleet.slot_table().values()) == {str(first)}
                session.push(stream[160:])
                session.finish()
                actual += [{frozenset(a) for a in s.answers} for s in session.results()]
                assert session.fallbacks == 0
                statistics = backend.transport_statistics()
        finally:
            for worker in workers:
                worker.terminate()
        assert statistics["adoptions"] == 1.0 and statistics["retirements"] == 1.0
        assert any(any(answers) for answers in expected)
        assert actual == expected


# --------------------------------------------------------------------------- #
# The acceptance scenario
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestChaos:
    def test_fleet_loses_and_regains_half_its_workers_mid_stream(self):
        stream = traffic_stream(240)
        window_policy = CountWindow(size=40, slide=20)
        partitioner = HashPartitioner(4)

        with StreamSession(
            traffic_reasoner(), partitioner=partitioner, backend=InlineBackend(simulated=False)
        ) as session:
            expected = [
                {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]

        workers = spawn_local_workers(4)
        revived = []
        try:
            backend = TcpBackend(
                [worker.endpoint for worker in workers],
                heartbeat_interval=0.2,
                registry=True,
            )
            with StreamSession(
                traffic_reasoner(), partitioner=partitioner, backend=backend
            ) as session:
                deltas = list(window_policy.deltas(stream))
                third = len(deltas) // 3
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(d.window), delta=d).answers}
                    for d in deltas[:third]
                ]
                fleet = backend.fleet

                # --- lose half the fleet, keep streaming off the survivors
                for worker in workers[:2]:
                    worker.terminate()
                actual += [
                    {frozenset(a) for a in session.evaluate_window(list(d.window), delta=d).answers}
                    for d in deltas[third : 2 * third]
                ]
                assert fleet.reroutes > 0
                assert wait_until(lambda: len(fleet.dead_endpoints) == 2, timeout=10.0)

                # --- revive on the SAME ports: one worker rejoins via the
                # ANNOUNCE push path, the other via the heartbeat re-probe.
                registry = backend.registry
                assert registry is not None
                host, port = registry.address
                revived.append(
                    spawn_worker_on(*workers[0].address, extra_arguments=[
                        "--announce", f"{host}:{port}", "--announce-interval", "0.2",
                    ])
                )
                revived.append(spawn_worker_on(*workers[1].address))
                assert wait_until(lambda: not fleet.dead_endpoints, timeout=20.0)
                assert fleet.readoptions >= 2
                assert registry.announces >= 1

                # --- the regained workers serve the rest of the stream
                actual += [
                    {frozenset(a) for a in session.evaluate_window(list(d.window), delta=d).answers}
                    for d in deltas[2 * third :]
                ]
                assert session.fallbacks == 0  # inline never ran
                assert backend.fleet is fleet  # the backend never restarted
                stats = backend.wire_statistics()
            # Every window, across the kill and the rejoin, answered exactly
            # as the uninterrupted inline run: nothing lost, nothing doubled.
            assert len(actual) == len(expected)
            assert actual == expected
            assert stats["reroutes"] > 0
            assert stats["readoptions"] >= 2
        finally:
            for worker in workers + revived:
                worker.terminate()
