"""Chaos, rejoin, and elasticity: the fleet under worker churn.

Three layers, cheapest first:

* :class:`TestFleetRegistry` -- the ANNOUNCE listener in isolation: a
  revived worker's announce flips its dead slot back to live, strangers
  and garbage are ignored, and the listener never unpickles anything.
* :class:`TestFleetAutoscaler` -- the backpressure-driven scaler against
  an injected spawner: streak thresholds, cooldown, the ``max_workers``
  ceiling, calm-streak retirement, and the ``IngestionStats`` mirror.
* :class:`TestChaos` -- the acceptance scenario (ISSUE 10): a live
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

from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.autoscale import FleetAutoscaler
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.fleet import FleetRegistry, WorkerEndpoint, WorkerFleet
from repro.streamrule.metrics import IngestionStats
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


def pickled_reasoner():
    import pickle

    return pickle.dumps(traffic_reasoner())


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
        fleet.start(pickled_reasoner())
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
# Autoscaler (injected spawner -- no subprocesses)
# --------------------------------------------------------------------------- #
class FakeWorker:
    def __init__(self, endpoint):
        self.endpoint = endpoint
        self.terminated = False

    def terminate(self, timeout=5.0):
        self.terminated = True


class FakeFleet:
    def __init__(self):
        self.endpoints = [WorkerEndpoint("127.0.0.1", 7001)]
        self.dead = []

    @property
    def dead_endpoints(self):
        return list(self.dead)

    def adopt_endpoint(self, endpoint, *, attempts=None):
        self.endpoints.append(WorkerEndpoint.parse(endpoint))
        return len(self.endpoints) - 1

    def retire_endpoint(self, index):
        del self.endpoints[index]


class FakeBackend:
    def __init__(self):
        self.fleet = FakeFleet()


class TestFleetAutoscaler:
    def make(self, **kwargs):
        backend = FakeBackend()
        spawned = []

        def spawner(count=1, **_ignored):
            workers = [FakeWorker(f"127.0.0.1:{7100 + len(spawned) + i}") for i in range(count)]
            spawned.extend(workers)
            return workers

        defaults = dict(
            max_workers=2,
            scale_up_stall_streak=3,
            scale_up_backoff_streak=2,
            scale_down_calm_streak=4,
            cooldown=2,
            spawner=spawner,
        )
        defaults.update(kwargs)
        scaler = FleetAutoscaler(backend, **defaults)
        return scaler, backend, spawned

    def test_stall_streak_triggers_scale_up_and_adoption(self):
        scaler, backend, spawned = self.make()
        for _ in range(2):
            scaler.observe(stalled=True)
        assert scaler.scale_ups == 0  # streak not yet at threshold
        scaler.observe(stalled=True)
        assert scaler.scale_ups == 1
        assert len(spawned) == 1
        assert WorkerEndpoint.parse(spawned[0].endpoint) in backend.fleet.endpoints

    def test_backoff_streak_triggers_scale_up(self):
        scaler, _backend, spawned = self.make()
        scaler.observe(stalled=False, aimd_backoffs=1)
        scaler.observe(stalled=False, aimd_backoffs=2)
        assert scaler.scale_ups == 1 and len(spawned) == 1

    def test_cooldown_and_max_workers_bound_scale_ups(self):
        scaler, _backend, spawned = self.make(cooldown=3)
        for _ in range(3):
            scaler.observe(stalled=True)
        assert scaler.scale_ups == 1
        # Stalls during cooldown do not spawn...
        for _ in range(3):
            scaler.observe(stalled=True)
        assert scaler.scale_ups == 1
        # ...but a sustained stall after cooldown spawns the second worker,
        for _ in range(3):
            scaler.observe(stalled=True)
        assert scaler.scale_ups == 2
        # and max_workers=2 is a hard ceiling from then on.
        for _ in range(12):
            scaler.observe(stalled=True)
        assert scaler.scale_ups == 2 and len(spawned) == 2

    def test_calm_streak_retires_youngest_spawned_worker_only(self):
        scaler, backend, spawned = self.make(cooldown=0, scale_down_calm_streak=4)
        for _ in range(3):
            scaler.observe(stalled=True)
        assert len(backend.fleet.endpoints) == 2
        for _ in range(4):
            scaler.observe(stalled=False)
        assert scaler.scale_downs == 1
        assert spawned[0].terminated
        assert len(backend.fleet.endpoints) == 1
        # A fully calm fleet never retires the operator's own workers.
        for _ in range(20):
            scaler.observe(stalled=False)
        assert scaler.scale_downs == 1
        assert backend.fleet.endpoints == [WorkerEndpoint("127.0.0.1", 7001)]

    def test_mirror_into_ingestion_stats(self):
        scaler, _backend, _spawned = self.make(cooldown=0)
        for _ in range(3):
            scaler.observe(stalled=True)
        ingestion = IngestionStats()
        scaler.mirror_into(ingestion)
        assert ingestion.autoscale_ups == 1
        assert ingestion.fleet_size == 2
        assert ingestion.as_dict()["autoscale_ups"] == 1.0

    def test_close_terminates_spawned_workers(self):
        scaler, _backend, spawned = self.make(cooldown=0)
        for _ in range(3):
            scaler.observe(stalled=True)
        scaler.close()
        assert all(worker.terminated for worker in spawned)
        scaler.close()  # idempotent

    def test_real_spawner_scales_a_live_fleet(self):
        """End to end with a real subprocess: a stall streak grows the
        fleet by one adopted daemon, and close() reaps it."""
        workers = spawn_local_workers(1)
        try:
            backend = TcpBackend([worker.endpoint for worker in workers])
            reasoner = traffic_reasoner()
            with StreamSession(
                reasoner, partitioner=HashPartitioner(2), backend=backend
            ) as session:
                with FleetAutoscaler(
                    backend, max_workers=1, scale_up_stall_streak=2, cooldown=0
                ) as scaler:
                    session.autoscaler = scaler
                    # First window forces the lazy backend start (fleet built).
                    assert session.evaluate_window(traffic_stream(40)).answers
                    before = len(backend.fleet.endpoints)
                    scaler.observe(stalled=True)
                    scaler.observe(stalled=True)
                    assert scaler.scale_ups == 1
                    assert len(backend.fleet.endpoints) == before + 1
                    # The widened fleet actually answers work.
                    result = session.evaluate_window(traffic_stream(40))
                    assert result.answers
                    assert session.fallbacks == 0
                    daemon = scaler.spawned_workers[0]
                assert not daemon.alive  # close() reaped it
        finally:
            for worker in workers:
                worker.terminate()


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
