"""Chaos, rejoin, and operator-driven fleet changes: the fleet under worker churn.

Three layers, cheapest first:

* :class:`TestHeartbeatRejoin` -- the heartbeat against in-thread daemons:
  a daemon restarted on its old port gets its slots back with no other
  help, and an endpoint the operator retired stays retired.
* :class:`TestOperatorAdoption` -- ``adopt_endpoint``/``retire_endpoint``
  on a live fleet: an adopted daemon serves its slots of the widened
  layout, a retired one hands them back, and no window is lost.
* :class:`TestChaos` -- the acceptance scenario: a live
  4-worker fleet loses half its daemons mid-stream, keeps answering
  correctly off the survivors (reroutes, zero inline fallbacks), then
  re-adopts the revived daemons on the *same* ports through the heartbeat
  re-probe without the backend ever restarting.  CI runs this as the
  ``chaos`` job.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.decomposition import decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.core.partitioner import DependencyPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.fleet import WorkerEndpoint
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
    # Three segments and three cars: dense enough that many windows raise
    # events, so comparing answers is not comparing empty sets.
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed,
        location_count=3, car_count=3,
    )
    return list(generate_window(config))


def dependency_partitioner():
    """The paper's exact partitioner: any answer lost or invented is the fleet's doing."""
    return DependencyPartitioner(decompose(build_input_dependency_graph(traffic_program(), INPUT_PREDICATES)).plan)


def answer_sets(solution):
    return {frozenset(answer) for answer in solution.answers}


def spawn_worker_on(host, port):
    """Spawn one worker daemon bound to a *specific* port (for revivals)."""
    source_root = str(Path(__file__).resolve().parents[2] / "src")
    environment = dict(os.environ)
    environment.pop("STREAMRULE_AUTH_TOKEN", None)  # private fleet, like spawn_local_workers
    python_path = environment.get("PYTHONPATH")
    environment["PYTHONPATH"] = (
        source_root if not python_path else source_root + os.pathsep + python_path
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.streamrule.worker", "--listen", f"{host}:{port}"],
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
# The heartbeat: the one way back into the fleet
# --------------------------------------------------------------------------- #
class TestHeartbeatRejoin:
    INTERVAL = 0.05

    @staticmethod
    def _pings(backend):
        return backend.transport_statistics()["pings"]

    def test_a_daemon_restarted_on_its_port_is_readopted_by_the_heartbeat(self):
        stream = traffic_stream(80)
        partitioner = dependency_partitioner()
        halves = (stream[:40], stream[40:])
        with StreamSession(traffic_reasoner(), partitioner=partitioner, backend=InlineBackend()) as session:
            expected = [answer_sets(session.evaluate_window(half)) for half in halves]
        assert any(any(answers) for answers in expected)

        first, second = WorkerServer(port=0), WorkerServer(port=0)
        first.start()
        second.start()
        port = first.address[1]
        restarted = WorkerServer(port=port)
        try:
            backend = TcpBackend([first.address, second.address], heartbeat_interval=self.INTERVAL)
            with StreamSession(traffic_reasoner(), partitioner=partitioner, backend=backend) as session:
                actual = [answer_sets(session.evaluate_window(halves[0]))]
                fleet = backend.fleet
                layout = fleet.slot_table()
                first.stop()
                assert wait_until(lambda: len(fleet.dead_endpoints) == 1, timeout=10.0)
                assert set(fleet.slot_table().values()) == {str(WorkerEndpoint.parse(second.address))}
                restarted.start()
                assert wait_until(lambda: not fleet.dead_endpoints, timeout=10.0)
                assert fleet.readoptions == 1 and fleet.slot_table() == layout
                actual.append(answer_sets(session.evaluate_window(halves[1])))
                assert session.fallbacks == 0
                assert backend.fleet is fleet
        finally:
            for server in (first, second, restarted):
                server.stop()
        assert actual == expected

    def test_a_retired_endpoint_stays_retired_across_heartbeats(self):
        with WorkerServer(port=0) as first, WorkerServer(port=0) as second:
            backend = TcpBackend([first.address, second.address], heartbeat_interval=self.INTERVAL)
            with StreamSession(traffic_reasoner(), backend=backend) as session:
                session.evaluate_window(traffic_stream(40))
                fleet = backend.fleet
                retired, survivor = (str(endpoint) for endpoint in fleet.endpoints)
                fleet.retire_endpoint(0)
                # Each beat pings the survivor, then probes the dead: six
                # more pings mean at least five whole beats since the retire.
                pings = self._pings(backend)
                assert wait_until(lambda: self._pings(backend) >= pings + 6, timeout=10.0)
                assert [str(endpoint) for endpoint in fleet.dead_endpoints] == [retired]
                assert fleet.readoptions == 0
                assert set(fleet.slot_table().values()) == {survivor}
                # The operator's explicit readopt is the way back.
                assert fleet.readopt(0)
                assert not fleet.dead_endpoints and fleet.slot_table()[0] == retired
                assert fleet.readoptions == 1 and fleet.retirements == 1


# --------------------------------------------------------------------------- #
# Operator-driven adoption and retirement
# --------------------------------------------------------------------------- #
@pytest.mark.slow
class TestOperatorAdoption:
    def test_an_adopted_worker_serves_its_slots_until_retired(self):
        """Adopt a second daemon mid-stream, see its slots' work reach it,
        retire it again: every window still answers exactly as inline."""
        stream = traffic_stream(240)
        window_policy = CountWindow(size=40, slide=20, emit_partial=False)
        partitioner = dependency_partitioner()
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
        partitioner = dependency_partitioner()  # two tracks: slots 0 and 1, on the two workers killed below

        with StreamSession(
            traffic_reasoner(), partitioner=partitioner, backend=InlineBackend(simulated=False)
        ) as session:
            expected = [
                {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]
        assert any(any(answers) for answers in expected)  # the comparison below is not between empty sets

        workers = spawn_local_workers(4)
        revived = []
        try:
            backend = TcpBackend(
                [worker.endpoint for worker in workers],
                heartbeat_interval=0.2,
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

                # --- revive on the SAME ports: the heartbeat re-probe
                # hands both their slots back.
                revived += [spawn_worker_on(*worker.address) for worker in workers[:2]]
                assert wait_until(lambda: not fleet.dead_endpoints, timeout=20.0)
                assert fleet.readoptions >= 2

                # --- the regained workers serve the rest of the stream
                actual += [
                    {frozenset(a) for a in session.evaluate_window(list(d.window), delta=d).answers}
                    for d in deltas[2 * third :]
                ]
                assert session.fallbacks == 0  # inline never ran
                assert backend.fleet is fleet  # the backend never restarted
                stats = backend.transport_statistics()
            # Every window, across the kill and the rejoin, answered exactly
            # as the uninterrupted inline run: nothing lost, nothing doubled.
            assert len(actual) == len(expected)
            assert actual == expected
            assert stats["reroutes"] > 0
            assert stats["readoptions"] >= 2
        finally:
            for worker in workers + revived:
                worker.terminate()
