"""Tests for the ProcessBackend and its slots.

Every test spawns real worker processes, each reached through a Unix
socket pair, and covers the equivalence, crash-fallback, and
traffic-accounting contracts.  Every answers-equal assertion first checks
that the reference is not empty, so a worker that loses answers fails.
"""

from __future__ import annotations

import gc
import inspect
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Variable
from repro.streamrule.backends import InlineBackend, ProcessBackend, ProcessSlot
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.errors import BackendConnectionError, BackendError
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.net import (
    DeltaShipper,
    FrameKind,
    WireStats,
    WorkerClient,
    frame_bytes,
    serve_worker_connection,
)
from repro.streamrule.work import WorkItem
from tests.conftest import make_atom
from tests.streamrule.test_protocol_core import TRANSPORT_KEYS

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

#: The closure of an ``edge`` cycle: quadratic in the cycle's length, so a
#: long cycle keeps a worker busy while a test kills it.
CYCLE_PROGRAM = """\
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
loop(X) :- path(X, X).
"""

#: ``edge`` facts in the slow window; its closure takes ≈ 1 s on one core.
SLOW_CYCLE = 300

#: The fact the large-frame test ships: 512 KiB of name.
LARGE_FACT_BYTES = 512 * 1024

REPO = Path(__file__).resolve().parents[2]


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def cycle_reasoner():
    return Reasoner(parse_program(CYCLE_PROGRAM), input_predicates=["edge"], output_predicates=["loop"])


def slow_window():
    return [make_atom("edge", index, (index + 1) % SLOW_CYCLE) for index in range(SLOW_CYCLE)]


def work_item(count=3, track=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track)


def answer_sets(answers):
    return {frozenset(answer) for answer in answers}


def inline_answers(reasoner, item):
    inline = InlineBackend()
    inline.start(reasoner)
    return answer_sets(inline.submit(item).result().answers)


def open_slot(index=0, reasoner=None):
    slot = ProcessSlot(index)
    try:
        slot.open(encode_reasoner_spec(reasoner or choice_reasoner()))
    except BaseException:
        slot.close()
        raise
    return slot


class _Recording:
    """A stream that keeps a copy of every byte written through it."""

    def __init__(self, stream):
        self._stream = stream
        self.sent = bytearray()

    def recv(self, bufsize):
        return self._stream.recv(bufsize)

    def sendall(self, data):
        self.sent += data
        self._stream.sendall(data)

    def close(self):
        self._stream.close()


class TestProcessSlot:
    def test_round_trip_matches_inline(self):
        item = work_item()
        expected = inline_answers(choice_reasoner(), item)
        assert expected and all(expected)
        slot = open_slot()
        try:
            over_process = slot.client.submit_item(item)
        finally:
            slot.close()
        assert answer_sets(over_process.answers) == expected

    def test_steady_state_windows_sync_no_new_symbols(self):
        slot = open_slot()
        try:
            slot.client.submit_item(work_item())
            first_syncs = slot.stats.symbol_frames
            slot.client.submit_item(work_item())  # identical facts: all interned
            assert first_syncs == 1
            assert slot.stats.symbol_frames == 1
            assert slot.stats.items == 2
        finally:
            slot.close()

    def test_worker_side_exception_propagates_and_slot_survives(self):
        slot = open_slot()
        try:
            non_ground = WorkItem(facts=(Atom("item", (Variable("X"),)),))
            with pytest.raises(BackendError, match="^process worker 0 failed: GroundingError: non-ground fact") as raised:
                slot.client.submit_item(non_ground)  # raised in the worker, reported here
            assert type(raised.value) is BackendError  # not a connection error: no fallback
            unencodable = WorkItem(facts=("not a fact",))  # type: ignore[arg-type]
            with pytest.raises(TypeError, match="no wire encoding"):
                slot.client.submit_item(unencodable)  # refused before it reaches the socket
            assert slot.client.submit_item(work_item()).answers
            assert slot.stats.items == 2
        finally:
            slot.close()

    def test_a_process_slots_bytes_equal_a_tcp_clients(self):
        """What a slot writes to its worker is what a WorkerClient writes into a socket, handshake included."""
        payload = encode_reasoner_spec(choice_reasoner())
        items = [work_item(count=6), WorkItem(facts=work_item(count=8).facts[2:], epoch=1)]
        slot = ProcessSlot(0)
        slot.stream = over_process = _Recording(slot.stream)
        try:
            slot.open(payload)
            process_answers = [slot.client.submit_item(item).answers for item in items]
        finally:
            slot.close()
        slot.process.join(timeout=10.0)
        assert slot.process.exitcode == 0  # end of stream is the clean exit request

        client_end, server_end = socket.socketpair()
        over_tcp = _Recording(client_end)
        with ThreadPoolExecutor(max_workers=1) as pool:
            served = pool.submit(serve_worker_connection, server_end)
            client = WorkerClient.over_stream(over_tcp, payload, ("socketpair", 0))
            tcp_answers = [client.submit_item(item).answers for item in items]
            client.close()
            assert served.result(timeout=10.0).items == 2
        assert tcp_answers and all(tcp_answers)
        assert process_answers == tcp_answers
        assert bytes(over_process.sent) == bytes(over_tcp.sent)
        shipper = DeltaShipper()
        frames = [frame for item in items for frame in shipper.encode_frames(item)]
        assert [kind for kind, _ in frames] == [FrameKind.SYMBOLS, FrameKind.WORK] * 2
        assert bytes(over_process.sent).endswith(b"".join(frame_bytes(*frame) for frame in frames))

    def test_a_512_kib_fact_crosses_intact(self):
        # Larger than a socket buffer: its SYMBOLS frame, and the RESULT
        # that interns it twice, cross in many reads; answers must be intact.
        name = "x" * LARGE_FACT_BYTES
        expected = {frozenset({make_atom("picked", name)}), frozenset({make_atom("dropped", name)})}
        slot = open_slot()
        try:
            result = slot.client.submit_item(WorkItem(facts=(make_atom("item", name),)))
        finally:
            slot.close()
        assert answer_sets(result.answers) == expected
        assert slot.stats.bytes_symbols > LARGE_FACT_BYTES and slot.stats.bytes_in > 2 * LARGE_FACT_BYTES

    def test_dead_worker_raises_connection_error(self):
        slot = open_slot()
        try:
            slot.kill()
            with pytest.raises(BackendConnectionError, match="^connection to process worker 0 lost: "):
                slot.client.submit_item(work_item())
        finally:
            slot.close()

    def test_a_worker_killed_mid_window_is_a_connection_error_at_once(self):
        reasoner = cycle_reasoner()
        slot = open_slot(reasoner=reasoner)
        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                pending = pool.submit(slot.client.submit_item, WorkItem(facts=tuple(slow_window())))
                time.sleep(0.2)
                assert not pending.done()  # the worker is still evaluating
                killed = time.monotonic()
                slot.kill()
                with pytest.raises(BackendConnectionError, match="^connection to process worker 0 lost: "):
                    pending.result(timeout=2.0)
                assert time.monotonic() - killed < 2.0
        finally:
            slot.close()
        # The window really is slow: what the worker was killed in the middle of.
        started = time.monotonic()
        expected = answer_sets(reasoner.reason(slow_window()).answers)
        assert time.monotonic() - started >= 0.5
        assert len(next(iter(expected))) == SLOW_CYCLE

    def test_close_is_idempotent(self):
        slot = open_slot()
        slot.close()
        slot.close()
        assert not slot.process.is_alive()
        assert slot.stream.fileno() == -1


class TestProcessBackend:
    def test_the_settable_values_are_max_workers_and_placement(self):
        assert list(inspect.signature(ProcessBackend).parameters) == ["max_workers", "placement"]

    def test_capability_flags(self):
        backend = ProcessBackend()
        assert backend.name == "processes"
        assert backend.uses_placement is True
        assert backend.concurrent is True
        assert backend.pipelined is True

    def test_submit_round_trip(self):
        expected = inline_answers(choice_reasoner(), work_item())
        assert expected and all(expected)
        with ProcessBackend(max_workers=1) as backend:
            backend.start(choice_reasoner())
            result = backend.submit(work_item()).result()
        assert answer_sets(result.answers) == expected

    def test_statistics_survive_close(self):
        backend = ProcessBackend(max_workers=1)
        backend.start(choice_reasoner())
        backend.submit(work_item()).result()
        live = backend.transport_statistics()
        backend.close()
        assert live["items_full"] == 1.0 and live["alive_workers"] == 1.0
        assert backend.transport_statistics() == live
        assert backend.slots is None

    def test_statistics_use_the_tcp_key_names(self):
        with ProcessBackend(max_workers=2) as backend:
            backend.start(choice_reasoner())
            backend.submit(work_item()).result()
            backend.submit(work_item()).result()
            stats = backend.transport_statistics()
        assert set(stats) == {field.name for field in fields(WireStats)} | {"bytes_out", "alive_workers"}
        assert set(stats) <= TRANSPORT_KEYS  # the TCP fleet's series, less its routing counters
        assert stats["items_full"] + stats["items_delta"] == 2.0
        assert stats["symbol_frames"] >= 1.0 and stats["bytes_symbols"] > 0 and stats["bytes_in"] > 0
        assert stats["bytes_out"] == stats["bytes_full"] + stats["bytes_delta"] + stats["bytes_symbols"]
        assert stats["alive_workers"] == 2.0

    @pytest.mark.slow
    def test_abandoned_backend_is_finalized(self):
        backend = ProcessBackend(max_workers=1)
        backend.start(choice_reasoner())
        slots = list(backend.slots)
        del backend
        gc.collect()
        # The weakref.finalize backstop shut every worker down.
        assert all(not slot.process.is_alive() for slot in slots)

    def test_worker_crash_falls_back_inline(self):
        reasoner = choice_reasoner()
        backend = ProcessBackend(max_workers=1)
        window = [make_atom("item", index) for index in range(4)]
        expected = answer_sets(reasoner.reason(window).answers)
        assert expected and all(expected)
        with StreamSession(reasoner, backend=backend) as session:
            healthy = session.evaluate_window(window)
            assert session.fallbacks == 0
            backend.drop_worker(0)
            degraded = session.evaluate_window(window)
            assert session.fallbacks > 0
        assert answer_sets(healthy.answers) == expected
        assert answer_sets(degraded.answers) == expected

    def test_a_worker_killed_mid_window_falls_back_to_rs_answers(self):
        reasoner = cycle_reasoner()
        window = slow_window()
        expected = answer_sets(reasoner.reason(window).answers)
        assert expected and all(expected)
        backend = ProcessBackend(max_workers=1)
        with StreamSession(reasoner, backend=backend) as session:
            session.evaluate_window(window[:3])  # started: the worker is up
            with ThreadPoolExecutor(max_workers=1) as pool:
                evaluation = pool.submit(session.evaluate_window, window)
                time.sleep(0.2)
                assert session.fallbacks == 0
                backend.drop_worker(0)
                degraded = evaluation.result(timeout=30.0)
            assert session.fallbacks == 1
        assert answer_sets(degraded.answers) == expected

    def test_an_undecodable_message_is_reported_then_the_worker_exits(self):
        """A malformed WORK message gets the TCP daemon's answer: a failed RESULT, then close."""
        reasoner = choice_reasoner()
        backend = ProcessBackend(max_workers=1)
        window = [make_atom("item", index) for index in range(4)]
        expected = answer_sets(reasoner.reason(window).answers)
        assert expected and all(expected)
        with StreamSession(reasoner, backend=backend) as session:
            healthy = session.evaluate_window(window)
            slot = backend.slots[0]
            short_header = [(FrameKind.WORK, b"\x00" * 5)]
            with mock.patch.object(DeltaShipper, "encode_frames", lambda self, item: short_header):
                with pytest.raises(BackendError) as raised:
                    session.evaluate_window(window)
            assert type(raised.value) is BackendError  # reported, not a connection error
            assert str(raised.value).startswith("process worker 0 failed: ProtocolError: undecodable WORK frame")
            slot.process.join(timeout=10.0)
            assert not slot.process.is_alive()
            degraded = session.evaluate_window(window)
            assert session.fallbacks == 1
        assert answer_sets(healthy.answers) == expected
        assert answer_sets(degraded.answers) == expected

    def test_a_failed_handshake_fails_the_start_and_reaps_every_worker(self):
        backend = ProcessBackend(max_workers=2)
        spawned = []
        real_init = ProcessSlot.__init__

        def spawn(slot, index):
            real_init(slot, index)
            spawned.append(slot)

        with mock.patch.object(ProcessSlot, "__init__", spawn):
            with mock.patch.object(ProcessSlot, "open", side_effect=BackendConnectionError("no handshake")):
                with pytest.raises(BackendConnectionError):
                    backend.start(choice_reasoner())
        assert backend.slots is None and len(spawned) == 2
        assert all(not slot.process.is_alive() for slot in spawned)


_KILLED_COORDINATOR = textwrap.dedent(
    """
    import os, signal, sys
    from repro.asp.syntax.parser import parse_program
    from repro.streamrule.backends import ProcessBackend
    from repro.streamrule.reasoner import Reasoner

    if __name__ == "__main__":
        backend = ProcessBackend(1)
        backend.start(Reasoner(parse_program("p(X) :- item(X)."), input_predicates=["item"]))
        with open(sys.argv[1], "w") as pid_file:
            pid_file.write(str(backend.slots[0].process.pid))
        os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _gone(pid):
    """No such process, or only its zombie (a reparented child waits for its reaper)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_killed_coordinator_takes_its_worker_with_it(tmp_path):
    script, pid_file = tmp_path / "coordinator.py", tmp_path / "worker.pid"
    script.write_text(_KILLED_COORDINATOR)
    environment = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    # No pipes: an orphaned worker would hold them open, and the run would
    # wait on it instead of failing.
    finished = subprocess.run(
        [sys.executable, str(script), str(pid_file)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60, env=environment,
    )
    assert finished.returncode == -signal.SIGKILL
    worker = int(pid_file.read_text())
    deadline = time.monotonic() + 5.0
    while not _gone(worker) and time.monotonic() < deadline:
        time.sleep(0.05)
    survived = not _gone(worker)
    if survived:
        os.kill(worker, signal.SIGKILL)
    assert not survived, f"process worker {worker} outlived its killed coordinator"
