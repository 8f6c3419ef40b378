"""Tests for the shared-memory byte stream and the SharedMemoryBackend.

The ring/stream layer is tested in-process (a ring does not care who its
writer is); the slot and backend tests spawn real worker processes and
cover the equivalence, crash-fallback, and traffic-accounting contracts.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from unittest import mock

import pytest

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Variable
from repro.streamrule.backends import InlineBackend, SharedMemoryBackend
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
from repro.streamrule.shm import RING_BYTES, ShmRing, ShmSlot
from repro.streamrule.work import WorkItem
from tests.conftest import make_atom
from tests.streamrule.conftest import stream_pair
from tests.streamrule.test_protocol_core import TRANSPORT_KEYS

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

REPO = Path(__file__).resolve().parents[2]


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def work_item(count=3, track=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track)


def open_slot(index=0):
    slot = ShmSlot(index)
    try:
        slot.open(encode_reasoner_spec(choice_reasoner()))
    except BaseException:
        slot.close()
        raise
    return slot


def read_all(stream):
    received = bytearray()
    while chunk := stream.recv(1 << 16):
        received += chunk
    return bytes(received)


class TestShmStream:
    def test_bytes_arrive_in_order_however_they_were_written(self):
        coordinator, worker = stream_pair(64)
        coordinator.sendall(b"first")
        coordinator.sendall(b"second")
        assert worker.recv(3) == b"fir"
        assert worker.recv(100) == b"stsecond"

    def test_wraparound_preserves_bytes(self):
        # Drive the cursors far past the capacity so chunks straddle the
        # data-region edge.
        coordinator, worker = stream_pair(64)
        for round_number in range(50):
            payload = bytes([round_number % 256]) * (round_number % 23 + 1)
            coordinator.sendall(payload)
            assert worker.recv(100) == payload

    def test_a_full_ring_takes_what_fits_until_read(self):
        buffer = memoryview(bytearray(ShmRing.HEADER_BYTES + 64))
        ring = ShmRing(buffer, 0, 64, (threading.Lock(), threading.Semaphore(0), threading.Semaphore(0)), lambda: None)
        assert ring.read(10) is None  # empty and open
        assert ring.write(memoryview(b"x" * 60)) == 60
        assert ring.write(memoryview(b"y" * 10)) == 4
        assert ring.write(memoryview(b"z")) == 0
        assert ring.read(100) == b"x" * 60 + b"y" * 4
        assert ring.write(memoryview(b"z")) == 1

    def test_a_frame_of_any_size_crosses_a_small_ring_byte_identical(self):
        deadline = time.monotonic() + 60.0
        coordinator, worker = stream_pair(64, alive=lambda: time.monotonic() < deadline)
        frame = os.urandom(1 << 20)
        with ThreadPoolExecutor(max_workers=1) as pool:
            received = pool.submit(read_all, worker)
            coordinator.sendall(frame)
            coordinator.close()
            assert received.result(timeout=60) == frame

    def test_both_directions_stay_byte_identical_under_thread_switching(self):
        # Full duplex over 64-byte rings, random chunk sizes, with the
        # interpreter switching threads as often as it can: a lost cursor
        # update would drop, repeat or reorder bytes.  The peers "die" at
        # the deadline, so a lost byte fails the test instead of hanging it.
        deadline = time.monotonic() + 60.0
        coordinator, worker = stream_pair(64, alive=lambda: time.monotonic() < deadline)
        sent = {end: os.urandom(1 << 18) for end in ("coordinator", "worker")}

        def send(stream, data, seed):
            chunks = random.Random(seed)
            offset = 0
            while offset < len(data):
                step = chunks.randint(1, 200)
                stream.sendall(data[offset : offset + step])
                offset += step

        def receive(stream, count):
            received = bytearray()
            while len(received) < count:
                received += stream.recv(97)
            return bytes(received)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                at_worker = pool.submit(receive, worker, len(sent["coordinator"]))
                at_coordinator = pool.submit(receive, coordinator, len(sent["worker"]))
                sends = [pool.submit(send, coordinator, sent["coordinator"], 1), pool.submit(send, worker, sent["worker"], 2)]
                for future in sends:
                    future.result(timeout=60)
                assert at_worker.result(timeout=60) == sent["coordinator"]
                assert at_coordinator.result(timeout=60) == sent["worker"]
        finally:
            sys.setswitchinterval(interval)

    def test_end_of_stream_arrives_after_the_drain(self):
        coordinator, worker = stream_pair(64)
        coordinator.sendall(b"last words")
        coordinator.close()
        assert worker.recv(4) == b"last"
        assert worker.recv(100) == b" words"
        assert worker.recv(100) == b""
        assert worker.recv(100) == b""  # and stays there
        with pytest.raises(BrokenPipeError):
            worker.sendall(b"too late")  # the peer closed both directions

    def test_a_dead_peer_is_a_connection_reset(self):
        coordinator, worker = stream_pair(64, alive=lambda: False)
        coordinator.sendall(b"x" * 64)  # fits: nobody needs to be alive for that
        with pytest.raises(ConnectionResetError, match="worker died mid-conversation"):
            coordinator.sendall(b"y")  # full ring, dead reader
        assert worker.recv(100) == b"x" * 64  # what was written still drains
        with pytest.raises(ConnectionResetError, match="coordinator died mid-conversation"):
            worker.recv(100)
        assert issubclass(ConnectionResetError, OSError)  # what both drivers catch

    def test_empty_sends_move_nothing(self):
        coordinator, worker = stream_pair(64)
        coordinator.sendall(b"")
        coordinator.sendall(b"x")
        assert worker.recv(100) == b"x"


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


class TestShmSlot:
    def test_round_trip_matches_inline(self):
        item = work_item()
        slot = open_slot()
        try:
            over_shm = slot.client.submit_item(item)
        finally:
            slot.close()
        inline = InlineBackend()
        inline.start(choice_reasoner())
        local = inline.submit(item).result()
        assert set(over_shm.answers) == set(local.answers)

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
            with pytest.raises(BackendError, match="^shared-memory worker 0 failed: GroundingError: non-ground fact") as raised:
                slot.client.submit_item(non_ground)  # raised in the worker, reported here
            assert type(raised.value) is BackendError  # not a connection error: no fallback
            unencodable = WorkItem(facts=("not a fact",))  # type: ignore[arg-type]
            with pytest.raises(TypeError, match="no wire encoding"):
                slot.client.submit_item(unencodable)  # refused before it reaches the ring
            assert slot.client.submit_item(work_item()).answers
            assert slot.stats.items == 2
        finally:
            slot.close()

    def test_request_ring_carries_the_tcp_client_bytes(self):
        """The request ring's bytes are those a WorkerClient writes into a socket, handshake included."""
        payload = encode_reasoner_spec(choice_reasoner())
        items = [work_item(count=6), WorkItem(facts=work_item(count=8).facts[2:], epoch=1)]
        slot = ShmSlot(0)
        slot.stream = over_shm = _Recording(slot.stream)
        try:
            slot.open(payload)
            shm_answers = [slot.client.submit_item(item).answers for item in items]
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
        assert shm_answers == tcp_answers
        assert bytes(over_shm.sent) == bytes(over_tcp.sent)
        shipper = DeltaShipper()
        frames = [frame for item in items for frame in shipper.encode_frames(item)]
        assert [kind for kind, _ in frames] == [FrameKind.SYMBOLS, FrameKind.WORK] * 2
        assert bytes(over_shm.sent).endswith(b"".join(frame_bytes(*frame) for frame in frames))

    def test_frames_larger_than_the_ring_cross_in_chunks(self):
        # A fact bigger than a whole ring: its SYMBOLS frame, and the RESULT
        # that interns it twice, cross in chunks; answers must be intact.
        big = make_atom("item", "x" * (RING_BYTES + 4096))
        slot = open_slot()
        try:
            result = slot.client.submit_item(WorkItem(facts=(big,)))
        finally:
            slot.close()
        assert {frozenset(answer) for answer in result.answers} == {
            frozenset({make_atom("picked", "x" * (RING_BYTES + 4096))}),
            frozenset({make_atom("dropped", "x" * (RING_BYTES + 4096))}),
        }
        assert slot.stats.bytes_symbols > RING_BYTES and slot.stats.bytes_in > 2 * RING_BYTES

    def test_dead_worker_raises_connection_error(self):
        slot = open_slot()
        try:
            slot.kill()
            with pytest.raises(BackendConnectionError, match="shared-memory worker 0 died mid-conversation"):
                slot.client.submit_item(work_item())
        finally:
            slot.close()

    def test_close_is_idempotent_and_unlinks(self):
        slot = open_slot()
        name = slot._shm.name
        slot.close()
        slot.close()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)

    def test_ring_size_is_a_module_constant(self):
        slot = ShmSlot(0)
        try:
            assert slot._shm.size >= 2 * (ShmRing.HEADER_BYTES + RING_BYTES)
        finally:
            slot.close()
        assert RING_BYTES == 256 * 1024  # ~64k new facts' ids per write


class TestSharedMemoryBackend:
    def test_capability_flags(self):
        backend = SharedMemoryBackend()
        assert backend.uses_placement is True
        assert backend.concurrent is True
        assert backend.pipelined is True

    def test_submit_round_trip(self):
        with SharedMemoryBackend(max_workers=1) as backend:
            backend.start(choice_reasoner())
            result = backend.submit(work_item()).result()
        assert result.answers

    def test_statistics_survive_close(self):
        backend = SharedMemoryBackend(max_workers=1)
        backend.start(choice_reasoner())
        backend.submit(work_item()).result()
        live = backend.transport_statistics()
        backend.close()
        assert live["items_full"] == 1.0 and live["alive_workers"] == 1.0
        assert backend.transport_statistics() == live
        assert backend.slots is None

    def test_statistics_use_the_tcp_key_names(self):
        with SharedMemoryBackend(max_workers=2) as backend:
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
        backend = SharedMemoryBackend(max_workers=1)
        backend.start(choice_reasoner())
        slots = list(backend.slots)
        del backend
        gc.collect()
        # The weakref.finalize backstop shut every worker down.
        assert all(not slot.process.is_alive() for slot in slots)

    def test_worker_crash_falls_back_inline(self):
        reasoner = choice_reasoner()
        backend = SharedMemoryBackend(max_workers=1)
        window = [make_atom("item", index) for index in range(4)]
        with StreamSession(reasoner, backend=backend) as session:
            healthy = session.evaluate_window(window)
            assert session.fallbacks == 0
            backend.drop_worker(0)
            degraded = session.evaluate_window(window)
            assert session.fallbacks > 0
        assert {frozenset(a) for a in healthy.answers} == {frozenset(a) for a in degraded.answers}

    def test_an_undecodable_message_is_reported_then_the_worker_exits(self):
        """A malformed WORK message gets the TCP daemon's answer: a failed RESULT, then close."""
        backend = SharedMemoryBackend(max_workers=1)
        window = [make_atom("item", index) for index in range(4)]
        with StreamSession(choice_reasoner(), backend=backend) as session:
            healthy = session.evaluate_window(window)
            slot = backend.slots[0]
            short_header = [(FrameKind.WORK, b"\x00" * 5)]
            with mock.patch.object(DeltaShipper, "encode_frames", lambda self, item: short_header):
                with pytest.raises(BackendError) as raised:
                    session.evaluate_window(window)
            assert type(raised.value) is BackendError  # reported, not a connection error
            assert str(raised.value).startswith("shared-memory worker 0 failed: ProtocolError: undecodable WORK frame")
            slot.process.join(timeout=10.0)
            assert not slot.process.is_alive()
            degraded = session.evaluate_window(window)
            assert session.fallbacks == 1
        assert {frozenset(a) for a in healthy.answers} == {frozenset(a) for a in degraded.answers}

    def test_a_failed_handshake_fails_the_start_and_reaps_every_worker(self):
        backend = SharedMemoryBackend(max_workers=2)
        spawned = []
        real_init = ShmSlot.__init__

        def spawn(slot, index):
            real_init(slot, index)
            spawned.append(slot)

        with mock.patch.object(ShmSlot, "__init__", spawn):
            with mock.patch.object(ShmSlot, "open", side_effect=BackendConnectionError("no handshake")):
                with pytest.raises(BackendConnectionError):
                    backend.start(choice_reasoner())
        assert backend.slots is None and len(spawned) == 2
        assert all(not slot.process.is_alive() for slot in spawned)


_KILLED_COORDINATOR = textwrap.dedent(
    """
    import os, signal, sys
    from repro.asp.syntax.parser import parse_program
    from repro.streamrule.backends import SharedMemoryBackend
    from repro.streamrule.reasoner import Reasoner

    if __name__ == "__main__":
        backend = SharedMemoryBackend(1)
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
    assert not survived, f"shared-memory worker {worker} outlived its killed coordinator"
