"""Tests for the shared-memory rings and the SharedMemoryBackend.

The ring/channel layer is tested in-process (a ring does not care who its
writer is); the backend tests spawn real worker processes and cover the
equivalence, crash-fallback, and traffic-accounting contracts.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle
import threading
from multiprocessing.shared_memory import SharedMemory

import pytest

from repro.asp.errors import GroundingError
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Variable
from repro.streamrule.backends import InlineBackend, SharedMemoryBackend
from repro.streamrule.errors import BackendConnectionError
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.net import DeltaShipper, FrameKind
from repro.streamrule.shm import DEFAULT_RING_CAPACITY, K_SHUTDOWN, ShmRing, ShmSlot
from repro.streamrule.work import WorkItem
from tests.conftest import make_atom

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def work_item(count=3, track=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track)


@pytest.fixture
def ring():
    shm = SharedMemory(create=True, size=ShmRing.CURSOR_BYTES + 64)
    try:
        yield ShmRing(shm, 0, 64, threading.Lock())
    finally:
        shm.close()
        shm.unlink()


class TestShmRing:
    def test_fifo_round_trip(self, ring):
        assert ring.try_read() is None
        assert ring.try_write(b"first")
        assert ring.try_write(b"second")
        assert ring.try_read() == b"first"
        assert ring.try_read() == b"second"
        assert ring.try_read() is None

    def test_wraparound_preserves_frames(self, ring):
        # Drive the cursors far past the capacity so frames straddle the
        # data-region edge in both the length prefix and the payload.
        for round_number in range(50):
            payload = bytes([round_number % 256]) * (round_number % 23 + 1)
            assert ring.try_write(payload)
            assert ring.try_read() == payload

    def test_full_ring_refuses_writes_until_read(self, ring):
        payload = b"x" * 28  # 2 frames of 32 bytes fill the 64-byte ring
        assert ring.try_write(payload)
        assert ring.try_write(payload)
        assert not ring.try_write(b"y")
        assert ring.try_read() == payload
        assert ring.try_write(b"y")

    def test_never_fitting_frame_is_rejected_loudly(self, ring):
        assert not ring.fits(65)
        with pytest.raises(ValueError):
            ring.try_write(b"z" * 65)

    def test_empty_payload_frames(self, ring):
        assert ring.try_write(b"")
        assert ring.try_read() == b""


class TestShmSlot:
    def test_round_trip_matches_inline(self):
        item = work_item()
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        try:
            over_shm = slot.roundtrip(item)
        finally:
            slot.close()
        inline = InlineBackend()
        inline.start(choice_reasoner())
        local = inline.submit(item).result()
        assert set(over_shm.answers) == set(local.answers)

    def test_steady_state_windows_sync_no_new_symbols(self):
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        try:
            slot.roundtrip(work_item())
            first_syncs = slot.stats.symbols_out
            slot.roundtrip(work_item())  # identical facts: all interned
            assert first_syncs == 1
            assert slot.stats.symbols_out == 1
            assert slot.stats.items == 2
        finally:
            slot.close()

    def test_worker_side_exception_propagates_and_slot_survives(self):
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        try:
            non_ground = WorkItem(facts=(Atom("item", (Variable("X"),)),))
            with pytest.raises(GroundingError, match="non-ground fact"):
                slot.roundtrip(non_ground)  # raised in the worker, re-raised here
            unencodable = WorkItem(facts=("not a fact",))  # type: ignore[arg-type]
            with pytest.raises(TypeError, match="no wire encoding"):
                slot.roundtrip(unencodable)  # refused before it reaches the ring
            assert slot.roundtrip(work_item()).answers
            assert slot.stats.items == 2
        finally:
            slot.close()

    def test_ring_messages_are_the_wire_frames(self):
        """The request ring carries exactly the frames a TCP client would send."""
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        sent = []
        ring_send = slot._request.send

        def recording_send(kind, body=b""):
            sent.append((kind, body))
            ring_send(kind, body)

        slot._request.send = recording_send
        items = [work_item(count=6), WorkItem(facts=work_item(count=8).facts[2:], epoch=1)]
        try:
            for item in items:
                slot.roundtrip(item)
        finally:
            slot.close()
        shipper = DeltaShipper()
        expected = [frame for item in items for frame in shipper.encode_frames(item)]
        assert [kind for kind, _ in expected] == [FrameKind.SYMBOLS, FrameKind.WORK] * 2
        assert sent == expected + [(K_SHUTDOWN, b"")]

    def test_oversize_message_takes_the_pipe_side_door(self):
        # A ring too small for the symbol sync (and the result) forces the
        # oversize path; results must still be correct.
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()), capacity=64)
        try:
            result = slot.roundtrip(work_item(count=4))
            assert result.answers
            assert slot.stats.oversizes > 0
        finally:
            slot.close()

    def test_dead_worker_raises_connection_error(self):
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        try:
            slot.kill()
            with pytest.raises(BackendConnectionError):
                slot.roundtrip(work_item())
        finally:
            slot.close()

    def test_close_is_idempotent_and_unlinks(self):
        slot = ShmSlot(0, pickle.dumps(choice_reasoner()))
        name = slot._shm.name
        slot.close()
        slot.close()
        with pytest.raises(FileNotFoundError):
            SharedMemory(name=name)


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
        live = backend.shm_statistics()
        backend.close()
        assert live["items"] == 1.0
        assert backend.shm_statistics()["items"] == 1.0
        assert backend.slots is None

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

    def test_default_ring_capacity_is_sensible(self):
        assert SharedMemoryBackend().ring_capacity == DEFAULT_RING_CAPACITY
