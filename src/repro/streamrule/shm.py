"""Zero-copy same-host dispatch over shared-memory rings.

The :class:`~repro.streamrule.backends.SharedMemoryBackend` transport: one
pinned worker *process* per slot, reached not through a socket but through
a pair of one-writer/one-reader byte rings in a single
:class:`multiprocessing.shared_memory.SharedMemory` segment -- the request
ring carries coordinator -> worker bytes, the response ring the reverse.

The two rings are one byte stream, and :class:`ShmStream` is an end of it
shaped like a connected socket (``recv``, ``sendall``, ``close``).  So the
stream carries the TCP wire byte for byte: the coordinator's slot is a
:class:`~repro.streamrule.net.WorkerClient` opened over it, which runs the
whole ``MAGIC`` .. ``READY`` handshake and ships ``SYMBOLS`` + ``WORK``
frames of id runs, and the worker process is
:func:`~repro.streamrule.net.serve_worker_connection` over the other end,
the TCP daemon's own driver, answering with ``RESULT`` frames.  This module
holds no protocol: only the segment, the stream and the process lifecycle.
In steady state (a sliding window whose facts were all seen before) a
window therefore crosses the process boundary as a few id runs written
straight into shared memory: no pickling, no kernel socket copy.

Layout and flow control
-----------------------
Each ring is ``[tail u64][head u64][closed u64][data...]`` -- absolute
monotonic byte counters (reduced mod capacity only for addressing), so
``tail - head`` is the bytes in flight and the full/empty cases never
alias, plus the flag either end sets when it closes the stream.  The
reader sees end of stream once the ring is drained and closed; a writer to
a closed ring gets :class:`BrokenPipeError`.  A frame larger than the ring
simply crosses it in chunks.  Each ring is guarded by a cross-process lock;
blocking waits use a data/space pair of counting semaphores per ring, and
every wait, for a semaphore or the lock, has a short poll timeout, so it
also notices a dead peer and raises
:class:`ConnectionResetError` -- an :class:`OSError`, which both drivers
already treat as a lost connection.  The coordinator's peer is the
worker process; the worker's is its parent, so a killed coordinator takes
its workers with it.

Workers are started with the ``spawn`` context deliberately: a spawned
child is a fresh interpreter with a *different* ``PYTHONHASHSEED`` and its
own canonical terms, which is exactly the condition under which shipping
object identities or hashes, or relying on hash-ordered iteration, would
break.  The child receives the reasoner in the handshake's ``REASONER``
frame -- its program as text
(:func:`~repro.streamrule.codec.encode_reasoner_spec`) -- and parses it, so
it holds its own canonical objects; the backend doubles as a continuous
regression test for that.
"""

from __future__ import annotations

import multiprocessing
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.streamrule.net import WireStats, WorkerClient, serve_worker_connection

__all__ = [
    "RING_BYTES",
    "ShmRing",
    "ShmSlot",
    "ShmStream",
    "peer_check",
]

#: Data capacity of each ring.  A frame of any size crosses in chunks, so
#: this only bounds how far a writer runs ahead of its reader: 256 KiB
#: holds a window of ~64k new facts' ids (4 bytes each) in one write.
RING_BYTES = 256 * 1024

_HEADER = struct.Struct("<QQQ")  # (tail, head, closed)

#: How long each blocking ring wait sleeps before re-checking the ring and
#: the peer's liveness.
_POLL_INTERVAL = 0.05


class ShmRing:
    """One end's view of a one-writer, one-reader byte ring in a shared-memory ``buffer``.

    The ring occupies ``HEADER_BYTES + capacity`` bytes at ``offset``: the
    ``(tail, head, closed)`` header followed by the data region.  Cursors
    are absolute byte counts; the writer advances ``tail``, the reader
    ``head``, and both reductions mod ``capacity`` happen only when
    addressing the data region -- a chunk wraps around the region edge as
    two slices.  ``sync`` is the ring's ``(lock, data bell, space bell)``:
    the lock serializes header updates across the two processes, and the
    bells are counting semaphores the writer rings after writing and the
    reader after reading.  A semaphore is released without ever blocking,
    so a peer killed mid-wait cannot wedge this end, as it can a
    :class:`multiprocessing.Event`.  Every wait first calls ``check_peer``,
    which raises :class:`ConnectionResetError` once the peer is dead.
    """

    HEADER_BYTES = _HEADER.size

    def __init__(
        self, buffer: memoryview, offset: int, capacity: int, sync: Tuple[Any, Any, Any], check_peer: Callable[[], None]
    ):
        self._buffer = buffer
        self._offset = offset
        self._data = offset + self.HEADER_BYTES
        self.capacity = capacity
        self._lock, self._data_bell, self._space_bell = sync
        self._check_peer = check_peer

    def write(self, data: memoryview) -> int:
        """Append what fits of ``data``; returns how many bytes that was.

        Raises :class:`BrokenPipeError` once the ring is closed.
        """
        with self._locked():
            tail, head, closed = _HEADER.unpack_from(self._buffer, self._offset)
            if closed:
                raise BrokenPipeError("shared-memory stream is closed")
            count = min(len(data), self.capacity - (tail - head))
            if count:
                self._put(tail, data[:count])
                _HEADER.pack_into(self._buffer, self._offset, tail + count, head, closed)
        if count:
            self._data_bell.release()
        return count

    def read(self, limit: int) -> Optional[bytes]:
        """Pop up to ``limit`` bytes; ``b""`` at end of stream, ``None`` while empty and open."""
        with self._locked():
            tail, head, closed = _HEADER.unpack_from(self._buffer, self._offset)
            count = min(limit, tail - head)
            if not count:
                return b"" if closed else None
            data = self._get(head, count)
            _HEADER.pack_into(self._buffer, self._offset, tail, head + count, closed)
        self._space_bell.release()
        return data

    def close(self) -> None:
        """Set the closed flag and wake both ends."""
        try:
            with self._locked():
                tail, head, _ = _HEADER.unpack_from(self._buffer, self._offset)
                _HEADER.pack_into(self._buffer, self._offset, tail, head, 1)
        except ConnectionResetError:
            pass  # the peer died holding the lock: nobody is left to tell
        self._data_bell.release()
        self._space_bell.release()

    def await_data(self) -> None:
        """Wait (one poll interval at most) for the writer to write or close."""
        self._await(self._data_bell)

    def await_space(self) -> None:
        """Wait (one poll interval at most) for the reader to read or close."""
        self._await(self._space_bell)

    def _await(self, bell: Any) -> None:
        self._check_peer()
        if bell.acquire(True, _POLL_INTERVAL):
            while bell.acquire(False):  # one wake-up answers every ring since the last
                pass

    @contextmanager
    def _locked(self) -> Iterator[None]:
        # A peer killed while holding the lock never releases it.
        while not self._lock.acquire(True, _POLL_INTERVAL):
            self._check_peer()
        try:
            yield
        finally:
            self._lock.release()

    # -- raw data-region access (cursor already validated by the caller) -- #
    def _put(self, cursor: int, data: memoryview) -> None:
        start = cursor % self.capacity
        end = start + len(data)
        if end <= self.capacity:
            self._buffer[self._data + start : self._data + end] = data
        else:
            split = self.capacity - start
            self._buffer[self._data + start : self._data + self.capacity] = data[:split]
            self._buffer[self._data : self._data + end - self.capacity] = data[split:]

    def _get(self, cursor: int, length: int) -> bytes:
        start = cursor % self.capacity
        end = start + length
        if end <= self.capacity:
            return bytes(self._buffer[self._data + start : self._data + end])
        split = self.capacity - start
        return bytes(self._buffer[self._data + start : self._data + self.capacity]) + bytes(
            self._buffer[self._data : self._data + end - self.capacity]
        )


def peer_check(alive: Callable[[], bool], peer: str) -> Callable[[], None]:
    """A ``check_peer`` for :class:`ShmRing`: raises :class:`ConnectionResetError` naming ``peer`` once it is dead."""

    def check() -> None:
        if not alive():
            raise ConnectionResetError(f"{peer} died mid-conversation")

    return check


class ShmStream:
    """One end of a shared-memory byte stream, shaped like a connected socket.

    Reads ``inbound`` and writes ``outbound``, this end's views of the two
    rings.  :meth:`recv` blocks until it has bytes, end of stream (``b""``)
    or a dead peer; :meth:`sendall` blocks while the ring is full; a dead
    peer raises :class:`ConnectionResetError`.  :meth:`close` closes both
    directions.
    """

    def __init__(self, inbound: ShmRing, outbound: ShmRing):
        self._inbound = inbound
        self._outbound = outbound

    def recv(self, bufsize: int) -> bytes:
        while (data := self._inbound.read(bufsize)) is None:
            self._inbound.await_data()
        return data

    def sendall(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            written = self._outbound.write(view)
            if written:
                view = view[written:]
            else:
                self._outbound.await_space()

    def close(self) -> None:
        self._inbound.close()
        self._outbound.close()


@dataclass(frozen=True)
class _SlotWiring:
    """Everything a spawned worker needs to attach to its slot.

    Picklable through :class:`multiprocessing.Process` args: the segment
    *name* (the child re-attaches by name) and each ring's context-created
    ``(lock, data bell, space bell)``, which multiprocessing ships by
    inheritance.
    """

    segment: str
    request: Tuple[Any, Any, Any]
    response: Tuple[Any, Any, Any]

    def end(self, shm: SharedMemory, check_peer: Callable[[], None], *, worker: bool) -> ShmStream:
        """The worker's or the coordinator's end of the stream over ``shm``."""
        request = ShmRing(shm.buf, 0, RING_BYTES, self.request, check_peer)
        response = ShmRing(shm.buf, ShmRing.HEADER_BYTES + RING_BYTES, RING_BYTES, self.response, check_peer)
        return ShmStream(request, response) if worker else ShmStream(response, request)


def _serve_worker(wiring: _SlotWiring) -> None:
    """Worker-process entry point: the TCP daemon's driver over the slot's stream.

    Module-level so the ``spawn`` context can start the target.  Returns,
    and the process exits, once the coordinator closes the stream or dies.
    """
    # Attaching registers the segment with the resource tracker a second
    # time; the tracker's cache is a set, so the duplicate collapses into
    # the coordinator's own registration and the coordinator's unlink
    # clears it exactly once.  (Until 3.13's ``track=False`` there is no
    # way to attach untracked; unregistering here would instead steal the
    # coordinator's registration.)  The segment stays mapped until the
    # process exits: the connection's reader thread may still be reading.
    shm = SharedMemory(name=wiring.segment)
    parent = multiprocessing.parent_process()
    assert parent is not None
    serve_worker_connection(wiring.end(shm, peer_check(parent.is_alive, "coordinator"), worker=True))


class ShmSlot:
    """One pinned shared-memory worker: segment, byte stream, process, client.

    The constructor spawns the worker and returns at once; :meth:`open`
    then runs the handshake over the stream, as :attr:`client`.  A backend
    spawns every slot before it opens any, so the workers' start-ups
    overlap.
    """

    def __init__(self, index: int):
        ctx = multiprocessing.get_context("spawn")
        self.index = index
        self._shm = SharedMemory(create=True, size=2 * (ShmRing.HEADER_BYTES + RING_BYTES))
        wiring = _SlotWiring(
            segment=self._shm.name,
            request=(ctx.Lock(), ctx.Semaphore(0), ctx.Semaphore(0)),
            response=(ctx.Lock(), ctx.Semaphore(0), ctx.Semaphore(0)),
        )
        self.process = ctx.Process(
            target=_serve_worker, args=(wiring,), name=f"shm-worker-{index}", daemon=True
        )
        self.process.start()
        self.peer = f"shared-memory worker {index}"
        self.stream = wiring.end(self._shm, peer_check(self.process.is_alive, self.peer), worker=False)
        self.client: Optional[WorkerClient] = None
        self._closed = False

    def open(self, reasoner_payload: bytes) -> None:
        """Handshake with the worker; the slot's traffic then goes through :attr:`client`."""
        self.client = WorkerClient.over_stream(
            self.stream, reasoner_payload, ("shared-memory", self.index), peer=self.peer
        )

    @property
    def stats(self) -> WireStats:
        """The slot's traffic counters (zero until :meth:`open`)."""
        return self.client.stats if self.client is not None else WireStats()

    # -- fault injection / lifecycle ------------------------------------- #
    def kill(self) -> None:
        """Fault injection: hard-kill the worker process (tests the fallback)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)

    def close(self) -> None:
        """Close the stream (the worker's cue to exit), reap the worker, unlink the segment."""
        if self._closed:
            return
        self._closed = True
        if self.client is not None:
            self.client.close()
        self.stream.close()
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):
            pass
