"""Zero-copy same-host dispatch over shared-memory rings.

The :class:`~repro.streamrule.backends.SharedMemoryBackend` transport: one
pinned worker *process* per slot, reached not through a pickled-object pipe
but through a pair of one-writer/one-reader byte rings in a single
:class:`multiprocessing.shared_memory.SharedMemory` segment -- the request
ring carries coordinator -> worker messages, the response ring the reverse.

What crosses the rings is the interned-id representation of the work, not
pickled atoms.  Each direction has exactly one writer, and that writer owns
the master :class:`~repro.asp.syntax.symbols.SymbolTable` of the direction:

* the coordinator interns the window's facts into the slot's *request*
  table and prepends a ``K_SYMBOLS`` message (a pickled
  :class:`~repro.asp.syntax.symbols.SymbolDelta` of the unsynced tail)
  whenever new symbols appeared; the ``K_WORK`` message itself is a fixed
  12-byte header plus a packed u32 id array -- no pickling of facts;
* the worker resolves the ids against its replica, evaluates, and answers
  symmetrically: answer atoms are interned into the *response* table, the
  unsynced tail travels as ``K_SYMBOLS`` ahead of the ``K_RESULT`` message,
  and the answer sets themselves are packed id arrays.

In steady state (a sliding window whose facts were all seen before) a
window therefore crosses the process boundary as ``4 bytes x |window|``
written straight into shared memory: no pickling, no kernel socket copy.

Layout and flow control
-----------------------
Each ring is ``[tail u64][head u64][data...]`` -- absolute monotonic byte
counters (reduced mod capacity only for addressing), so ``tail - head`` is
the bytes in flight and the full/empty cases never alias.  Writes and reads
are guarded by a per-ring cross-process lock; blocking waits use a
data/space :class:`multiprocessing.Event` pair per ring with a short poll
timeout, so each wait also notices a dead peer (:meth:`Process.is_alive`)
and raises :class:`~repro.streamrule.errors.BackendConnectionError` -- the
signal the session answers with its inline fallback.

A message larger than the ring cannot ever fit; it takes the *oversize*
side door: a two-byte ``K_OVERSIZE`` marker goes through the ring (keeping
message order defined by ring order) and the body through a duplex
:func:`multiprocessing.Pipe` -- the pickling fallback that keeps rare huge
windows correct without sizing every ring for the worst case.

Workers are started with the ``spawn`` context deliberately: a spawned
child is a fresh interpreter with a *different* ``PYTHONHASHSEED`` and its
own canonical terms, which is exactly the condition under which shipping
object identities or hashes, or relying on hash-ordered iteration, would
break.  Unpickling goes through the term constructors (see
:mod:`repro.asp.syntax.terms`), so the child holds its own canonical
objects; the backend doubles as a continuous regression test for that.
"""

from __future__ import annotations

import multiprocessing
import pickle
import struct
from dataclasses import dataclass
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Optional, Tuple

from repro.asp.syntax.symbols import SymbolTable, pack_ids, unpack_ids
from repro.streamrule.errors import BackendConnectionError, ProtocolError
from repro.streamrule.net import RemoteFailure
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.work import WorkItem

__all__ = [
    "DEFAULT_RING_CAPACITY",
    "ShmRing",
    "ShmSlot",
    "ShmSlotStats",
]

#: Default per-ring data capacity in bytes.  A steady-state window costs
#: ``4 x |window|`` bytes, so 256 KiB rings absorb ~64k-fact windows
#: without touching the oversize path.
DEFAULT_RING_CAPACITY = 256 * 1024

# Message kinds (first payload byte).  Both directions share the numbering.
K_SYMBOLS = 1  #: pickled SymbolDelta extending the direction's table
K_WORK = 2  #: coordinator -> worker: work header + packed fact ids
K_RESULT = 3  #: worker -> coordinator: pickled (answer id blobs, metrics)
K_FAILURE = 4  #: worker -> coordinator: pickled RemoteFailure
K_SHUTDOWN = 5  #: coordinator -> worker: clean exit request
K_OVERSIZE = 6  #: marker: real kind in byte 2, body follows on the pipe

_CURSORS = struct.Struct("<QQ")  # (tail, head) absolute monotonic counters
_LENGTH = struct.Struct("<I")  # per-frame length prefix
#: ``K_WORK`` body header: track (i64), epoch (i64), incremental flag
#: (-1 unset / 0 false / 1 true); the packed id array follows.
_WORK_HEADER = struct.Struct("<qqb")

#: How long each blocking ring wait sleeps before re-checking the ring and
#: the peer's liveness.
_POLL_INTERVAL = 0.05


class ShmRing:
    """A one-writer, one-reader byte ring inside a shared-memory segment.

    The ring occupies ``CURSOR_BYTES + capacity`` bytes at ``offset``:
    a ``(tail, head)`` cursor pair followed by the data region.  Cursors
    are absolute byte counts; the writer advances ``tail``, the reader
    ``head``, and both reductions mod ``capacity`` happen only when
    addressing the data region -- frames wrap around the region edge as two
    slices, so no padding rule is needed.  ``lock`` serializes cursor
    updates across the two processes.
    """

    CURSOR_BYTES = _CURSORS.size

    def __init__(self, shm: SharedMemory, offset: int, capacity: int, lock: Any):
        if capacity <= _LENGTH.size:
            raise ValueError("ring capacity must exceed the frame length prefix")
        self._buffer = shm.buf
        self._offset = offset
        self._data = offset + self.CURSOR_BYTES
        self.capacity = capacity
        self._lock = lock

    def fits(self, payload_length: int) -> bool:
        """Whether a payload of this size can *ever* fit in the ring."""
        return _LENGTH.size + payload_length <= self.capacity

    def try_write(self, payload: bytes) -> bool:
        """Append one frame; ``False`` when the ring lacks space right now."""
        needed = _LENGTH.size + len(payload)
        if needed > self.capacity:
            raise ValueError(f"frame of {len(payload)} bytes can never fit a {self.capacity}-byte ring")
        with self._lock:
            tail, head = _CURSORS.unpack_from(self._buffer, self._offset)
            if self.capacity - (tail - head) < needed:
                return False
            self._put(tail, _LENGTH.pack(len(payload)))
            self._put(tail + _LENGTH.size, payload)
            _CURSORS.pack_into(self._buffer, self._offset, tail + needed, head)
        return True

    def try_read(self) -> Optional[bytes]:
        """Pop the oldest frame; ``None`` when the ring is empty."""
        with self._lock:
            tail, head = _CURSORS.unpack_from(self._buffer, self._offset)
            if tail == head:
                return None
            (length,) = _LENGTH.unpack(self._get(head, _LENGTH.size))
            payload = self._get(head + _LENGTH.size, length)
            _CURSORS.pack_into(self._buffer, self._offset, tail, head + _LENGTH.size + length)
        return payload

    # -- raw data-region access (cursor already validated by the caller) -- #
    def _put(self, cursor: int, data: bytes) -> None:
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


class _RingChannel:
    """Blocking message send/receive over one ring direction.

    Wraps a :class:`ShmRing` with its data/space event pair, the oversize
    pipe, and a peer-liveness probe.  Messages are ``(kind, body)``; the
    kind travels as the first payload byte.  A body the ring can never hold
    is routed through the pipe behind a ``K_OVERSIZE`` ring marker -- the
    marker goes first so the ring alone defines message order.
    """

    def __init__(
        self,
        ring: ShmRing,
        data_event: Any,
        space_event: Any,
        pipe: Any,
        alive: Callable[[], bool],
        peer: str,
    ):
        self._ring = ring
        self._data_event = data_event
        self._space_event = space_event
        self._pipe = pipe
        self._alive = alive
        self._peer = peer

    def send(self, kind: int, body: bytes = b"") -> None:
        if not self._ring.fits(1 + len(body)):
            self._ring_send(bytes((K_OVERSIZE, kind)))
            self._pipe.send_bytes(body)
            return
        self._ring_send(bytes((kind,)) + body)

    def receive(self) -> Tuple[int, bytes]:
        while True:
            payload = self._ring.try_read()
            if payload is not None:
                self._space_event.set()
                if payload[0] == K_OVERSIZE:
                    return payload[1], self._pipe.recv_bytes()
                return payload[0], payload[1:]
            if not self._alive():
                raise BackendConnectionError(f"shared-memory {self._peer} died mid-conversation")
            self._data_event.wait(_POLL_INTERVAL)
            self._data_event.clear()

    def _ring_send(self, frame: bytes) -> None:
        while not self._ring.try_write(frame):
            if not self._alive():
                raise BackendConnectionError(f"shared-memory {self._peer} died mid-conversation")
            self._space_event.wait(_POLL_INTERVAL)
            self._space_event.clear()
        self._data_event.set()


@dataclass(frozen=True)
class _SlotWiring:
    """Everything a spawned worker needs to attach to its slot.

    Picklable through :class:`multiprocessing.Process` args: the segment
    *name* (the child re-attaches by name), the ring capacity, and the
    context-created locks/events/pipe end, which multiprocessing ships by
    inheritance.
    """

    segment: str
    capacity: int
    request_lock: Any
    response_lock: Any
    request_data: Any
    request_space: Any
    response_data: Any
    response_space: Any
    pipe: Any


def _encode_work(item: WorkItem, ids: Tuple[int, ...]) -> bytes:
    flag = -1 if item.incremental is None else int(bool(item.incremental))
    return _WORK_HEADER.pack(item.track, item.epoch, flag) + pack_ids(ids)


def _decode_work(body: bytes, table: SymbolTable) -> WorkItem:
    track, epoch, flag = _WORK_HEADER.unpack_from(body)
    facts = table.resolve_many(unpack_ids(body[_WORK_HEADER.size :]))
    return WorkItem(facts=facts, track=track, epoch=epoch, incremental=None if flag < 0 else bool(flag))


def _serve_shm_worker(wiring: _SlotWiring, payload: bytes) -> None:
    """Worker-process loop: resolve ids, evaluate, answer in ids.

    Module-level so the ``spawn`` context can pickle the target.  Holds the
    replica of the coordinator's request table and the *master* response
    table (this process is the response ring's only writer).
    """
    # Attaching registers the segment with the resource tracker a second
    # time; the tracker's cache is a set, so the duplicate collapses into
    # the coordinator's own registration and the coordinator's unlink
    # clears it exactly once.  (Until 3.13's ``track=False`` there is no
    # way to attach untracked; unregistering here would instead steal the
    # coordinator's registration.)
    shm = SharedMemory(name=wiring.segment)
    ring_span = ShmRing.CURSOR_BYTES + wiring.capacity
    request = _RingChannel(
        ShmRing(shm, 0, wiring.capacity, wiring.request_lock),
        wiring.request_data,
        wiring.request_space,
        wiring.pipe,
        alive=lambda: True,  # a dying coordinator takes this daemon with it
        peer="coordinator",
    )
    response = _RingChannel(
        ShmRing(shm, ring_span, wiring.capacity, wiring.response_lock),
        wiring.response_data,
        wiring.response_space,
        wiring.pipe,
        alive=lambda: True,
        peer="coordinator",
    )
    reasoner: Reasoner = pickle.loads(payload)
    request_table = SymbolTable()  # replica of the coordinator's master
    response_table = SymbolTable()  # master; the coordinator replicates
    synced = 0
    try:
        while True:
            kind, body = request.receive()
            if kind == K_SHUTDOWN:
                return
            if kind == K_SYMBOLS:
                request_table.apply(pickle.loads(body))
                continue
            if kind != K_WORK:
                return  # protocol violation: die; the coordinator reroutes
            try:
                item = _decode_work(body, request_table)
                result = reasoner.reason_item(item)
                answer_blobs = tuple(
                    pack_ids(tuple(response_table.intern_many(answer))) for answer in result.answers
                )
                sync = response_table.diff_since(synced)
                if sync:
                    response.send(K_SYMBOLS, pickle.dumps(sync, protocol=pickle.HIGHEST_PROTOCOL))
                    synced = sync.stop
                response.send(
                    K_RESULT,
                    pickle.dumps((answer_blobs, result.metrics), protocol=pickle.HIGHEST_PROTOCOL),
                )
            except BaseException as error:  # noqa: BLE001 - shipped back to the caller
                try:
                    failure = pickle.dumps(RemoteFailure(error), protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as pickling_error:  # noqa: BLE001 - unpicklable exceptions too
                    failure = pickle.dumps(
                        RemoteFailure(
                            BackendConnectionError(
                                f"unpicklable worker failure ({pickling_error!r}): {error!r}"
                            )
                        ),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                response.send(K_FAILURE, failure)
    finally:
        shm.close()


@dataclass
class ShmSlotStats:
    """Per-slot traffic counters (ring payload bytes, excluding framing)."""

    items: int = 0  #: work round trips completed
    symbols_out: int = 0  #: request-table sync messages sent
    symbols_in: int = 0  #: response-table sync messages received
    bytes_out: int = 0  #: request-direction message bytes
    bytes_in: int = 0  #: response-direction message bytes
    oversizes: int = 0  #: messages that took the pipe side door

    def merged_with(self, other: "ShmSlotStats") -> "ShmSlotStats":
        return ShmSlotStats(
            items=self.items + other.items,
            symbols_out=self.symbols_out + other.symbols_out,
            symbols_in=self.symbols_in + other.symbols_in,
            bytes_out=self.bytes_out + other.bytes_out,
            bytes_in=self.bytes_in + other.bytes_in,
            oversizes=self.oversizes + other.oversizes,
        )


class ShmSlot:
    """One pinned shared-memory worker: segment, rings, process, tables.

    The coordinator side of a slot.  :meth:`roundtrip` is *not* thread-safe
    -- the backend serializes calls through a single-thread dispatcher per
    slot, which is also what preserves per-track ordering (and with it
    per-track cache continuity).
    """

    def __init__(
        self,
        index: int,
        payload: bytes,
        *,
        capacity: int = DEFAULT_RING_CAPACITY,
        context: Optional[multiprocessing.context.BaseContext] = None,
    ):
        ctx = context if context is not None else multiprocessing.get_context("spawn")
        ring_span = ShmRing.CURSOR_BYTES + capacity
        self.index = index
        self.stats = ShmSlotStats()
        self._shm = SharedMemory(create=True, size=2 * ring_span)
        self._shm.buf[:2 * ShmRing.CURSOR_BYTES] = bytes(2 * ShmRing.CURSOR_BYTES)  # defensive zeroing
        self._shm.buf[ring_span : ring_span + ShmRing.CURSOR_BYTES] = bytes(ShmRing.CURSOR_BYTES)
        coordinator_pipe, worker_pipe = ctx.Pipe(duplex=True)
        self._pipe = coordinator_pipe
        wiring = _SlotWiring(
            segment=self._shm.name,
            capacity=capacity,
            request_lock=ctx.Lock(),
            response_lock=ctx.Lock(),
            request_data=ctx.Event(),
            request_space=ctx.Event(),
            response_data=ctx.Event(),
            response_space=ctx.Event(),
            pipe=worker_pipe,
        )
        self.process = ctx.Process(
            target=_serve_shm_worker,
            args=(wiring, payload),
            name=f"shm-worker-{index}",
            daemon=True,
        )
        self.process.start()
        worker_pipe.close()  # the child holds its own handle now
        alive = self.process.is_alive
        self._request = _RingChannel(
            ShmRing(self._shm, 0, capacity, wiring.request_lock),
            wiring.request_data,
            wiring.request_space,
            coordinator_pipe,
            alive=alive,
            peer=f"worker {index}",
        )
        self._response = _RingChannel(
            ShmRing(self._shm, ring_span, capacity, wiring.response_lock),
            wiring.response_data,
            wiring.response_space,
            coordinator_pipe,
            alive=alive,
            peer=f"worker {index}",
        )
        self._table = SymbolTable()  # master; the worker replicates
        self._synced = 0
        self._answer_table = SymbolTable()  # replica of the worker's master
        self._closed = False

    # -- dispatch (single dispatcher thread per slot) -------------------- #
    def roundtrip(self, item: WorkItem) -> ReasonerResult:
        """Ship one (already thinned) work item and await its result."""
        if self._closed or not self.process.is_alive():
            raise BackendConnectionError(f"shared-memory worker {self.index} is gone")
        ids = tuple(self._table.intern_many(item.facts))
        sync = self._table.diff_since(self._synced)
        if sync:
            sync_body = pickle.dumps(sync, protocol=pickle.HIGHEST_PROTOCOL)
            self._send(K_SYMBOLS, sync_body)
            self._synced = sync.stop
            self.stats.symbols_out += 1
        self._send(K_WORK, _encode_work(item, ids))
        while True:
            kind, body = self._response.receive()
            self.stats.bytes_in += 1 + len(body)
            if kind == K_SYMBOLS:
                self._answer_table.apply(pickle.loads(body))
                self.stats.symbols_in += 1
                continue
            if kind == K_FAILURE:
                self.stats.items += 1
                raise pickle.loads(body).rebuild()
            if kind != K_RESULT:
                raise ProtocolError(f"unexpected shared-memory message kind {kind}")
            self.stats.items += 1
            answer_blobs, metrics = pickle.loads(body)
            answers = tuple(
                frozenset(self._answer_table.resolve_many(unpack_ids(blob))) for blob in answer_blobs
            )
            return ReasonerResult(answers=answers, metrics=metrics)

    def _send(self, kind: int, body: bytes) -> None:
        if not self._request._ring.fits(1 + len(body)):
            self.stats.oversizes += 1
        self._request.send(kind, body)
        self.stats.bytes_out += 1 + len(body)

    # -- fault injection / lifecycle ------------------------------------- #
    def kill(self) -> None:
        """Fault injection: hard-kill the worker process (tests the fallback)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.process.is_alive():
            try:
                self._request.send(K_SHUTDOWN)
            except (BackendConnectionError, OSError):
                pass
            self.process.join(timeout=2.0)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=5.0)
        try:
            self._pipe.close()
        except OSError:
            pass
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            self._shm.unlink()
        except (OSError, FileNotFoundError):
            pass
