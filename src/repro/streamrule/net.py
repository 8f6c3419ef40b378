"""The wire layer shared by the TCP backend and the worker daemon.

This module is the single source of truth for how StreamRule work travels
between processes.  Everything here is transport mechanics; *what* gets
evaluated is still a :class:`~repro.streamrule.work.WorkItem` and *what*
comes back is still a :class:`~repro.streamrule.reasoner.ReasonerResult` --
the partition/combine protocol behind a versioned handshake on a real TCP
socket.

The frame grammar, the byte layouts of the data frames, the handshake
sequence and the failure semantics are specified once, in
``docs/wire-protocol.md``; this docstring only says where each part lives
and why.

Layout
------
* **Framing and control payloads** -- :class:`FrameKind`,
  :func:`frame_bytes` / :func:`parse_frame_header` (the one header
  validation, behind the blocking :func:`recv_frame` and the incremental
  :class:`FrameParser`), JSON control frames.
* **The data plane** -- :class:`DeltaShipper` / :class:`DeltaDecoder` for
  ``SYMBOLS`` + ``WORK`` frames and :class:`ResultEncoder` /
  :class:`ResultDecoder` for ``RESULT`` frames.
* **The client as a state machine** -- :class:`ClientConnection`:
  everything a coordinator must *know* to talk SRW1 (handshake and its
  error taxonomy, the frames of an item with their
  :class:`WireStats`, the ticket FIFO), with no socket, lock, thread or
  event loop in it.
* **Two I/O drivers of that state machine** -- :class:`WorkerClient` here
  (blocking streams, threads) and ``AsyncWorkerClient`` in
  :mod:`repro.streamrule.aio` (asyncio streams).  They dial, move bytes
  and wait; neither knows a frame kind beyond ``PING``.
* **The server as a state machine** -- :class:`ServerConnection` (the
  handshake and its refusals, the data plane, ``PING``, the served
  counters), driven by :func:`serve_worker_connection` (blocking stream).

The blocking drivers need only a :class:`ByteStream` -- ``recv``,
``sendall`` and ``close``, failing with :class:`OSError`.  A TCP socket is
one; the shared-memory byte stream of :mod:`repro.streamrule.shm` is the
other, so the same :class:`WorkerClient` and :func:`serve_worker_connection`
run over both carriers, handshake included.

A new frame kind is therefore added in :class:`FrameKind`,
:class:`ClientConnection` and :class:`ServerConnection` (plus
``docs/wire-protocol.md``) and nowhere else; where a slot is *routed* is
the business of :class:`repro.streamrule.fleet.SlotTable`.

Pipelined frames
----------------
The connection is *not* strict request/response: a coordinator may have
several ``WORK`` (and ``PING``) frames outstanding at once.  The server
always answers strictly in request order, which is what lets the client
match responses to callers with a plain FIFO ticket queue
(:class:`ClientConnection`) and lets the worker read and decode ahead of its
evaluation loop (:data:`READ_AHEAD` in :func:`serve_worker_connection`).  Any
transport error still kills the whole connection -- in-flight frames are
failed at the client and resubmitted elsewhere by the fleet.

The data plane
--------------
Each direction of a connection has one writer, and that writer masters an
append-only :class:`~repro.asp.syntax.symbols.SymbolTable` the reader
replicates.  The client interns every fact and sends the table's new tail
ahead of the work as a one-way ``SYMBOLS`` frame (no response, so the FIFO
response order is undisturbed).  The ``WORK`` frame is a ``struct`` header
``(track, epoch, incremental)`` followed by id runs: copy runs over the
same track's previous ids and packed u32 literal runs.  On a sliding window
consecutive items of one track share most of their facts, so a frame sized
by the slide replaces a window-sized one; in steady state every fact has
been interned by an earlier window and no fact is encoded at all.  The
worker answers with a ``RESULT`` frame holding the new tail of the
response table it masters, one packed id blob per answer set and the
fixed metrics record.  Symbol tails and metrics are structural JSON
(:mod:`repro.streamrule.codec`).

Both peers advance their per-track and table state in lockstep -- the
client when it encodes, the server when it decodes -- and a malformed
frame or a transport error closes the connection, so the states can never
silently diverge: a reconnected client starts from empty tables.

Security
--------
No byte a peer sends is ever unpickled.  The ``REASONER`` frame carries the
program as *text* plus its predicate sets and cache flags
(:func:`~repro.streamrule.codec.encode_reasoner_spec`), which the worker
rebuilds by parsing; a failed evaluation comes back as an ``{"error":
{kind, message}}`` envelope, raised at the caller as a plain
:class:`BackendError`.  Control frames (``HELLO``/``WELCOME``/``REJECT``/
``AUTH``) are JSON; anything else in their place is refused.
Two hardening layers are available on top (see
``docs/deployment-security.md``):

* **TLS** -- pass an :class:`ssl.SSLContext` to the client
  (``ssl_context=``) and the daemon (``--tls-cert/--tls-key``); the TCP
  stream is wrapped before the first protocol byte.
* **Token auth** -- when the daemon holds a shared token, its ``WELCOME``
  carries a ``nonce`` and the client must answer with an ``AUTH`` frame
  containing ``HMAC-SHA256(token, nonce)`` before the reasoner is
  accepted; a bad or missing MAC is ``REJECT``\\ ed (a loud
  :class:`HandshakeError` at the client, never a hang).
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import json
import queue
import secrets
import socket
import ssl
import struct
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Protocol, Sequence, Tuple, Union

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.symbols import SymbolTable, pack_ids, unpack_ids
from repro.streamrule.codec import (
    decode_metrics,
    decode_symbol_delta,
    encode_metrics,
    encode_symbol_delta,
    reasoner_from_spec,
)
from repro.streamrule.errors import (
    BackendConnectionError,
    BackendError,
    HandshakeError,
    ProtocolError,
)
from repro.streamrule.reasoner import ReasonerResult
from repro.streamrule.work import WorkItem

__all__ = [
    "BASE_DELAY",
    "ByteStream",
    "CONNECT_ATTEMPTS",
    "CONNECT_TIMEOUT",
    "DeltaDecoder",
    "DeltaShipper",
    "FrameKind",
    "MAGIC",
    "MAX_DELAY",
    "PROTOCOL_VERSION",
    "RECONNECT_ATTEMPTS",
    "ResultDecoder",
    "ResultEncoder",
    "ServerConnection",
    "WireStats",
    "WorkerClient",
    "apply_id_runs",
    "auth_mac",
    "backoff_delays",
    "connect_with_backoff",
    "diff_id_runs",
    "parse_welcome_fields",
    "recv_frame",
    "send_frame",
    "serve_worker_connection",
]

#: First bytes of every connection; lets a worker reject stray connections
#: (port scanners, misdirected HTTP) before reading a frame.
MAGIC = b"SRW1"

#: Version of the frame grammar + handshake.  Bumped on incompatible
#: changes; peers with different versions refuse each other in the
#: handshake (``REJECT``) rather than misparsing frames.  Version 2 made
#: the one data plane (id-run ``WORK``, id-blob ``RESULT``, JSON
#: ``SYMBOLS``); version 3 the one codec (the ``REASONER`` frame is always
#: the program text, a failed ``RESULT`` always the JSON error envelope).
PROTOCOL_VERSION = 3

_FRAME_HEADER = struct.Struct(">IB")

#: Upper bound on a single frame payload; a length beyond this is treated
#: as a protocol violation (corrupt header) rather than an allocation.
MAX_FRAME_BYTES = 1 << 30


class FrameKind(enum.IntEnum):
    """Discriminator byte of every frame on the wire.

    Retired kinds stay unassigned, so a peer still sending one is refused
    as an unknown kind: 7 was version 1's ``DELTA``, 12 a worker's push
    rejoin notice to its coordinator.
    """

    HELLO = 1  #: client -> server: JSON ``{protocol}``
    WELCOME = 2  #: server -> client: JSON ``{protocol}``, plus ``nonce`` when auth is armed
    REJECT = 3  #: server -> client: JSON ``{protocol, reason}``; connection closes
    REASONER = 4  #: client -> server: the reasoner's JSON spec, its program as text
    READY = 5  #: server -> client: reasoner installed, work may flow
    WORK = 6  #: client -> server: ``(track, epoch, incremental)`` header + id runs
    RESULT = 8  #: server -> client: response-table tail + answer id blobs + metrics, or an error envelope
    PING = 9  #: either direction: heartbeat probe (empty payload)
    PONG = 10  #: heartbeat reply (empty payload)
    SYMBOLS = 11  #: client -> server: JSON request-table tail; one-way, no response
    AUTH = 13  #: client -> server: JSON ``{mac}`` proving knowledge of the shared token


# --------------------------------------------------------------------------- #
# Framing primitives
# --------------------------------------------------------------------------- #
class ByteStream(Protocol):
    """What the blocking drivers read and write: a connected socket, or any stream shaped like one.

    ``recv`` blocks until it has at least one byte and returns ``b""`` at
    end of stream; a broken stream raises :class:`OSError`.
    """

    def recv(self, __bufsize: int) -> bytes: ...

    def sendall(self, __data: bytes) -> None: ...

    def close(self) -> None: ...


def frame_bytes(kind: FrameKind, payload: bytes = b"") -> bytes:
    """One ``length | kind | payload`` frame as it appears on the wire."""
    return _FRAME_HEADER.pack(len(payload), kind) + payload


def parse_frame_header(header: bytes) -> Tuple[int, FrameKind]:
    """Validate a frame header; returns ``(payload length, kind)``.

    The one place a length beyond :data:`MAX_FRAME_BYTES` or an unknown
    kind byte becomes a :class:`ProtocolError` -- for the blocking reader
    (:func:`recv_frame`) and the incremental one (:class:`FrameParser`)
    alike.
    """
    length, kind = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte bound")
    try:
        return length, FrameKind(kind)
    except ValueError as error:
        raise ProtocolError(f"unknown frame kind {kind!r}") from error


class FrameParser:
    """Cut a byte stream into frames, however the transport chunked it."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Tuple[FrameKind, bytes]]:
        """Buffer ``data`` and yield every frame it completes, in order.

        A header is validated as soon as its five bytes are in, before any
        of its payload is waited for, and frames ahead of a bad header are
        still delivered (the generator raises only when it reaches it).
        """
        self._buffer += data
        while len(self._buffer) >= _FRAME_HEADER.size:
            length, kind = parse_frame_header(self._buffer[: _FRAME_HEADER.size])
            end = _FRAME_HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_FRAME_HEADER.size : end])
            del self._buffer[:end]
            yield kind, payload


def send_frame(connection: ByteStream, kind: FrameKind, payload: bytes = b"") -> None:
    """Write one frame with a single ``sendall``."""
    connection.sendall(frame_bytes(kind, payload))


def recv_exactly(connection: ByteStream, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`EOFError` on a closed peer."""
    chunks = []
    while count:
        chunk = connection.recv(count)
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(connection: ByteStream) -> Tuple[FrameKind, bytes]:
    """Read one frame; returns ``(kind, payload)``."""
    length, kind = parse_frame_header(recv_exactly(connection, _FRAME_HEADER.size))
    return kind, recv_exactly(connection, length)


# --------------------------------------------------------------------------- #
# JSON payloads (control frames and the heads of data frames)
# --------------------------------------------------------------------------- #
def dumps_json(value: Any) -> bytes:
    """Compact JSON payload (first byte is always ``{`` for a mapping)."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def loads_json(payload: bytes) -> Dict[str, Any]:
    """Decode a JSON object payload (control frames, data-frame heads).

    Anything else -- a pickle, invalid UTF-8, malformed or non-object
    JSON -- raises :class:`ProtocolError`; nothing here ever unpickles.
    """
    try:
        value = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError(f"undecodable JSON payload: {error!r}") from error
    if not isinstance(value, dict):
        raise ProtocolError(f"JSON payload must be an object, got {type(value).__name__}")
    return value


def auth_mac(token: str, nonce: str) -> str:
    """The ``AUTH`` proof: hex ``HMAC-SHA256(token, nonce)``.

    The token itself never crosses the wire; the server challenges with a
    fresh nonce per connection, so a captured MAC cannot be replayed
    against a later handshake.
    """
    return hmac.new(token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256).hexdigest()


# --------------------------------------------------------------------------- #
# The data plane: id-run WORK frames, id-blob RESULT frames
# --------------------------------------------------------------------------- #
#: ``WORK`` header: track (i64), epoch (i64), incremental flag (u8, 0 or 1).
_WORK_HEADER = struct.Struct("<qqB")
#: One id run of a ``WORK`` frame: kind (u8) and length in ids (u32).  A
#: literal run is followed by its ``length`` packed u32 ids, a copy run by
#: its start (u32) in the track's previous id tuple.
_RUN = struct.Struct("<BI")
_COPY_RUN = struct.Struct("<BII")
_LITERAL, _COPY = 0, 1
_U32 = struct.Struct("<I")
#: ``RESULT`` header: status (u8) and the length (u32) of the JSON head
#: after it -- ``{"metrics": record, "symbols": response-table tail}``,
#: the tail only when new -- then one ``count (u32) | count packed ids``
#: blob per answer set.  A failed evaluation is the status byte followed
#: by the JSON error envelope ``{"error": {"kind", "message"}}``.
_RESULT_HEADER = struct.Struct("<BI")
_ANSWERS, _FAILED = 0, 1

#: Minimum matched run worth a copy run (9 bytes); shorter matches travel
#: as literal ids (4 bytes each).
MIN_COPY_RUN = 4

#: Duplicate-fact bound: at most this many candidate positions are probed
#: per id when matching, so degenerate streams (one fact repeated
#: thousands of times) stay linear.
MAX_MATCH_CANDIDATES = 8

#: An id run: ``(start, length)`` copies that run from the previous id
#: tuple; a ``bytes`` value is a packed literal run
#: (:func:`repro.asp.syntax.symbols.pack_ids`).
IdRunOp = Union[Tuple[int, int], bytes]


@contextmanager
def _malformed(what: str) -> Iterator[None]:
    """Turn any failure to decode a data payload into :class:`ProtocolError`.

    A peer's bytes may be short, overrun their own lengths, name ids no
    ``SYMBOLS`` frame introduced or hold JSON of the wrong shape; every
    such failure must reach the caller as the one error that aborts the
    connection, never as a stray ``struct.error`` or ``IndexError``.
    """
    try:
        yield
    except (ValueError, TypeError, LookupError, struct.error, RecursionError, OverflowError) as error:
        raise ProtocolError(f"malformed {what} payload: {error!r}") from error


def diff_id_runs(previous: Tuple[int, ...], current: Tuple[int, ...]) -> Tuple[IdRunOp, ...]:
    """Encode ``current`` as copy runs over ``previous`` plus packed literal runs.

    A greedy longest-run matcher (the delta-compression classic): for every
    position of ``current`` it probes where that id occurs in ``previous``
    and extends the longest contiguous match; runs of at least
    :data:`MIN_COPY_RUN` become ``(start, length)`` copies, everything else
    stays literal.  Cost is linear in practice (each probe either consumes
    a run or one literal).  This handles both overlap shapes the execution
    layer produces: order-preserving partitions (one long copy run -- the
    pure sliding window) and predicate-regrouping partitions (one copy run
    per predicate group straddling the slide).
    """
    if not previous:
        return (pack_ids(current),) if current else ()
    index: Dict[int, List[int]] = {}
    for position, symbol_id in enumerate(previous):
        index.setdefault(symbol_id, []).append(position)
    runs: List[IdRunOp] = []
    literals: List[int] = []
    cursor = 0
    total = len(current)
    while cursor < total:
        best_position = -1
        best_length = 0
        for position in index.get(current[cursor], ())[:MAX_MATCH_CANDIDATES]:
            length = 0
            while (
                position + length < len(previous)
                and cursor + length < total
                and previous[position + length] == current[cursor + length]
            ):
                length += 1
            if length > best_length:
                best_length, best_position = length, position
        if best_length >= MIN_COPY_RUN:
            if literals:
                runs.append(pack_ids(literals))
                literals = []
            runs.append((best_position, best_length))
            cursor += best_length
        else:
            literals.append(current[cursor])
            cursor += 1
    if literals:
        runs.append(pack_ids(literals))
    return tuple(runs)


def apply_id_runs(previous: Tuple[int, ...], ops: Sequence[IdRunOp]) -> Tuple[int, ...]:
    """Reconstruct the id tuple :func:`diff_id_runs` encoded."""
    parts: List[int] = []
    for op in ops:
        if isinstance(op, bytes):
            parts.extend(unpack_ids(op))
        else:
            start, length = op
            if not (0 <= start and length >= 0 and start + length <= len(previous)):
                raise ProtocolError(
                    f"id copy op ({start}, {length}) out of range for a {len(previous)}-id window"
                )
            parts.extend(previous[start : start + length])
    return tuple(parts)


def _work_payload(item: WorkItem, ops: Tuple[IdRunOp, ...]) -> bytes:
    parts = [_WORK_HEADER.pack(item.track, item.epoch, item.incremental)]
    for op in ops:
        if isinstance(op, bytes):
            parts.append(_RUN.pack(_LITERAL, len(op) // 4))
            parts.append(op)
        else:
            parts.append(_COPY_RUN.pack(_COPY, op[1], op[0]))
    return b"".join(parts)


def _decode_runs(payload: bytes, offset: int) -> List[IdRunOp]:
    ops: List[IdRunOp] = []
    end = len(payload)
    while offset < end:
        kind, length = _RUN.unpack_from(payload, offset)
        offset += _RUN.size
        if kind == _COPY:
            ops.append((_U32.unpack_from(payload, offset)[0], length))
            offset += _U32.size
        elif kind == _LITERAL:
            stop = offset + 4 * length
            if stop > end:
                raise ProtocolError(f"literal run of {length} ids overruns the payload")
            ops.append(payload[offset:stop])
            offset = stop
        else:
            raise ProtocolError(f"unknown id-run kind {kind}")
    return ops


class _MasterTable:
    """The writing side of one direction's symbol table.

    Interns symbols and hands out the structural encoding of the tail the
    peer has not seen yet, exactly once.  A tail with a symbol that has no
    wire encoding raises :class:`TypeError` and is forgotten, so the table
    still matches what the peer holds.
    """

    def __init__(self) -> None:
        self.table = SymbolTable()
        self.synced = 0

    def tail(self) -> Optional[Dict[str, Any]]:
        if len(self.table) == self.synced:
            return None
        sync = self.table.diff_since(self.synced)
        try:
            encoded = encode_symbol_delta(sync)
        except TypeError:
            self.table = SymbolTable(self.table.diff_since(0).symbols[: self.synced])
            raise
        self.synced = sync.stop
        return encoded


class DeltaShipper:
    """Client-side encoder of ``SYMBOLS`` and ``WORK`` frames.

    Interns every fact in a connection-scoped :class:`SymbolTable`, sends
    the table's new tail ahead of the work as a ``SYMBOLS`` frame, and
    ships the item as one ``WORK`` frame: the ``(track, epoch,
    incremental)`` header, then the window's ids as copy runs over the
    same track's previous ids plus packed literal runs
    (:func:`diff_id_runs`).  A steady-state sliding window whose facts the
    peer already knows therefore costs a few copy runs plus its arrivals'
    ids; a tumbling window costs ``4 bytes x |window|``.
    """

    def __init__(self) -> None:
        self._master = _MasterTable()
        self._previous: Dict[int, Tuple[int, ...]] = {}
        #: Whether the last item encoded reused ids of its track's previous
        #: window (at least one copy run) -- a *delta* item in
        #: :class:`WireStats`.
        self.copied = False

    def encode_frames(self, item: WorkItem) -> List[Tuple[FrameKind, bytes]]:
        """Encode ``item`` into the frames to send, in order.

        The last frame is always the ``WORK`` frame; it may be preceded by
        one ``SYMBOLS`` frame carrying the symbols the peer has not seen
        yet.  Track state and the synced-table watermark advance exactly as
        the peer's :class:`DeltaDecoder` will on receipt.  A fact with no
        wire encoding raises :class:`TypeError` and leaves that state as it
        was.
        """
        frames: List[Tuple[FrameKind, bytes]] = []
        ids = tuple(self._master.table.intern_many(item.facts))
        tail = self._master.tail()
        if tail is not None:
            frames.append((FrameKind.SYMBOLS, dumps_json(tail)))
        ops = diff_id_runs(self._previous.get(item.track, ()), ids)
        self._previous[item.track] = ids
        self.copied = not all(isinstance(op, bytes) for op in ops)
        frames.append((FrameKind.WORK, _work_payload(item, ops)))
        return frames


class DeltaDecoder:
    """Server-side decoder of ``SYMBOLS`` and ``WORK`` frames, mirroring :class:`DeltaShipper`.

    Holds the connection's replica :class:`SymbolTable` and each track's
    previous ids.  A malformed payload -- short, overrunning its own run
    lengths, copying outside the previous window, naming an id no
    ``SYMBOLS`` frame introduced -- raises :class:`ProtocolError`, and the
    connection dies: both sides restart from empty, in-sync state.
    """

    def __init__(self) -> None:
        self._table = SymbolTable()
        self._previous: Dict[int, Tuple[int, ...]] = {}

    def apply_symbols(self, payload: bytes) -> int:
        """Apply a ``SYMBOLS`` frame; returns the number of new symbols."""
        with _malformed("SYMBOLS"):
            return self._table.apply(decode_symbol_delta(loads_json(payload)))

    def decode(self, payload: bytes) -> WorkItem:
        """Rebuild the :class:`WorkItem` of a ``WORK`` frame."""
        with _malformed("WORK"):
            track, epoch, flag = _WORK_HEADER.unpack_from(payload)
            if flag > 1:
                raise ProtocolError(f"incremental flag {flag} is neither 0 nor 1")
            ids = apply_id_runs(self._previous.get(track, ()), _decode_runs(payload, _WORK_HEADER.size))
            facts = self._table.resolve_many(ids)
        self._previous[track] = ids
        return WorkItem(facts=facts, track=track, epoch=epoch, incremental=bool(flag))


class ResultEncoder:
    """Worker-side encoder of ``RESULT`` frames; masters the response table.

    Interns every answer atom in a connection-scoped table and ships the
    table's new tail inside the frame, so a recurring derived atom costs 4
    result bytes after its first appearance.  A worker failure travels as
    an ``{"error": {kind, message}}`` envelope.
    """

    def __init__(self) -> None:
        self._master = _MasterTable()

    def encode(self, result: ReasonerResult) -> bytes:
        answers = [self._master.table.intern_many(answer) for answer in result.answers]
        head: Dict[str, Any] = {"metrics": encode_metrics(result.metrics)}
        tail = self._master.tail()
        if tail is not None:
            head["symbols"] = tail
        head_bytes = dumps_json(head)
        parts = [_RESULT_HEADER.pack(_ANSWERS, len(head_bytes)), head_bytes]
        for ids in answers:
            parts.append(_U32.pack(len(ids)))
            parts.append(pack_ids(ids))
        return b"".join(parts)

    @staticmethod
    def encode_failure(error: BaseException) -> bytes:
        envelope = {"error": {"kind": type(error).__name__, "message": str(error)}}
        return bytes((_FAILED,)) + dumps_json(envelope)


class ResultDecoder:
    """Client-side decoder of ``RESULT`` frames; replicates the response table.

    Frames must be decoded in receive order: a table tail arrives with the
    first answer that uses it.  :meth:`decode` returns the
    :class:`ReasonerResult`, or the worker-side failure for the caller to
    raise: a :class:`BackendError` naming the peer and the envelope's kind
    and message (no exception is reconstructed -- rebuilding arbitrary
    exception types is pickle by another name).  A malformed payload
    raises :class:`ProtocolError`.
    """

    def __init__(self, peer: str) -> None:
        self._table = SymbolTable()
        self._peer = peer

    def decode(self, payload: bytes) -> Union[ReasonerResult, BackendError]:
        with _malformed(f"RESULT from {self._peer}"):
            if payload[0] == _FAILED:
                return self._failure(payload[1:])
            status, head_length = _RESULT_HEADER.unpack_from(payload)
            if status != _ANSWERS:
                raise ProtocolError(f"unknown RESULT status {status}")
            offset = _RESULT_HEADER.size + head_length
            if offset > len(payload):
                raise ProtocolError(f"RESULT head of {head_length} bytes overruns the payload")
            head = loads_json(payload[_RESULT_HEADER.size : offset])
            if head.get("symbols") is not None:
                self._table.apply(decode_symbol_delta(head["symbols"]))
            metrics = decode_metrics(head.get("metrics"))
            answers = []
            while offset < len(payload):
                (count,) = _U32.unpack_from(payload, offset)
                start, offset = offset + _U32.size, offset + _U32.size + 4 * count
                if offset > len(payload):
                    raise ProtocolError(f"answer of {count} ids overruns the payload")
                atoms = self._table.resolve_many(unpack_ids(payload[start:offset]))
                if not all(isinstance(atom, Atom) for atom in atoms):
                    raise ProtocolError(f"answer from {self._peer} resolved to non-atoms")
                answers.append(frozenset(atoms))
        return ReasonerResult(answers=tuple(answers), metrics=metrics)

    def _failure(self, body: bytes) -> BackendError:
        failure = loads_json(body).get("error")
        if not isinstance(failure, dict):
            raise ProtocolError(f"malformed error envelope from {self._peer}: {failure!r}")
        return BackendError(f"{self._peer} failed: {failure.get('kind', 'Error')}: {failure.get('message', '')}")


# --------------------------------------------------------------------------- #
# Wire accounting
# --------------------------------------------------------------------------- #
@dataclass
class WireStats:
    """Per-connection traffic counters (payload bytes, excluding headers)."""

    items_full: int = 0  #: ``WORK`` frames of literal runs only (a track's first or a disjoint window)
    items_delta: int = 0  #: ``WORK`` frames with at least one copy run over the track's previous ids
    bytes_full: int = 0  #: payload bytes of the full items
    bytes_delta: int = 0  #: payload bytes of the delta items
    symbol_frames: int = 0  #: ``SYMBOLS`` table-sync frames sent
    bytes_symbols: int = 0  #: payload bytes of the symbol-sync frames
    bytes_in: int = 0  #: result payload bytes received
    pings: int = 0  #: heartbeat round trips completed

    @property
    def items(self) -> int:
        return self.items_full + self.items_delta

    @property
    def bytes_out(self) -> int:
        return self.bytes_full + self.bytes_delta + self.bytes_symbols

    def merged_with(self, other: "WireStats") -> "WireStats":
        return WireStats(*(mine + theirs for mine, theirs in zip(astuple(self), astuple(other))))


# --------------------------------------------------------------------------- #
# Handshake grammar shared by the sync and asyncio clients
# --------------------------------------------------------------------------- #
def parse_welcome_fields(kind: FrameKind, payload: bytes, address: Tuple[str, int]) -> Dict[str, Any]:
    """Validate the server's handshake answer; returns the ``WELCOME`` fields.

    The fields carry handshake extensions such as the auth ``nonce``.
    Raises :class:`HandshakeError` on a ``REJECT`` or a protocol-version
    mismatch (naming both versions) and :class:`ProtocolError` on any
    other frame kind.
    """
    if kind is FrameKind.REJECT:
        reject = loads_json(payload)
        raise HandshakeError(
            f"worker {address[0]}:{address[1]} rejected the handshake: "
            f"{reject.get('reason', 'unspecified')} "
            f"(worker protocol {reject.get('protocol')}, ours {PROTOCOL_VERSION})"
        )
    if kind is not FrameKind.WELCOME:
        raise ProtocolError(f"expected WELCOME, got {kind.name}")
    welcome = loads_json(payload)
    if welcome.get("protocol") != PROTOCOL_VERSION:
        raise HandshakeError(
            f"worker {address[0]}:{address[1]} speaks protocol "
            f"{welcome.get('protocol')}, this client speaks {PROTOCOL_VERSION}"
        )
    return welcome


# --------------------------------------------------------------------------- #
# Connecting with bounded exponential backoff
# --------------------------------------------------------------------------- #
#: Dials a coordinator makes to a worker before giving up on it: at start,
#: and when reconnecting to a worker that failed mid-stream.
CONNECT_ATTEMPTS = 5
RECONNECT_ATTEMPTS = 2
#: The pause before a retry starts at ``BASE_DELAY`` seconds and doubles up to ``MAX_DELAY``.
BASE_DELAY = 0.05
MAX_DELAY = 2.0
#: Seconds one TCP connect (plus its TLS handshake) may take.
CONNECT_TIMEOUT = 5.0


def backoff_delays(attempts: int) -> Iterator[float]:
    """The pause before each of ``attempts`` dials: none before the first.

    The one backoff schedule, behind the blocking :func:`connect_with_backoff`
    and the asyncio ``AsyncWorkerClient.connect`` alike: ``BASE_DELAY``,
    doubling up to ``MAX_DELAY``.
    """
    if attempts < 1:
        raise ValueError("at least one connection attempt is required")
    delay = 0.0
    for _ in range(attempts):
        yield delay
        delay = min(MAX_DELAY, delay * 2) if delay else BASE_DELAY


def tls_failure(address: Tuple[str, int], error: BaseException) -> HandshakeError:
    """A failed TLS negotiation: permanent, so not a retriable connection error."""
    return HandshakeError(f"TLS handshake with worker {address[0]}:{address[1]} failed: {error!r}")


def dial_failure(address: Tuple[str, int], attempts: int, failure: Optional[BaseException]) -> BackendConnectionError:
    """The connect budget is spent and the worker never answered."""
    return BackendConnectionError(
        f"could not connect to worker {address[0]}:{address[1]} after {attempts} attempts: {failure!r}"
    )


def connect_with_backoff(
    address: Tuple[str, int],
    *,
    attempts: int = CONNECT_ATTEMPTS,
    sleep: Callable[[float], None] = time.sleep,
    ssl_context: Optional[ssl.SSLContext] = None,
    server_hostname: Optional[str] = None,
) -> socket.socket:
    """TCP-connect to ``address``, retrying with exponential backoff.

    Makes up to ``attempts`` attempts, paused by :func:`backoff_delays`.
    Raises :class:`BackendConnectionError` once the budget is exhausted.
    ``sleep`` is injectable so tests can assert the schedule without
    waiting it out.

    With ``ssl_context`` the socket is TLS-wrapped (and the TLS handshake
    completed, still under ``CONNECT_TIMEOUT``) before it is returned.  A
    TLS *negotiation* failure -- certificate rejected, or the peer is
    speaking plaintext SRW1 -- is permanent, not transient, so it raises
    :class:`HandshakeError` immediately instead of burning the retry
    budget.
    """
    failure: Optional[Exception] = None
    for delay in backoff_delays(attempts):
        if delay:
            sleep(delay)
        try:
            connection = socket.create_connection(address, timeout=CONNECT_TIMEOUT)
        except OSError as error:
            failure = error
            continue
        if ssl_context is not None:
            try:
                connection = ssl_context.wrap_socket(
                    connection, server_hostname=server_hostname or address[0]
                )
            except (ssl.SSLError, OSError) as error:
                # A reset here means the peer is not speaking TLS at all
                # (e.g. a plaintext SRW1 daemon read our ClientHello as bad
                # magic) -- as permanent as a certificate rejection.
                try:
                    connection.close()
                except OSError:
                    pass
                raise tls_failure(address, error) from error
        connection.settimeout(None)  # evaluations may legitimately take long
        return connection
    raise dial_failure(address, attempts, failure) from failure


# --------------------------------------------------------------------------- #
# Client side, sans-IO: everything a coordinator must know to talk SRW1
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConnectionSettings:
    """How a coordinator reaches and addresses its workers: the deployment settings.

    The one value a backend builds from its constructor arguments and hands
    down: ``vars(settings)`` are the connection keywords of both fleets and
    both clients.  The dial policy is not among them; it is the module
    constants above.
    """

    ssl_context: Optional[ssl.SSLContext] = None
    server_hostname: Optional[str] = None
    auth_token: Optional[str] = None

    @classmethod
    def of(cls, arguments: Mapping[str, Any]) -> "ConnectionSettings":
        """Pick the settings, by name, out of a constructor's ``locals()``."""
        return cls(**{name: arguments[name] for name in cls.__dataclass_fields__})


@dataclass(eq=False)
class Ticket:
    """One in-flight request awaiting its FIFO-ordered response frame.

    Plain data: a response fills ``kind``/``value`` (a ``RESULT`` already
    decoded, in receive order: the result or the worker-side failure; any
    other frame its payload), a broken connection fills ``error``, and
    either calls ``wake`` (if the driver gave one) -- exactly once,
    whatever happens afterwards.
    """

    wake: Optional[Callable[[], None]] = None
    kind: Optional[FrameKind] = None
    value: Any = None
    error: Optional[BaseException] = None
    done: bool = False

    def _settle(self, kind: Optional[FrameKind], value: Any, error: Optional[BaseException]) -> None:
        if not self.done:
            self.kind, self.value, self.error = kind, value, error
            self.done = True  # last: a threaded driver polls this flag without a lock
            if self.wake is not None:
                self.wake()


class ClientConnection:
    """The client half of one SRW1 connection as a pure state machine.

    Frames in (cut from the byte stream by :func:`recv_frame` or a
    :class:`FrameParser`), bytes to send and settled :class:`Ticket` records
    out; no socket, lock, thread or event loop.  It owns what both I/O
    drivers -- the blocking :class:`WorkerClient` and the asyncio client in
    :mod:`repro.streamrule.aio` -- must agree on: the ``MAGIC`` ..
    ``READY`` handshake and its error taxonomy, the data-plane
    encoder and decoder of the connection, the ordered frames of a work
    item with their :class:`WireStats` accounting, and the FIFO of
    outstanding tickets.  A driver moves the returned chunks to its
    transport *in order, one write per chunk*, feeds what arrives back in,
    and waits on tickets however its world waits.  When its transport fails
    (:meth:`connection_lost` says what that means) or a method here raises
    :class:`ProtocolError`, the driver closes the transport and calls
    :meth:`abort` -- the stream can no longer be trusted.

    Not thread-safe: a threaded driver serializes the calls that touch the
    ticket queue (:meth:`expect`, :meth:`receive_frame`, :meth:`abort`).
    """

    def __init__(
        self, address: Tuple[str, int], *, auth_token: Optional[str] = None, peer: Optional[str] = None
    ) -> None:
        self.address = address
        #: How failures name the worker (``worker HOST:PORT`` unless given).
        self.peer = peer or f"worker {address[0]}:{address[1]}"
        self.stats = WireStats()
        self.closed = False
        self.shipper = DeltaShipper()
        self._results = ResultDecoder(self.peer)
        self._auth_token = auth_token
        #: ``"welcome"`` / ``"ready"`` while that handshake answer is
        #: awaited, ``"open"`` once work frames may flow.
        self._stage = "welcome"
        self._reasoner_payload = b""
        self._pending: Deque[Ticket] = deque()

    @property
    def is_open(self) -> bool:
        """The handshake completed (``READY`` received)."""
        return self._stage == "open"

    @property
    def pending_count(self) -> int:
        """Requests sent whose responses have not yet arrived."""
        return len(self._pending)

    # -- handshake ------------------------------------------------------- #
    def open(self, reasoner_payload: bytes) -> List[bytes]:
        """The opening chunks: ``MAGIC``, then a ``HELLO`` naming the protocol.

        ``reasoner_payload`` follows in the ``REASONER`` frame once the
        ``WELCOME`` (and its auth challenge, if any) has been answered.
        """
        self._reasoner_payload = reasoner_payload
        return [MAGIC, frame_bytes(FrameKind.HELLO, dumps_json({"protocol": PROTOCOL_VERSION}))]

    def _on_welcome(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        welcome = parse_welcome_fields(kind, payload, self.address)
        chunks = []
        nonce = welcome.get("nonce")
        if nonce is not None:
            if not self._auth_token:
                raise HandshakeError(f"{self.peer} requires token auth and this client has no token")
            mac = auth_mac(self._auth_token, str(nonce))
            chunks.append(frame_bytes(FrameKind.AUTH, dumps_json({"mac": mac})))
        chunks.append(frame_bytes(FrameKind.REASONER, self._reasoner_payload))
        self._stage = "ready"
        return chunks

    def _on_ready(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        if kind is FrameKind.REJECT:
            reject = loads_json(payload)
            raise HandshakeError(
                f"{self.peer} rejected the handshake: {reject.get('reason', 'unspecified')}"
            )
        if kind is not FrameKind.READY:
            raise ProtocolError(f"expected READY, got {kind.name}")
        self._stage = "open"
        return []

    # -- frames in -------------------------------------------------------- #
    def receive_frame(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        """Advance by one received frame; returns the chunks to send in answer.

        During the handshake the answer is its next step (``AUTH`` +
        ``REASONER`` after ``WELCOME``).  Once open, a frame is the
        response to the oldest outstanding request -- the worker answers
        strictly in request order -- and settles that ticket; a ``RESULT``
        is decoded here, so the response table advances in receive order.
        A frame nobody asked for, or a malformed ``RESULT``, is a
        :class:`ProtocolError` (the latter also fails its ticket).
        """
        if self._stage == "welcome":
            return self._on_welcome(kind, payload)
        if self._stage == "ready":
            return self._on_ready(kind, payload)
        self.stats.bytes_in += len(payload)
        if not self._pending:
            raise ProtocolError(f"unsolicited {kind.name} frame from {self.address}")
        ticket = self._pending.popleft()
        value: Any = payload
        if kind is FrameKind.RESULT:
            try:
                value = self._results.decode(payload)
            except ProtocolError as error:
                ticket._settle(None, None, error)
                raise
        ticket._settle(kind, value, None)
        return []

    # -- failure ---------------------------------------------------------- #
    def closed_error(self) -> BackendConnectionError:
        return BackendConnectionError(f"connection to worker {self.address} is closed")

    def connection_lost(self, error: BaseException) -> BackendError:
        """What a transport failure (``OSError``, EOF) means at this stage.

        Mid-handshake -- the peer hung up on us, or fed us garbage that
        does not even frame -- it is a :class:`HandshakeError`, not a retriable
        :class:`BackendConnectionError`: this is how a plaintext client
        talking to a TLS daemon (or vice versa) fails loudly instead of
        being endlessly re-dialed by the fleet's reconnect machinery.
        """
        if not self.is_open:
            return HandshakeError(f"handshake with {self.address} failed: {error!r}")
        return BackendConnectionError(f"connection to worker {self.address} lost: {error!r}")

    def abort(self, cause: BaseException) -> Any:
        """Mark the connection closed and fail every outstanding ticket.

        Their results can never arrive once the stream is broken, so their
        waiters get :class:`BackendConnectionError` -- the signal a fleet
        answers by rerouting the slot and resubmitting the item.  Returns
        ``cause`` (for ``raise connection.abort(error)``); idempotent.
        """
        self.closed = True
        if self._pending:
            failure = (
                cause
                if isinstance(cause, BackendConnectionError)
                else BackendConnectionError(f"connection to worker {self.address} aborted: {cause!r}")
            )
            while self._pending:
                self._pending.popleft()._settle(None, None, failure)
        return cause

    # -- requests and their responses ------------------------------------- #
    def encode_item(self, item: WorkItem) -> List[bytes]:
        """The chunks that ship ``item``, counted in :attr:`stats`.

        The last one is the ``WORK`` frame whose response :meth:`expect`
        queues a ticket for; a ``SYMBOLS`` frame ahead of it is one-way (no
        response, so no ticket).  The shipper's per-track state advances
        here, so calls must happen in wire order.
        """
        if self.closed:
            raise self.closed_error()
        chunks = []
        for kind, payload in self.shipper.encode_frames(item):
            if kind is FrameKind.SYMBOLS:
                self.stats.symbol_frames += 1
                self.stats.bytes_symbols += len(payload)
            elif self.shipper.copied:
                self.stats.items_delta += 1
                self.stats.bytes_delta += len(payload)
            else:
                self.stats.items_full += 1
                self.stats.bytes_full += len(payload)
            chunks.append(frame_bytes(kind, payload))
        return chunks

    def expect(self, ticket: Ticket) -> None:
        """Queue ``ticket`` for the response to the request about to be sent."""
        if self.closed:
            raise self.closed_error()
        self._pending.append(ticket)

    def _response(self, ticket: Ticket, expected: FrameKind) -> Any:
        if ticket.error is not None:
            raise ticket.error
        assert ticket.kind is not None
        if ticket.kind is not expected:
            raise ProtocolError(f"expected {expected.name}, got {ticket.kind.name}")
        return ticket.value

    def take_result(self, ticket: Ticket) -> ReasonerResult:
        """The evaluated result a settled work ticket carries.

        Raises the ticket's failure (a malformed ``RESULT`` is a
        :class:`ProtocolError`), the worker-side exception a ``RESULT``
        carries (the connection survives that), or :class:`ProtocolError`
        for any other frame kind.
        """
        value = self._response(ticket, FrameKind.RESULT)
        if isinstance(value, BaseException):
            raise value
        return value

    def take_pong(self, ticket: Ticket) -> None:
        """Check a settled ``PING`` ticket (counts the completed heartbeat)."""
        self._response(ticket, FrameKind.PONG)
        self.stats.pings += 1


# --------------------------------------------------------------------------- #
# Server side, sans-IO: everything a worker must know to talk SRW1
# --------------------------------------------------------------------------- #
#: What the server sends: a frame, or the ``WorkItem`` whose evaluation
#: becomes the next ``RESULT`` (see :meth:`ServerConnection.respond`).
Reply = Union[Tuple[FrameKind, bytes], WorkItem]


class ServerConnection:
    """The server half of one SRW1 connection as a pure state machine.

    Bytes (:meth:`receive_data`) in, :data:`Reply` values out; no socket,
    thread or queue.  It owns
    the ``MAGIC`` .. ``READY`` handshake and every refusal it can make, the
    :class:`DeltaDecoder` (advanced in receive order), the
    :class:`ResultEncoder` and failure envelope (advanced in evaluation
    order, by :meth:`respond`), ``PING``/``PONG`` and the served counters.
    A driver passes every reply to :meth:`respond` in the order it was
    returned and sends the frame that comes back; once :attr:`closed` is
    set it sends what it holds and closes.  The receiving side and
    :meth:`respond` share no mutable state, so they may run on two threads.
    """

    def __init__(self, *, auth_token: Optional[str] = None) -> None:
        self.items = 0  #: ``WORK`` frames evaluated (a failed evaluation included)
        self.symbols = 0  #: ``SYMBOLS`` table-sync frames applied
        self.pings = 0
        #: Why the handshake refused the peer: with a ``REJECT`` frame, or
        #: by a silent close on a frame that breaks the handshake grammar.
        self.rejected: Optional[str] = None
        #: Why an open connection was dropped, silently, on a frame the
        #: protocol does not allow after ``READY``.
        self.violation: Optional[str] = None
        #: Nothing more will be read; the replies already returned are the last.
        self.closed = False
        self._auth_token = auth_token
        self._mac = ""  #: the ``AUTH`` answer this connection's nonce demands
        #: ``"magic"``, ``"hello"``, ``"auth"``, ``"reasoner"`` while that
        #: handshake step is awaited, ``"open"`` once work frames may flow.
        self._stage = "magic"
        self._magic = b""
        self._parser = FrameParser()
        self._reasoner: Any = None
        self._decoder = DeltaDecoder()
        self._results = ResultEncoder()

    # -- bytes in --------------------------------------------------------- #
    def receive_data(self, data: bytes) -> List[Reply]:
        """Advance by bytes off a stream (``MAGIC`` first, then frames, however chunked).

        Returns the replies, in order.  A header that does not frame drops
        the connection; the frames ahead of it are still served.
        """
        replies: List[Reply] = []
        if self.closed:
            return replies
        if self._stage == "magic":
            data = self._magic + data
            if len(data) < len(MAGIC):
                self._magic = data
                return replies
            if not data.startswith(MAGIC):
                return self._drop("bad magic")
            self._stage, data = "hello", data[len(MAGIC) :]
        try:
            for kind, payload in self._parser.feed(data):
                replies += self._on_frame(kind, payload)
                if self.closed:
                    break  # before the parser reads, let alone judges, another header
        except ProtocolError as error:
            replies += self._drop(str(error))
        return replies

    def _on_frame(self, kind: FrameKind, payload: bytes) -> List[Reply]:
        if self._stage == "open":
            return self._on_open(kind, payload)
        if self._stage == "hello":
            return self._on_hello(kind, payload)
        if self._stage == "auth":
            return self._on_auth(kind, payload)
        if kind is not FrameKind.REASONER:
            return self._drop(f"expected REASONER, got {kind.name}")
        try:
            self._reasoner = reasoner_from_spec(payload)
        except Exception as error:  # noqa: BLE001 - whatever the spec trips, the peer is told
            return self._reject(f"invalid reasoner: {type(error).__name__}: {error}")
        self._stage = "open"
        return [(FrameKind.READY, b"")]

    # -- the handshake ---------------------------------------------------- #
    def _on_hello(self, kind: FrameKind, payload: bytes) -> List[Reply]:
        if kind is not FrameKind.HELLO:
            return self._drop(f"expected HELLO, got {kind.name}")
        try:
            hello = loads_json(payload)
        except ProtocolError:
            return self._reject("control frames must be JSON")
        if hello.get("protocol") != PROTOCOL_VERSION:
            return self._reject("protocol version mismatch", f"protocol {hello.get('protocol')} != {PROTOCOL_VERSION}")
        welcome: Dict[str, Any] = {"protocol": PROTOCOL_VERSION}
        self._stage = "reasoner"
        if self._auth_token is not None:
            welcome["nonce"] = secrets.token_hex(16)
            self._mac = auth_mac(self._auth_token, welcome["nonce"])
            self._stage = "auth"
        return [(FrameKind.WELCOME, dumps_json(welcome))]

    def _on_auth(self, kind: FrameKind, payload: bytes) -> List[Reply]:
        if kind is not FrameKind.AUTH:
            return self._reject("authentication required")
        try:
            mac = loads_json(payload).get("mac")
        except ProtocolError:
            mac = None
        if not isinstance(mac, str) or not hmac.compare_digest(mac, self._mac):
            return self._reject("authentication failed")
        self._stage = "reasoner"
        return []

    def _reject(self, reason: str, rejected: Optional[str] = None) -> List[Reply]:
        self.rejected = rejected or reason
        self.closed = True
        return [(FrameKind.REJECT, dumps_json({"protocol": PROTOCOL_VERSION, "reason": reason}))]

    def _drop(self, reason: str) -> List[Reply]:
        """A protocol violation: record it, answer nothing, close."""
        if self._stage == "open":
            self.violation = reason
        else:
            self.rejected = reason
        self.closed = True
        return []

    # -- after READY ------------------------------------------------------ #
    def _on_open(self, kind: FrameKind, payload: bytes) -> List[Reply]:
        if kind is FrameKind.PING:
            self.pings += 1
            return [(FrameKind.PONG, b"")]
        if kind not in (FrameKind.SYMBOLS, FrameKind.WORK):
            return self._drop(f"unexpected {kind.name} frame after READY")
        try:
            if kind is FrameKind.WORK:
                return [self._decoder.decode(payload)]
            # One-way table sync: no reply, so the FIFO order the client's
            # ticket queue relies on is undisturbed.
            self._decoder.apply_symbols(payload)
            self.symbols += 1
            return []
        except ProtocolError as error:
            # The decoder's state is now behind the shipper's: report, then
            # die, so both sides restart from empty, in-sync state.
            self.closed = True
            failure = ProtocolError(f"undecodable {kind.name} frame: {error!r}")
            return [(FrameKind.RESULT, ResultEncoder.encode_failure(failure))]

    # -- replies out ------------------------------------------------------ #
    def respond(self, reply: Reply) -> Tuple[FrameKind, bytes]:
        """The frame to send for ``reply``: a frame as is, a work item evaluated.

        An evaluation error, or a result the wire cannot encode, is a failed
        ``RESULT``; the connection survives it.
        """
        if not isinstance(reply, WorkItem):
            return reply
        try:
            payload = self._results.encode(self._reasoner.reason_item(reply))
        except Exception as error:  # noqa: BLE001 - shipped back to the caller
            payload = self._results.encode_failure(error)
        self.items += 1
        return FrameKind.RESULT, payload


# --------------------------------------------------------------------------- #
# Client side, blocking streams: the threaded driver of ClientConnection
# --------------------------------------------------------------------------- #
class WorkerClient:
    """One handshaken connection to a worker.

    The blocking-stream driver of a :class:`ClientConnection` (which holds
    the data-plane state and the :class:`WireStats` record): this class
    only dials, moves bytes and waits.  It dials a TCP daemon, or
    :meth:`over_stream` handshakes over a stream already connected (the
    shared-memory byte stream).  The connection is *pipelined*: sends and receives are
    serialized separately, so several dispatcher threads (and the
    heartbeat) may each have a frame outstanding on the one stream at the
    same time -- the worker answers strictly in request order, so responses
    are matched to callers by the FIFO ticket queue rather than by locking
    the stream across the whole round trip.  While one caller waits out a
    long evaluation, the next caller's frame is already in the worker's
    receive buffer (and, with server-side read-ahead, already decoded),
    which is what lets a pipelined session keep a remote worker saturated.
    Any transport error closes the connection, raises at the caller that
    hit it, and fails every other in-flight ticket with
    :class:`BackendConnectionError` (their results can never arrive, so the
    fleet reroutes and resubmits them); a closed client is never reused --
    the fleet builds a fresh one (with fresh, in-sync delta state) on
    reconnect.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        reasoner_payload: bytes,
        *,
        attempts: int = CONNECT_ATTEMPTS,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
    ):
        sock = connect_with_backoff(address, attempts=attempts, ssl_context=ssl_context, server_hostname=server_hostname)
        self._handshake(sock, ClientConnection(address, auth_token=auth_token), reasoner_payload)

    @classmethod
    def over_stream(
        cls, stream: ByteStream, reasoner_payload: bytes, address: Tuple[str, int], *, peer: Optional[str] = None
    ) -> "WorkerClient":
        """Handshake over an already-connected ``stream``; ``peer`` names the worker in failures."""
        client = cls.__new__(cls)
        client._handshake(stream, ClientConnection(address, peer=peer), reasoner_payload)
        return client

    def _handshake(self, sock: ByteStream, connection: ClientConnection, reasoner_payload: bytes) -> None:
        self._connection = connection
        self.address = connection.address
        self.stats = connection.stats
        #: Serializes frame *sends* (and the shipper state, which must
        #: advance in wire order).
        self._send_lock = threading.Lock()
        #: At most one thread reads the stream at a time; responses are
        #: delivered to the head of the ticket queue.
        self._recv_lock = threading.Lock()
        #: Guards the ticket queue.
        self._state_lock = threading.Lock()
        self._sock: Optional[ByteStream] = sock
        try:
            chunks = connection.open(reasoner_payload)
            while not connection.is_open:
                # Only the transport and the framing are guarded: what the
                # frame *says* is the connection's to judge, with its own
                # error classes.
                try:
                    self._send(sock, chunks)
                    frame = recv_frame(sock)
                except (OSError, EOFError) as error:
                    raise connection.connection_lost(error) from error
                chunks = connection.receive_frame(*frame)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        self.abort(self._connection.closed_error())

    def abort(self, cause: BaseException) -> Any:
        """Close the stream and fail every in-flight ticket with ``cause``; returns it."""
        with self._state_lock:
            self._connection.abort(cause)
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        return cause

    def __enter__(self) -> "WorkerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request/response ------------------------------------------------ #
    @property
    def pending_count(self) -> int:
        """Frames sent whose responses have not yet arrived."""
        with self._state_lock:
            return self._connection.pending_count

    @staticmethod
    def _send(sock: ByteStream, chunks: List[bytes]) -> None:
        # One sendall per frame: the write pattern the tcp_fleet baseline
        # was measured with (coalescing belongs to the wire-gap change).
        for chunk in chunks:
            sock.sendall(chunk)

    def _post(self, chunks: List[bytes]) -> Ticket:
        """Queue a response ticket and send its request (send lock held)."""
        sock = self._sock
        if sock is None:
            raise self._connection.closed_error()
        ticket = Ticket()
        with self._state_lock:
            self._connection.expect(ticket)
        try:
            self._send(sock, chunks)
        except OSError as error:
            raise self.abort(self._connection.connection_lost(error)) from error
        return ticket

    def _await(self, ticket: Ticket) -> None:
        """Block until ``ticket`` settles, receiving frames when it is our turn.

        The elevator pattern: whichever waiter holds the receive lock reads
        response frames off the stream and delivers them to the head of the
        ticket queue until its own ticket settles; everyone else blocks on
        the lock and finds its ticket already settled when it gets in.
        """
        while not ticket.done:
            with self._recv_lock:
                if not ticket.done:
                    self._receive_one()

    def _receive_one(self) -> None:
        """Receive one frame and settle the oldest ticket (recv lock held)."""
        sock = self._sock
        if sock is None:
            raise self.abort(self._connection.closed_error())
        try:
            kind, payload = recv_frame(sock)
            with self._state_lock:
                self._connection.receive_frame(kind, payload)
        except ProtocolError as error:
            # The stream is desynced or out of order; the connection can
            # never be trusted again (errors.py: a protocol violation
            # closes the connection).
            raise self.abort(error)
        except (OSError, EOFError) as error:
            raise self.abort(self._connection.connection_lost(error)) from error

    def submit_item(self, item: WorkItem) -> ReasonerResult:
        """Ship one work item and await its result.

        The send returns as soon as the frames are on the wire; the calling
        thread then waits on the FIFO ticket queue, so concurrent callers
        keep multiple work frames outstanding on this one connection.
        """
        with self._send_lock:
            ticket = self._post(self._connection.encode_item(item))
        self._await(ticket)
        try:
            return self._connection.take_result(ticket)
        except ProtocolError as error:
            raise self.abort(error)

    def ping(self) -> float:
        """Heartbeat round trip; returns the latency in seconds.

        On a pipelined connection the PONG queues behind the responses of
        the frames sent before it, so the reported latency includes any
        evaluation already in flight -- a heartbeat measures worker
        *liveness*, not idle round-trip time.
        """
        started = time.perf_counter()
        with self._send_lock:
            ticket = self._post([frame_bytes(FrameKind.PING)])
        self._await(ticket)
        try:
            with self._state_lock:  # the pings counter is shared by every pinging thread
                self._connection.take_pong(ticket)
        except ProtocolError as error:
            raise self.abort(error)
        return time.perf_counter() - started

    def try_ping(self) -> bool:
        """Non-throwing heartbeat; ``False`` (and closed) on a dead peer."""
        try:
            self.ping()
            return True
        except BackendError:
            return False


# --------------------------------------------------------------------------- #
# Server side, blocking streams: the threaded driver of ServerConnection
# --------------------------------------------------------------------------- #
#: Replies a connection decodes ahead of its evaluation loop: enough that a
#: pipelining coordinator's next window is decoded when the current one is
#: done, few enough that an overloaded worker stops reading -- so the
#: coordinator's sends block and ``max_inflight`` stalls the producer.
READ_AHEAD = 8


def serve_worker_connection(connection: ByteStream, *, auth_token: Optional[str] = None) -> ServerConnection:
    """Serve one coordinator connection until it closes; returns its :class:`ServerConnection`.

    The blocking-stream driver, of a TCP daemon's socket and of a
    shared-memory worker's byte stream alike: a reader thread feeds the
    connection what arrives and queues its replies, at most
    :data:`READ_AHEAD` ahead; this thread answers them in order, one
    ``sendall`` per frame.  ``auth_token`` arms the ``AUTH`` challenge.
    """
    server = ServerConnection(auth_token=auth_token)
    replies: "queue.Queue[Optional[Reply]]" = queue.Queue(maxsize=READ_AHEAD)
    done = threading.Event()

    def offer(reply: Optional[Reply]) -> bool:
        # Never block forever on a full queue: once the evaluation loop is
        # gone (done set), drop the reply and let the reader exit.
        while not done.is_set():
            try:
                replies.put(reply, timeout=0.1)
                return True
            except queue.Full:
                continue
        return False

    def read_ahead() -> None:
        try:
            while not server.closed and (data := connection.recv(1 << 16)):
                for reply in server.receive_data(data):
                    if not offer(reply):
                        return
        except OSError:
            pass
        finally:
            offer(None)

    threading.Thread(target=read_ahead, name="streamrule-conn-reader", daemon=True).start()
    try:
        while (reply := replies.get()) is not None:
            send_frame(connection, *server.respond(reply))
    except OSError:
        pass
    finally:
        done.set()
        try:
            connection.close()
        except OSError:
            pass
    return server
