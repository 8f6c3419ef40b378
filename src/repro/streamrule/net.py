"""The wire layer shared by the TCP backend and the worker daemon.

This module is the single source of truth for how StreamRule work travels
between machines.  Everything here is transport mechanics; *what* gets
evaluated is still a :class:`~repro.streamrule.work.WorkItem` and *what*
comes back is still a :class:`~repro.streamrule.reasoner.ReasonerResult` --
the partition/combine protocol behind a versioned handshake on a real TCP
socket.

The frame grammar, the handshake sequence, capability negotiation and the
failure semantics are specified once, in ``docs/wire-protocol.md``; this
docstring only says where each part lives and why.

Layout
------
* **Framing and control payloads** -- :class:`FrameKind`,
  :func:`frame_bytes` / :func:`parse_frame_header` (the one header
  validation, behind the blocking :func:`recv_frame` and the incremental
  :class:`FrameParser`), JSON-or-pickle control frames.
* **Wire forms of a work item** -- :class:`DeltaShipper` /
  :class:`DeltaDecoder` and the classes they pickle (which must keep this
  module path: a peer from another build looks them up here).
* **The client as a state machine** -- :class:`ClientConnection`:
  everything a coordinator must *know* to talk SRW1 (handshake and its
  error taxonomy, capability intersection, shipper and result-decoder
  choice, the frames of an item with their :class:`WireStats`, the ticket
  FIFO), with no socket, lock, thread or event loop in it.
* **Two I/O drivers of that state machine** -- :class:`WorkerClient` here
  (blocking sockets, threads) and ``AsyncWorkerClient`` in
  :mod:`repro.streamrule.aio` (asyncio streams).  They dial, move bytes
  and wait; neither knows a frame kind beyond ``PING``.
* **The server half** -- :func:`serve_worker_connection`.

A new frame kind or capability is therefore added in :class:`FrameKind`,
:class:`ClientConnection` and :func:`serve_worker_connection` (plus
``docs/wire-protocol.md``) and nowhere else; where a slot is *routed* is
the business of :class:`repro.streamrule.fleet.SlotTable`.

Pipelined frames
----------------
The connection is *not* strict request/response: a coordinator may have
several ``WORK``/``DELTA`` (and ``PING``) frames outstanding at once.  The
server always answers strictly in request order, which is what lets the
client match responses to callers with a plain FIFO ticket queue
(:class:`ClientConnection`) and lets the worker read and decode ahead of its
evaluation loop (``read_ahead`` in :func:`serve_worker_connection`).  Any
transport error still kills the whole connection -- in-flight frames are
failed at the client and resubmitted elsewhere by the fleet.

Delta shipping
--------------
On a sliding window, consecutive work items of one track share most of
their facts: the window drops its ``slide`` oldest items and appends the
new arrivals.  When the ``delta_shipping`` capability is negotiated, the
client-side :class:`DeltaShipper` and the server-side :class:`DeltaDecoder`
each remember the previous fact tuple per track, and steady-state items
travel as :class:`FactDelta` frames -- copy-runs over the previous window
plus the literal arrivals (see :func:`diff_facts`) -- instead of full fact
sets.  The overlap between consecutive windows of a track lets the
coordinator skip re-sending the overlapping facts, so a frame sized by the
slide replaces a window-sized one.  Delta frames diff *fact sequences*: how
the worker then grounds the window is its own business.

Both peers update their per-track state in lockstep -- the client when it
encodes, the server when it decodes -- and a transport error closes the
connection, so the states can never silently diverge: a reconnected client
starts from an empty shipper and re-sends full facts.

Interned symbol ids
-------------------
Under the ``symbol_ids`` capability the peers additionally maintain a
per-connection replica pair of append-only
:class:`~repro.asp.syntax.symbols.SymbolTable`\\ s.  The shipper interns
every fact and sends the table's new tail ahead of the work frame as a
one-way ``SYMBOLS`` frame (a pickled
:class:`~repro.asp.syntax.symbols.SymbolDelta`; no response, so the FIFO
response order is undisturbed); work frames then carry flat u32 id arrays
(:class:`IdWorkItem`, or :class:`IdFactDelta` copy-runs on a sliding
window) instead of pickled atoms.  In steady state every fact in a window
has already been interned by an earlier window, so the wire cost of a
window collapses to ``4 bytes x |window|`` -- and, like delta shipping,
any desync kills the connection and both sides restart from empty tables.

Security
--------
In the default (``pickle``) codec the payloads are **pickles**: unpickling
executes arbitrary code by design, so run pickle-codec workers only on
trusted networks.  Three hardening layers are available for everything
else (see ``docs/deployment-security.md``):

* **TLS** -- pass an :class:`ssl.SSLContext` to the client
  (``ssl_context=``) and the daemon (``--tls-cert/--tls-key``); the TCP
  stream is wrapped before the first protocol byte.
* **Token auth** -- when the daemon holds a shared token, its ``WELCOME``
  carries a ``nonce`` and the client must answer with an ``AUTH`` frame
  containing ``HMAC-SHA256(token, nonce)`` before the reasoner is
  accepted; a bad or missing MAC is ``REJECT``\\ ed (a loud
  :class:`HandshakeError` at the client, never a hang).
* **Restricted codec** -- the ``restricted_codec`` capability switches
  every payload after the handshake to a JSON/packed-id schema
  (:mod:`repro.streamrule.codec`): the program ships as *text*, facts as
  structural encodings + u32 id arrays, results as packed ids against a
  worker-mastered response table.  A restricted peer never calls
  ``pickle.loads`` on network bytes; anything that would require pickle is
  ``REJECT``\\ ed instead.

Control frames (``HELLO``/``WELCOME``/``REJECT``) are self-describing:
new peers send compact JSON (first byte ``{``), old peers pickled dicts
(first byte ``\\x80``), and each side answers in the encoding it was
addressed in -- so the two generations interoperate without a protocol
version bump.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
import json
import pickle
import queue
import secrets
import socket
import ssl
import struct
import threading
import time
from collections import deque
from dataclasses import astuple, dataclass, field, replace
from typing import Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.asp.syntax.symbols import SymbolDelta, SymbolTable, pack_ids, unpack_ids
from repro.streamrule.errors import (
    BackendConnectionError,
    BackendError,
    HandshakeError,
    ProtocolError,
)
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.work import WorkFact, WorkItem

__all__ = [
    "DEFAULT_CAPABILITIES",
    "DeltaDecoder",
    "DeltaShipper",
    "FactDelta",
    "FrameKind",
    "IdFactDelta",
    "IdWorkItem",
    "MAGIC",
    "PROTOCOL_VERSION",
    "RemoteFailure",
    "WireStats",
    "WorkerClient",
    "announce_endpoint",
    "apply_facts_diff",
    "apply_id_runs",
    "auth_mac",
    "build_announce",
    "build_hello",
    "connect_with_backoff",
    "decode_result",
    "diff_facts",
    "diff_id_runs",
    "encode_reasoner_payload",
    "parse_announce",
    "parse_welcome_fields",
    "recv_frame",
    "send_frame",
    "serve_worker_connection",
]

#: First bytes of every connection; lets a worker reject stray connections
#: (port scanners, misdirected HTTP) before touching pickle.
MAGIC = b"SRW1"

#: Version of the frame grammar + handshake.  Bumped on incompatible
#: changes; peers with different versions refuse each other in the
#: handshake (``REJECT``) rather than misparsing frames.  Backwards-
#: compatible extensions (new optional capabilities) do NOT bump this.
PROTOCOL_VERSION = 1

#: Capabilities this build can negotiate (name -> default offer).
#: ``delta_shipping``: steady-state windows travel as copy-run deltas.
#: ``symbol_ids``: facts are interned per connection (``SYMBOLS`` frames
#: sync the table) and work items carry flat id arrays instead of
#: pickled atom graphs.
DEFAULT_CAPABILITIES: Dict[str, bool] = {"delta_shipping": True, "symbol_ids": True}

_FRAME_HEADER = struct.Struct(">IB")

#: Upper bound on a single frame payload; a length beyond this is treated
#: as a protocol violation (corrupt header) rather than an allocation.
MAX_FRAME_BYTES = 1 << 30


class FrameKind(enum.IntEnum):
    """Discriminator byte of every frame on the wire."""

    HELLO = 1  #: client -> server: ``{protocol, capabilities}``
    WELCOME = 2  #: server -> client: ``{protocol, capabilities}`` (accepted)
    REJECT = 3  #: server -> client: ``{protocol, reason}``; connection closes
    REASONER = 4  #: client -> server: pickled :class:`Reasoner`
    READY = 5  #: server -> client: reasoner installed, work may flow
    WORK = 6  #: client -> server: pickled :class:`WorkItem` (or :class:`IdWorkItem`)
    DELTA = 7  #: client -> server: pickled :class:`FactDelta` (or :class:`IdFactDelta`)
    RESULT = 8  #: server -> client: pickled :class:`ReasonerResult` or :class:`RemoteFailure`
    PING = 9  #: either direction: heartbeat probe (empty payload)
    PONG = 10  #: heartbeat reply (empty payload)
    SYMBOLS = 11  #: client -> server: pickled :class:`SymbolDelta`; one-way, no response
    ANNOUNCE = 12  #: worker -> registry: JSON ``{host, port, protocol}``; answered with ``PONG``
    AUTH = 13  #: client -> server: JSON ``{mac}`` proving knowledge of the shared token


# --------------------------------------------------------------------------- #
# Framing primitives
# --------------------------------------------------------------------------- #
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


def send_frame(connection: socket.socket, kind: FrameKind, payload: bytes = b"") -> None:
    """Write one frame with a single ``sendall``."""
    connection.sendall(frame_bytes(kind, payload))


def recv_exactly(connection: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`EOFError` on a closed peer."""
    chunks = []
    while count:
        chunk = connection.recv(count)
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(connection: socket.socket) -> Tuple[FrameKind, bytes]:
    """Read one frame; returns ``(kind, payload)``."""
    length, kind = parse_frame_header(recv_exactly(connection, _FRAME_HEADER.size))
    return kind, recv_exactly(connection, length)


def _dumps(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


# --------------------------------------------------------------------------- #
# Control-frame encoding (HELLO / WELCOME / REJECT / AUTH / ANNOUNCE)
# --------------------------------------------------------------------------- #
def dumps_json(value: Any) -> bytes:
    """Compact JSON control payload (first byte is always ``{``)."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def loads_control(payload: bytes, *, allow_pickle: bool = True) -> Dict[str, Any]:
    """Decode a control payload, sniffing JSON (``{``) vs pickle (``\\x80``).

    JSON is what current peers send; pickled dicts are the pre-auth
    spelling and stay accepted in the default trust model.  A restricted
    peer passes ``allow_pickle=False`` and never touches ``pickle.loads``
    for network bytes: a pickled control frame raises
    :class:`ProtocolError` instead of being decoded.
    """
    if payload[:1] == b"{":
        try:
            value = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ProtocolError(f"undecodable JSON control payload: {error!r}") from error
    elif allow_pickle:
        value = pickle.loads(payload)
    else:
        raise ProtocolError("pickled control frame refused (restricted codec)")
    if not isinstance(value, dict):
        raise ProtocolError(f"control payload must be a mapping, got {type(value).__name__}")
    return value


def auth_mac(token: str, nonce: str) -> str:
    """The ``AUTH`` proof: hex ``HMAC-SHA256(token, nonce)``.

    The token itself never crosses the wire; the server challenges with a
    fresh nonce per connection, so a captured MAC cannot be replayed
    against a later handshake.
    """
    return hmac.new(token.encode("utf-8"), nonce.encode("utf-8"), hashlib.sha256).hexdigest()


@dataclass
class RemoteFailure:
    """Wire wrapper distinguishing a worker-side exception from a result.

    Shared by the TCP and shared-memory transports: an evaluation error on
    the worker is pickled inside this wrapper, shipped back as a ``RESULT``
    frame, and re-raised at the caller -- the connection itself survives.
    """

    error: BaseException

    def rebuild(self) -> BaseException:
        return self.error


# --------------------------------------------------------------------------- #
# Shard-side fact-delta shipping
# --------------------------------------------------------------------------- #
#: An encoded delta operation: either ``(start, length)`` -- copy that run
#: from the previous fact tuple -- or a tuple of literal facts to insert.
FactDeltaOp = Union[Tuple[int, int], Tuple[WorkFact, ...]]

#: Minimum matched run worth encoding as a copy op; shorter matches travel
#: as literals (a copy op costs ~20 pickled bytes).
MIN_COPY_RUN = 4

#: Duplicate-fact bound: at most this many candidate positions are probed
#: per fact when matching, so degenerate streams (one fact repeated
#: thousands of times) stay linear.
MAX_MATCH_CANDIDATES = 8


@dataclass(frozen=True)
class FactDelta:
    """The wire form of a steady-state sliding-window work item.

    ``ops`` reconstructs the fact tuple against the track's previous facts
    -- copy runs for the content both windows share, literals for the
    arrivals -- so the frame size scales with the *change*, not the window;
    all other :class:`WorkItem` coordinates travel verbatim.
    """

    track: int
    epoch: int
    incremental: bool
    ops: Tuple[FactDeltaOp, ...]


def _is_copy_op(op: FactDeltaOp) -> bool:
    return len(op) == 2 and isinstance(op[0], int) and isinstance(op[1], int)


def overlap_length(previous: Tuple[WorkFact, ...], current: Tuple[WorkFact, ...]) -> int:
    """Largest ``k`` with ``previous[-k:] == current[:k]`` (0 when disjoint).

    This is exactly the sliding-window overlap structure: the facts that
    left form a prefix of the previous window, the new ones a suffix of
    the current one.  Kept as the reference model (and test oracle) of the
    overlap the shipper exploits; the production encoder is
    :func:`diff_facts`, which generalizes this to partitioners that regroup
    facts, so this helper is deliberately not part of the module's
    ``__all__`` surface.
    """
    if not previous or not current:
        return 0
    first = current[0]
    for index, fact in enumerate(previous):
        if fact == first:
            length = len(previous) - index
            if length <= len(current) and previous[index:] == current[:length]:
                return length
    return 0


def _diff_runs(previous: Tuple, current: Tuple) -> List[Tuple[bool, Tuple]]:
    """Greedy longest-run matcher shared by the fact and id delta forms.

    Returns tagged runs ``(is_copy, payload)``: copies carry ``(start,
    length)`` into ``previous``, literal runs carry the items themselves.
    Tagging matters for the id form, where a two-int literal run would be
    indistinguishable from a copy op.
    """
    index: Dict[Any, List[int]] = {}
    for position, fact in enumerate(previous):
        index.setdefault(fact, []).append(position)
    runs: List[Tuple[bool, Tuple]] = []
    literals: List[Any] = []
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
                runs.append((False, tuple(literals)))
                literals = []
            runs.append((True, (best_position, best_length)))
            cursor += best_length
        else:
            literals.append(current[cursor])
            cursor += 1
    if literals:
        runs.append((False, tuple(literals)))
    return runs


def diff_facts(previous: Tuple[WorkFact, ...], current: Tuple[WorkFact, ...]) -> Tuple[FactDeltaOp, ...]:
    """Encode ``current`` as copy-runs over ``previous`` plus literal facts.

    A greedy longest-run matcher (the delta-compression classic): for every
    position of ``current`` it probes where that fact occurs in
    ``previous`` and extends the longest contiguous match; runs of at least
    :data:`MIN_COPY_RUN` become ``(start, length)`` copy ops, everything
    else stays literal.  Cost is linear in practice (each probe either
    consumes a run or one literal).  This handles both overlap shapes the
    execution layer produces: order-preserving partitions (one long copy
    run -- the pure sliding window) and predicate-regrouping partitions
    (one copy run per predicate group straddling the slide).
    """
    return tuple(payload for _is_copy, payload in _diff_runs(previous, current))


def apply_facts_diff(previous: Tuple[WorkFact, ...], ops: Tuple[FactDeltaOp, ...]) -> Tuple[WorkFact, ...]:
    """Reconstruct the fact tuple :func:`diff_facts` encoded (exact order)."""
    parts: List[WorkFact] = []
    for op in ops:
        if _is_copy_op(op):
            start, length = op  # type: ignore[misc]
            if not (0 <= start and length >= 0 and start + length <= len(previous)):
                raise ProtocolError(
                    f"copy op ({start}, {length}) out of range for a {len(previous)}-fact window"
                )
            parts.extend(previous[start : start + length])
        else:
            parts.extend(op)  # type: ignore[arg-type]
    return tuple(parts)


# --------------------------------------------------------------------------- #
# Interned-id wire forms (the ``symbol_ids`` capability)
# --------------------------------------------------------------------------- #
#: An id delta operation: ``(start, length)`` copies that run from the
#: previous id tuple; a ``bytes`` value is a packed literal id run
#: (:func:`repro.asp.syntax.symbols.pack_ids`).  The two are structurally
#: distinct, unlike int facts in :data:`FactDeltaOp` tuples.
IdRunOp = Union[Tuple[int, int], bytes]


@dataclass(frozen=True)
class IdWorkItem:
    """Full wire form of a work item under the ``symbol_ids`` capability.

    ``id_data`` is the window's fact tuple as a packed u32 id array against
    the connection's synced symbol table -- any symbol it references was
    shipped in an earlier (or the immediately preceding) ``SYMBOLS`` frame.
    """

    track: int
    epoch: int
    incremental: bool
    id_data: bytes


@dataclass(frozen=True)
class IdFactDelta:
    """Delta wire form of a steady-state work item under ``symbol_ids``."""

    track: int
    epoch: int
    incremental: bool
    ops: Tuple[IdRunOp, ...]


def diff_id_runs(previous: Tuple[int, ...], current: Tuple[int, ...]) -> Tuple[IdRunOp, ...]:
    """Encode an id tuple as copy runs over the previous one (id form of
    :func:`diff_facts`); literal runs are packed to bytes."""
    return tuple(
        payload if is_copy else pack_ids(payload) for is_copy, payload in _diff_runs(previous, current)
    )


def apply_id_runs(previous: Tuple[int, ...], ops: Tuple[IdRunOp, ...]) -> Tuple[int, ...]:
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


class DeltaShipper:
    """Client-side per-track encoder choosing full vs. delta wire forms.

    A delta frame is sent only when its encoded payload is actually smaller
    than the full fact set's -- so disjoint (tumbling/hopping) windows, and
    any window the matcher cannot compress, automatically travel full.

    With ``symbol_ids`` on, the shipper additionally interns every fact in
    a connection-scoped :class:`SymbolTable` and emits the table's new tail
    as a ``SYMBOLS`` frame ahead of the work frame
    (:meth:`encode_frames`); the work frames themselves then carry flat id
    arrays (:class:`IdWorkItem` / :class:`IdFactDelta`), so a steady-state
    window whose facts are all known to the peer crosses the wire without
    pickling a single atom.
    """

    def __init__(self, *, delta_shipping: bool = True, symbol_ids: bool = False) -> None:
        self._delta_shipping = delta_shipping
        self._previous: Dict[int, Tuple[WorkFact, ...]] = {}
        self._prev_ids: Dict[int, Tuple[int, ...]] = {}
        self._table: Optional[SymbolTable] = SymbolTable() if symbol_ids else None
        self._synced = 0

    def encode_frames(self, item: WorkItem) -> List[Tuple[FrameKind, bytes]]:
        """Encode ``item`` into the frames to send, in order.

        The last frame is always the work frame (``WORK`` or ``DELTA``);
        under ``symbol_ids`` it may be preceded by one ``SYMBOLS`` frame
        carrying the symbols the peer has not seen yet.  Track state (and
        the synced-table watermark) advances exactly as the peer's decoder
        will on receipt.
        """
        if self._table is None:
            return [self._encode_facts(item)]
        frames: List[Tuple[FrameKind, bytes]] = []
        ids = tuple(self._table.intern_many(item.facts))
        sync = self._table.diff_since(self._synced)
        if sync:
            frames.append((FrameKind.SYMBOLS, _dumps(sync)))
            self._synced = sync.stop
        previous = self._prev_ids.get(item.track)
        self._prev_ids[item.track] = ids
        full_payload = _dumps(
            IdWorkItem(track=item.track, epoch=item.epoch, incremental=item.incremental, id_data=pack_ids(ids))
        )
        if self._delta_shipping and previous is not None:
            ops = diff_id_runs(previous, ids)
            if any(not isinstance(op, bytes) for op in ops):
                delta_payload = _dumps(
                    IdFactDelta(track=item.track, epoch=item.epoch, incremental=item.incremental, ops=ops)
                )
                if len(delta_payload) < len(full_payload):
                    frames.append((FrameKind.DELTA, delta_payload))
                    return frames
        frames.append((FrameKind.WORK, full_payload))
        return frames

    def _encode_facts(self, item: WorkItem) -> Tuple[FrameKind, bytes]:
        previous = self._previous.get(item.track)
        self._previous[item.track] = item.facts
        full_payload = _dumps(item)
        if self._delta_shipping and previous is not None:
            ops = diff_facts(previous, item.facts)
            if any(_is_copy_op(op) for op in ops):
                delta_payload = _dumps(
                    FactDelta(track=item.track, epoch=item.epoch, incremental=item.incremental, ops=ops)
                )
                if len(delta_payload) < len(full_payload):
                    return FrameKind.DELTA, delta_payload
        return FrameKind.WORK, full_payload

    def forget(self, track: Optional[int] = None) -> None:
        """Drop the remembered facts (all tracks, or one)."""
        if track is None:
            self._previous.clear()
            self._prev_ids.clear()
        else:
            self._previous.pop(track, None)
            self._prev_ids.pop(track, None)


class DeltaDecoder:
    """Server-side per-track decoder mirroring :class:`DeltaShipper`.

    Holds the replica :class:`SymbolTable` of the connection: ``SYMBOLS``
    frames append to it (:meth:`apply_symbols`), and id-form work frames
    resolve their id arrays against it.  An id the table cannot resolve
    means a lost ``SYMBOLS`` frame -- the error propagates and kills the
    connection, exactly like a desynced fact delta.
    """

    def __init__(self) -> None:
        self._previous: Dict[int, Tuple[WorkFact, ...]] = {}
        self._prev_ids: Dict[int, Tuple[int, ...]] = {}
        self._table = SymbolTable()

    def apply_symbols(self, payload: bytes) -> int:
        """Apply a ``SYMBOLS`` frame; returns the number of new symbols."""
        delta: SymbolDelta = pickle.loads(payload)
        return self._table.apply(delta)

    def decode(self, kind: FrameKind, payload: bytes) -> WorkItem:
        """Rebuild the :class:`WorkItem` of a ``WORK`` or ``DELTA`` frame.

        Older peers may send ``incremental=None`` (their "unset"); it
        decodes as ``False``.
        """
        value = pickle.loads(payload)
        if kind is FrameKind.WORK:
            if isinstance(value, IdWorkItem):
                ids = unpack_ids(value.id_data)
                facts = self._table.resolve_many(ids)
                self._prev_ids[value.track] = ids
                return WorkItem(facts=facts, track=value.track, epoch=value.epoch, incremental=bool(value.incremental))
            item: WorkItem = value
            self._previous[item.track] = item.facts
            if item.incremental is None:
                item = replace(item, incremental=False)
            return item
        if isinstance(value, IdFactDelta):
            previous_ids = self._prev_ids.get(value.track)
            if previous_ids is None:
                raise ProtocolError(f"DELTA frame for track {value.track} without a previous full window")
            ids = apply_id_runs(previous_ids, value.ops)
            self._prev_ids[value.track] = ids
            facts = self._table.resolve_many(ids)
            return WorkItem(facts=facts, track=value.track, epoch=value.epoch, incremental=bool(value.incremental))
        delta: FactDelta = value
        previous = self._previous.get(delta.track)
        if previous is None:
            raise ProtocolError(f"DELTA frame for track {delta.track} without a previous full window")
        facts = apply_facts_diff(previous, delta.ops)
        self._previous[delta.track] = facts
        return WorkItem(facts=facts, track=delta.track, epoch=delta.epoch, incremental=bool(delta.incremental))


# --------------------------------------------------------------------------- #
# Wire accounting
# --------------------------------------------------------------------------- #
@dataclass
class WireStats:
    """Per-connection traffic counters (payload bytes, excluding headers)."""

    items_full: int = 0  #: work items shipped as full fact sets
    items_delta: int = 0  #: work items shipped as :class:`FactDelta` frames
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
def build_hello(
    delta_shipping: bool, symbol_ids: bool, *, restricted: bool = False
) -> Tuple[bytes, Dict[str, bool]]:
    """Build the ``HELLO`` payload; returns ``(payload, offered)``.

    One spelling of the capability offer for every client implementation
    (:class:`WorkerClient` and the asyncio client in
    :mod:`repro.streamrule.aio`), so the two cannot drift.  ``restricted``
    additionally offers the ``restricted_codec`` capability -- the client
    must then refuse the connection (:class:`HandshakeError`) if the
    server's ``WELCOME`` does not accept it.
    """
    offered = dict(DEFAULT_CAPABILITIES)
    offered["delta_shipping"] = delta_shipping
    offered["symbol_ids"] = symbol_ids
    if restricted:
        offered["restricted_codec"] = True
    return dumps_json({"protocol": PROTOCOL_VERSION, "capabilities": offered}), offered


def parse_welcome_fields(
    kind: FrameKind,
    payload: bytes,
    offered: Dict[str, bool],
    address: Tuple[str, int],
    *,
    allow_pickle: bool = True,
) -> Tuple[Dict[str, bool], Dict[str, Any]]:
    """Validate the server's handshake answer.

    Returns ``(accepted capabilities, raw welcome fields)`` -- the raw
    fields carry handshake extensions such as the auth ``nonce``.  Raises
    :class:`HandshakeError` on a ``REJECT`` or a protocol-version mismatch
    and :class:`ProtocolError` on any other frame kind.  A capability is
    active only when both the offer and the ``WELCOME`` named it.
    """
    if kind is FrameKind.REJECT:
        reject = loads_control(payload, allow_pickle=allow_pickle)
        raise HandshakeError(
            f"worker {address[0]}:{address[1]} rejected the handshake: "
            f"{reject.get('reason', 'unspecified')} "
            f"(worker protocol {reject.get('protocol')}, ours {PROTOCOL_VERSION})"
        )
    if kind is not FrameKind.WELCOME:
        raise ProtocolError(f"expected WELCOME, got {kind.name}")
    welcome = loads_control(payload, allow_pickle=allow_pickle)
    if welcome.get("protocol") != PROTOCOL_VERSION:
        raise HandshakeError(
            f"worker {address[0]}:{address[1]} speaks protocol "
            f"{welcome.get('protocol')}, this client speaks {PROTOCOL_VERSION}"
        )
    accepted = {
        name: True for name, on in welcome.get("capabilities", {}).items() if on and offered.get(name)
    }
    return accepted, welcome


def encode_reasoner_payload(reasoner: Reasoner, codec: str = "pickle") -> bytes:
    """Build the ``REASONER`` frame payload for the given codec.

    The one place the pickle/restricted fork of the reasoner-shipping path
    lives: ``"pickle"`` ships the object itself, ``"restricted"`` ships
    the textual spec (:func:`repro.streamrule.codec.encode_reasoner_spec`)
    the worker rebuilds by *parsing*.  Both backends (sync and asyncio)
    call this so the two cannot drift.
    """
    if codec == "restricted":
        from repro.streamrule.codec import encode_reasoner_spec

        return encode_reasoner_spec(reasoner)
    return pickle.dumps(reasoner, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(payload: bytes, address: Tuple[str, int]) -> ReasonerResult:
    """Unpickle a ``RESULT`` payload, re-raising wrapped worker failures.

    Raises :class:`ProtocolError` on an undecodable payload (the caller
    must then abort the connection -- the stream can no longer be trusted)
    and the original worker-side exception when the payload is a
    :class:`RemoteFailure`.
    """
    try:
        value = pickle.loads(payload)
    except Exception as error:
        raise ProtocolError(f"undecodable RESULT payload from {address}: {error!r}") from error
    if isinstance(value, RemoteFailure):
        raise value.rebuild()
    return value


# --------------------------------------------------------------------------- #
# Connecting with bounded exponential backoff
# --------------------------------------------------------------------------- #
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
    attempts: int = 5,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    connect_timeout: float = 5.0,
    sleep: Callable[[float], None] = time.sleep,
    ssl_context: Optional[ssl.SSLContext] = None,
    server_hostname: Optional[str] = None,
) -> socket.socket:
    """TCP-connect to ``address``, retrying with exponential backoff.

    Makes up to ``attempts`` attempts; attempt ``i`` (0-based) is preceded
    by a ``min(max_delay, base_delay * 2**(i-1))`` pause.  Raises
    :class:`BackendConnectionError` once the budget is exhausted.  ``sleep``
    is injectable so tests can assert the schedule without waiting it out.

    With ``ssl_context`` the socket is TLS-wrapped (and the TLS handshake
    completed, still under ``connect_timeout``) before it is returned.  A
    TLS *negotiation* failure -- certificate rejected, or the peer is
    speaking plaintext SRW1 -- is permanent, not transient, so it raises
    :class:`HandshakeError` immediately instead of burning the retry
    budget.
    """
    if attempts < 1:
        raise ValueError("at least one connection attempt is required")
    delay = base_delay
    failure: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt:
            sleep(delay)
            delay = min(max_delay, delay * 2)
        try:
            connection = socket.create_connection(address, timeout=connect_timeout)
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
# Worker announce (registry rejoin)
# --------------------------------------------------------------------------- #
def build_announce(host: str, port: int) -> bytes:
    """The ``ANNOUNCE`` payload a worker sends to a fleet registry."""
    return dumps_json({"host": host, "port": int(port), "protocol": PROTOCOL_VERSION})


def parse_announce(payload: bytes) -> Tuple[str, int]:
    """Validate an ``ANNOUNCE`` payload; returns ``(host, port)``.

    Announce frames are always JSON -- a registry never unpickles, whatever
    its codec, because announces arrive from the *unauthenticated* edge of
    the fleet (the whole point is hearing from workers we lost).
    """
    fields = loads_control(payload, allow_pickle=False)
    if fields.get("protocol") != PROTOCOL_VERSION:
        raise ProtocolError(f"ANNOUNCE speaks protocol {fields.get('protocol')}, not {PROTOCOL_VERSION}")
    host, port = fields.get("host"), fields.get("port")
    if not isinstance(host, str) or not isinstance(port, int) or not (0 < port < 65536):
        raise ProtocolError(f"malformed ANNOUNCE fields: host={host!r} port={port!r}")
    return host, port


def announce_endpoint(
    registry_address: Tuple[str, int],
    worker_address: Tuple[str, int],
    *,
    timeout: float = 2.0,
    ssl_context: Optional[ssl.SSLContext] = None,
    server_hostname: Optional[str] = None,
) -> bool:
    """One worker->registry announce round trip; ``True`` when acknowledged.

    Best-effort by design: the registry may not be up (yet, or anymore),
    so every failure is swallowed into ``False`` and the worker's announce
    loop simply tries again next interval.
    """
    try:
        connection = socket.create_connection(registry_address, timeout=timeout)
    except OSError:
        return False
    try:
        if ssl_context is not None:
            connection = ssl_context.wrap_socket(
                connection, server_hostname=server_hostname or registry_address[0]
            )
        connection.sendall(MAGIC)
        send_frame(connection, FrameKind.ANNOUNCE, build_announce(*worker_address))
        kind, _ = recv_frame(connection)
        return kind is FrameKind.PONG
    except (OSError, EOFError, ProtocolError):
        return False
    finally:
        try:
            connection.close()
        except OSError:
            pass


# --------------------------------------------------------------------------- #
# Client side, sans-IO: everything a coordinator must know to talk SRW1
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConnectionSettings:
    """How a coordinator reaches and addresses its workers.

    The one value a backend builds from its constructor arguments and hands
    down: ``vars(settings)`` are the connection keywords of both fleets,
    :meth:`client_keywords` those of both clients.  The field list below is
    the only place those keywords are enumerated outside the public
    constructor signatures themselves.
    """

    delta_shipping: bool = True
    symbol_ids: bool = True
    connect_attempts: int = 5
    base_delay: float = 0.05
    max_delay: float = 2.0
    connect_timeout: float = 5.0
    ssl_context: Optional[ssl.SSLContext] = None
    server_hostname: Optional[str] = None
    auth_token: Optional[str] = None
    codec: str = "pickle"

    @classmethod
    def of(cls, arguments: Mapping[str, Any]) -> "ConnectionSettings":
        """Pick the settings, by name, out of a constructor's ``locals()``."""
        return cls(**{name: arguments[name] for name in cls.__dataclass_fields__})

    def client_keywords(self, attempts: Optional[int] = None) -> Dict[str, Any]:
        """The clients spell the dial budget ``attempts`` (default: ``connect_attempts``)."""
        keywords = dict(vars(self), attempts=self.connect_attempts if attempts is None else attempts)
        del keywords["connect_attempts"]
        return keywords


@dataclass(eq=False)
class Ticket:
    """One in-flight request awaiting its FIFO-ordered response frame.

    Plain data: a response fills ``kind``/``payload``, a broken connection
    fills ``error``, and either calls ``wake`` (if the driver gave one) --
    exactly once, whatever happens afterwards.
    """

    wake: Optional[Callable[[], None]] = None
    kind: Optional[FrameKind] = None
    payload: Optional[bytes] = None
    error: Optional[BaseException] = None
    done: bool = False

    def _settle(self, kind: Optional[FrameKind], payload: Optional[bytes], error: Optional[BaseException]) -> None:
        if not self.done:
            self.kind, self.payload, self.error = kind, payload, error
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
    ``READY`` handshake and its error taxonomy, the capability
    intersection, the choice of shipper and result decoder, the ordered
    frames of a work item with their :class:`WireStats` accounting, and the
    FIFO of outstanding tickets.  A driver moves the returned chunks to its
    transport *in order, one write per chunk*, feeds what arrives back in,
    and waits on tickets however its world waits.  When its transport fails
    (:meth:`connection_lost` says what that means) or a method here raises
    :class:`ProtocolError`, the driver closes the transport and calls
    :meth:`abort` -- the stream can no longer be trusted.

    Not thread-safe: a threaded driver serializes the calls that touch the
    ticket queue (:meth:`expect`, :meth:`receive_frame`, :meth:`abort`).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ) -> None:
        if codec not in ("pickle", "restricted"):
            raise ValueError(f"codec must be 'pickle' or 'restricted', got {codec!r}")
        self.address = address
        self.codec = codec
        self.stats = WireStats()
        self.capabilities: Dict[str, bool] = {}
        self.closed = False
        self.shipper: Any = None
        self._decode_result: Callable[[bytes, Tuple[str, int]], ReasonerResult] = decode_result
        self._auth_token = auth_token
        self._offered: Dict[str, bool] = {}
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

    def _worker(self) -> str:
        return f"worker {self.address[0]}:{self.address[1]}"

    # -- handshake ------------------------------------------------------- #
    def open(self, reasoner_payload: bytes, *, delta_shipping: bool = True, symbol_ids: bool = True) -> List[bytes]:
        """The opening chunks: ``MAGIC``, then a ``HELLO`` offering the capabilities.

        ``reasoner_payload`` follows in the ``REASONER`` frame once the
        ``WELCOME`` (and its auth challenge, if any) has been answered.
        """
        self._reasoner_payload = reasoner_payload
        hello, self._offered = build_hello(delta_shipping, symbol_ids, restricted=self.codec == "restricted")
        return [MAGIC, frame_bytes(FrameKind.HELLO, hello)]

    def _on_welcome(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        restricted = self.codec == "restricted"
        accepted, welcome = parse_welcome_fields(
            kind, payload, self._offered, self.address, allow_pickle=not restricted
        )
        if restricted and not accepted.get("restricted_codec"):
            raise HandshakeError(
                f"{self._worker()} did not accept the restricted codec; refusing to fall back to pickle"
            )
        chunks = []
        nonce = welcome.get("nonce")
        if nonce is not None:
            if not self._auth_token:
                raise HandshakeError(f"{self._worker()} requires token auth and this client has no token")
            mac = auth_mac(self._auth_token, str(nonce))
            chunks.append(frame_bytes(FrameKind.AUTH, dumps_json({"mac": mac})))
        chunks.append(frame_bytes(FrameKind.REASONER, self._reasoner_payload))
        self.capabilities = accepted
        self._stage = "ready"
        return chunks

    def _on_ready(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        if kind is FrameKind.REJECT:
            reject = loads_control(payload, allow_pickle=self.codec != "restricted")
            raise HandshakeError(
                f"{self._worker()} rejected the handshake: {reject.get('reason', 'unspecified')}"
            )
        if kind is not FrameKind.READY:
            raise ProtocolError(f"expected READY, got {kind.name}")
        use_delta = bool(self.capabilities.get("delta_shipping"))
        if self.capabilities.get("restricted_codec"):
            from repro.streamrule.codec import RestrictedResultDecoder, RestrictedShipper

            self.shipper = RestrictedShipper(delta_shipping=use_delta)
            self._decode_result = RestrictedResultDecoder().decode
        else:
            # With neither capability this still emits exactly one WORK
            # frame holding the pickled item.
            self.shipper = DeltaShipper(
                delta_shipping=use_delta, symbol_ids=bool(self.capabilities.get("symbol_ids"))
            )
        self._stage = "open"
        return []

    # -- frames in -------------------------------------------------------- #
    def receive_frame(self, kind: FrameKind, payload: bytes) -> List[bytes]:
        """Advance by one received frame; returns the chunks to send in answer.

        During the handshake the answer is its next step (``AUTH`` +
        ``REASONER`` after ``WELCOME``).  Once open, a frame is the
        response to the oldest outstanding request -- the worker answers
        strictly in request order -- and settles that ticket; a frame
        nobody asked for is a :class:`ProtocolError`.
        """
        if self._stage == "welcome":
            return self._on_welcome(kind, payload)
        if self._stage == "ready":
            return self._on_ready(kind, payload)
        self.stats.bytes_in += len(payload)
        if not self._pending:
            raise ProtocolError(f"unsolicited {kind.name} frame from {self.address}")
        self._pending.popleft()._settle(kind, payload, None)
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

        The last one is the ``WORK``/``DELTA`` frame whose response
        :meth:`expect` queues a ticket for; ``SYMBOLS`` frames ahead of it
        are one-way (no response, so no ticket).  The shipper's per-track
        state advances here, so calls must happen in wire order.
        """
        if self.closed:
            raise self.closed_error()
        chunks = []
        for kind, payload in self.shipper.encode_frames(item):
            if kind is FrameKind.SYMBOLS:
                self.stats.symbol_frames += 1
                self.stats.bytes_symbols += len(payload)
            elif kind is FrameKind.DELTA:
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

    def _response(self, ticket: Ticket, expected: FrameKind) -> bytes:
        if ticket.error is not None:
            raise ticket.error
        assert ticket.kind is not None and ticket.payload is not None
        if ticket.kind is not expected:
            raise ProtocolError(f"expected {expected.name}, got {ticket.kind.name}")
        return ticket.payload

    def take_result(self, ticket: Ticket) -> ReasonerResult:
        """The evaluated result a settled work ticket carries.

        Raises the ticket's failure, the worker-side exception a
        ``RESULT`` wraps (the connection survives that), or
        :class:`ProtocolError` for any other frame kind or an undecodable
        payload.
        """
        return self._decode_result(self._response(ticket, FrameKind.RESULT), self.address)

    def take_pong(self, ticket: Ticket) -> None:
        """Check a settled ``PING`` ticket (counts the completed heartbeat)."""
        self._response(ticket, FrameKind.PONG)
        self.stats.pings += 1


# --------------------------------------------------------------------------- #
# Client side, blocking sockets: the threaded driver of ClientConnection
# --------------------------------------------------------------------------- #
class WorkerClient:
    """One handshaken connection to a worker daemon.

    The blocking-socket driver of a :class:`ClientConnection` (which holds
    the negotiated capabilities, the per-track shipper and the
    :class:`WireStats` record): this class only dials, moves bytes and
    waits.  The connection is *pipelined*: sends and receives are
    serialized separately, so several dispatcher threads (and the
    heartbeat) may each have a frame outstanding on the one socket at the
    same time -- the worker answers strictly in request order, so responses
    are matched to callers by the FIFO ticket queue rather than by locking
    the socket across the whole round trip.  While one caller waits out a
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
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ):
        self._connection = ClientConnection(address, auth_token=auth_token, codec=codec)
        self.address = address
        self.codec = codec
        self.stats = self._connection.stats
        #: Serializes frame *sends* (and the shipper state, which must
        #: advance in wire order).
        self._send_lock = threading.Lock()
        #: At most one thread reads the socket at a time; responses are
        #: delivered to the head of the ticket queue.
        self._recv_lock = threading.Lock()
        #: Guards the ticket queue.
        self._state_lock = threading.Lock()
        sock = connect_with_backoff(
            address,
            attempts=attempts,
            base_delay=base_delay,
            max_delay=max_delay,
            connect_timeout=connect_timeout,
            sleep=sleep,
            ssl_context=ssl_context,
            server_hostname=server_hostname,
        )
        self._sock: Optional[socket.socket] = sock
        try:
            chunks = self._connection.open(reasoner_payload, delta_shipping=delta_shipping, symbol_ids=symbol_ids)
            while not self._connection.is_open:
                # Only the transport and the framing are guarded: what the
                # frame *says* is the connection's to judge, with its own
                # error classes.
                try:
                    self._send(sock, chunks)
                    frame = recv_frame(sock)
                except (OSError, EOFError) as error:
                    raise self._connection.connection_lost(error) from error
                chunks = self._connection.receive_frame(*frame)
        except BaseException:
            self.close()
            raise
        self.capabilities = self._connection.capabilities
        self._shipper = self._connection.shipper

    # -- lifecycle ------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        self.abort(self._connection.closed_error())

    def abort(self, cause: BaseException) -> Any:
        """Close the socket and fail every in-flight ticket with ``cause``; returns it."""
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
    def _send(sock: socket.socket, chunks: List[bytes]) -> None:
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
        response frames off the socket and delivers them to the head of the
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
        """Ship one work item (full or delta form) and await its result.

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
# Server side: the per-connection protocol loop
# --------------------------------------------------------------------------- #
@dataclass
class ServedConnection:
    """Outcome record of one served connection (returned for logging/tests)."""

    items: int = 0
    deltas: int = 0
    symbols: int = 0  #: SYMBOLS table-sync frames applied
    pings: int = 0
    rejected: Optional[str] = None
    capabilities: Dict[str, bool] = field(default_factory=dict)


def serve_worker_connection(
    connection: socket.socket,
    *,
    capabilities: Optional[Dict[str, bool]] = None,
    protocol_version: int = PROTOCOL_VERSION,
    reasoner_factory: Callable[[bytes], Reasoner] = pickle.loads,
    read_ahead: int = 8,
    auth_token: Optional[str] = None,
    codec: str = "pickle",
) -> ServedConnection:
    """Serve one coordinator connection until it closes.

    The server half of the protocol: validate magic, negotiate the
    handshake, install the shipped reasoner, then answer ``WORK`` /
    ``DELTA`` / ``PING`` frames until EOF.  Worker-side evaluation errors
    are wrapped in :class:`RemoteFailure` result frames; only transport
    errors end the loop.  Used by the daemon in
    :mod:`repro.streamrule.worker` (one call per accepted connection) and
    by in-process servers in the tests.

    ``read_ahead`` is the server half of connection pipelining: a reader
    thread receives and decodes up to that many frames ahead of the
    evaluation loop, so a pipelining coordinator's next window is already
    unpickled when the current evaluation finishes, and responses still go
    out strictly in request order (the invariant the client's FIFO ticket
    queue relies on).  The bound matters: once the queue is full the reader
    stops reading, the kernel's receive window fills, and the coordinator's
    sends block -- which is exactly how worker-side overload propagates back
    through the session's ``max_inflight`` bound to stall the producer.

    ``auth_token`` arms the challenge/response: the ``WELCOME`` carries a
    fresh nonce and the peer must answer with a valid ``AUTH`` MAC before
    its ``REASONER`` is looked at.  ``codec="restricted"`` *requires* the
    ``restricted_codec`` capability (rejecting pickle peers outright) and
    never unpickles a network byte; ``codec="pickle"`` still *speaks*
    restricted when the peer asks for it -- the capability decides the
    connection's dialect.
    """
    if codec not in ("pickle", "restricted"):
        raise ValueError(f"codec must be 'pickle' or 'restricted', got {codec!r}")
    record = ServedConnection()
    restricted_only = codec == "restricted"
    supported = dict(DEFAULT_CAPABILITIES) if capabilities is None else dict(capabilities)
    supported.setdefault("restricted_codec", True)
    try:
        try:
            magic = recv_exactly(connection, len(MAGIC))
        except (EOFError, OSError):
            return record
        if magic != MAGIC:
            record.rejected = "bad magic"
            return record
        kind, payload = recv_frame(connection)
        if kind is not FrameKind.HELLO:
            record.rejected = f"expected HELLO, got {kind.name}"
            return record
        # Answer in the encoding the HELLO arrived in: JSON peers get JSON
        # control frames, legacy pickle peers get pickled ones.
        reply_dumps: Callable[[Any], bytes] = dumps_json if payload[:1] == b"{" else _dumps

        def reject(
            reason: str, rejected: Optional[str] = None, dumps: Callable[[Any], bytes] = reply_dumps
        ) -> ServedConnection:
            record.rejected = rejected or reason
            send_frame(connection, FrameKind.REJECT, dumps({"protocol": protocol_version, "reason": reason}))
            return record

        try:
            hello = loads_control(payload, allow_pickle=not restricted_only)
        except ProtocolError:
            # The peer's pickle is refused, so the refusal is JSON whatever it sent.
            return reject("restricted codec required", dumps=dumps_json)
        if hello.get("protocol") != protocol_version:
            return reject("protocol version mismatch", f"protocol {hello.get('protocol')} != {protocol_version}")
        accepted = {
            name: True for name, on in hello.get("capabilities", {}).items() if on and supported.get(name)
        }
        restricted = bool(accepted.get("restricted_codec"))
        if restricted_only and not restricted:
            return reject("restricted codec required")
        record.capabilities = accepted
        welcome: Dict[str, Any] = {"protocol": protocol_version, "capabilities": accepted}
        nonce: Optional[str] = None
        if auth_token is not None:
            nonce = secrets.token_hex(16)
            welcome["nonce"] = nonce
        send_frame(connection, FrameKind.WELCOME, reply_dumps(welcome))
        kind, payload = recv_frame(connection)
        if nonce is not None:
            if kind is not FrameKind.AUTH:
                return reject("authentication required")
            try:
                mac = loads_control(payload, allow_pickle=False).get("mac")
            except ProtocolError:
                mac = None
            if not isinstance(mac, str) or not hmac.compare_digest(mac, auth_mac(auth_token, nonce)):
                return reject("authentication failed")
            kind, payload = recv_frame(connection)
        if kind is not FrameKind.REASONER:
            record.rejected = f"expected REASONER, got {kind.name}"
            return record
        if restricted:
            from repro.streamrule.codec import RestrictedServerCodec, reasoner_from_spec

            server_codec: Optional["RestrictedServerCodec"] = RestrictedServerCodec()
            reasoner = reasoner_from_spec(payload)
        else:
            server_codec = None
            reasoner = reasoner_factory(payload)
        send_frame(connection, FrameKind.READY)

        def encode_response(response: object) -> bytes:
            if server_codec is not None:
                if isinstance(response, RemoteFailure):
                    return server_codec.encode_error(response.error)
                try:
                    return server_codec.encode_result(response)  # type: ignore[arg-type]
                except Exception as error:  # noqa: BLE001 - encoding failures ship as errors
                    return server_codec.encode_error(
                        BackendError(f"unencodable worker response ({error!r})")
                    )
            try:
                return _dumps(response)
            except Exception as error:  # noqa: BLE001 - pickling raises Type/Attribute errors too
                return _dumps(
                    RemoteFailure(BackendError(f"unpicklable worker response ({error!r}): {response!r}"))
                )

        decoder: Any = server_codec if server_codec is not None else DeltaDecoder()
        frames: "queue.Queue[Tuple[Optional[FrameKind], Any]]" = queue.Queue(maxsize=max(1, read_ahead))
        done = threading.Event()

        def _offer(entry: Tuple[Optional[FrameKind], Any]) -> bool:
            # Never block forever on a full queue: if the evaluation loop is
            # gone (done set), drop the entry and let the reader exit.
            while not done.is_set():
                try:
                    frames.put(entry, timeout=0.1)
                    return True
                except queue.Full:
                    continue
            return False

        def _read_ahead() -> None:
            # Receive and decode ahead of the evaluation loop.  Decoding
            # happens here, in receive order, so the delta decoder's
            # per-track state advances exactly as the shipper's did.
            while True:
                try:
                    kind, payload = recv_frame(connection)
                except (EOFError, OSError, ProtocolError):
                    _offer((None, None))
                    return
                if kind is FrameKind.PING:
                    if not _offer((kind, None)):
                        return
                    continue
                if kind is FrameKind.SYMBOLS:
                    # One-way table sync: apply in receive order, no queue
                    # entry (so no response frame -- the FIFO order the
                    # client's ticket queue relies on is undisturbed).
                    try:
                        decoder.apply_symbols(payload)
                    except BaseException as error:  # noqa: BLE001 - reported, then the connection dies
                        _offer((None, ProtocolError(f"undecodable SYMBOLS frame: {error!r}")))
                        return
                    record.symbols += 1
                    continue
                if kind not in (FrameKind.WORK, FrameKind.DELTA):
                    _offer((None, None))  # protocol violation: drop the connection
                    return
                try:
                    item = decoder.decode(kind, payload)
                except BaseException as error:  # noqa: BLE001 - reported, then the connection dies
                    # A frame that cannot be decoded leaves the decoder's
                    # per-track state behind the shipper's; the connection
                    # must die so both sides restart from empty, in-sync
                    # state (the module invariant).
                    _offer((None, ProtocolError(f"undecodable {kind.name} frame: {error!r}")))
                    return
                if not _offer((kind, item)):
                    return

        reader = threading.Thread(target=_read_ahead, name="streamrule-conn-reader", daemon=True)
        reader.start()
        try:
            while True:
                kind, item = frames.get()
                if kind is None:
                    if item is not None:
                        # Decode failure: best-effort error report first.
                        try:
                            send_frame(connection, FrameKind.RESULT, encode_response(RemoteFailure(item)))
                        except (OSError, TypeError, ValueError, pickle.PicklingError):
                            pass
                    return record
                if kind is FrameKind.PING:
                    record.pings += 1
                    send_frame(connection, FrameKind.PONG)
                    continue
                response: object
                try:
                    response = reasoner.reason_item(item)
                except BaseException as error:  # noqa: BLE001 - shipped back to the caller
                    response = RemoteFailure(error)
                response_payload = encode_response(response)
                record.items += 1
                if kind is FrameKind.DELTA:
                    record.deltas += 1
                send_frame(connection, FrameKind.RESULT, response_payload)
        finally:
            done.set()
    except (EOFError, OSError):
        return record
    finally:
        try:
            connection.close()
        except OSError:
            pass
