"""The asyncio-native serving surface: many cheap sessions on one event loop.

The synchronous :class:`~repro.streamrule.session.StreamSession` scales one
hot stream: its backpressure *blocks* the producer thread, so a process
serving thousands of concurrent standing queries would need a thread per
stream.  This module is the many-cheap-sessions shape of the same facade:

:class:`AsyncStreamSession`
    ``async def push/push_window/results/finish`` over the *same* session
    internals -- every dispatch still runs through
    ``StreamSession._dispatch_evaluation``, every gather through
    ``StreamSession._gather_solution``, and the in-flight queue still holds
    :class:`~repro.streamrule.session.PendingWindow` records.  The only
    asynchronous part is the *waiting*: where the sync facade blocks on a
    future, the async facade ``await``\\ s its completion, yielding the loop
    to the other sessions.  Because both facades share the dispatch/gather
    seam (and the stall accounting around it), they cannot diverge
    semantically -- the async equivalence suite in
    ``tests/streamrule/test_aio.py`` pins exactly that.

:class:`AsyncWorkerClient` / :class:`AsyncWorkerFleet` / :class:`AioTcpBackend`
    A non-blocking TCP client speaking the existing ``SRW1`` wire protocol
    (:mod:`repro.streamrule.net`): ``asyncio.open_connection`` instead of a
    blocking socket, one reader *task* per connection instead of the
    elevator pattern, and the same FIFO ticket queue -- the worker answers
    strictly in request order, so responses match to awaiting callers by
    position.  The handshake bytes come from the same
    :func:`~repro.streamrule.net.build_hello` /
    :func:`~repro.streamrule.net.parse_welcome` helpers the sync client
    uses, and slot routing reuses
    :func:`~repro.streamrule.fleet.initial_slot_owners` /
    :func:`~repro.streamrule.fleet.rerouted_owner`, so a track lands on the
    same worker whichever client drives the fleet.  One event loop can
    multiplex thousands of sessions over one shared fleet without a thread
    per session: per-slot ordering is kept by *chaining* each slot's
    dispatch tasks instead of dedicating a dispatcher thread per slot.

Failure semantics of the async fleet now match the sync fleet's
resubmission discipline: a roundtrip that hits a dead connection marks
the endpoint dead, reroutes the slot, and *resubmits the item on the
survivors* -- each endpoint is tried at most once, so a cascading outage
still terminates in :class:`~repro.streamrule.errors.BackendConnectionError`.
Only when no worker survives does the error reach the session's inline
fallback (which evaluates on the loop -- the one degraded-mode blocking
path, see below).  Previously the async fleet propagated the *first*
connection loss straight to that fallback, so every in-flight item of a
dead worker blocked the event loop on a local evaluation even though
healthy survivors were sitting idle; the equivalence suite now pins the
resubmission behaviour instead.

Adaptive backpressure composes with both transports: construct the session
with ``max_inflight="adaptive"`` and the shared gather seam feeds the AIMD
controller (:mod:`repro.streamrule.adaptive`) the same stall/queue-depth/
latency observations the sync facade would.

Degraded-mode caveat: the inline fallback (and a submit-time refusal)
evaluates partitions *on the event loop*, blocking it for the duration of
those evaluations.  That is the deliberate trade -- on a degraded transport
correctness and flow beat latency -- but it is the one place the async
facade stops being non-blocking; see ``docs/async-serving.md``.
"""

from __future__ import annotations

import asyncio
import ssl
import time
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.streamrule.backends import ExecutionBackend
from repro.streamrule.errors import (
    BackendConnectionError,
    BackendError,
    HandshakeError,
    ProtocolError,
)
from repro.streamrule.fleet import (
    EndpointLike,
    WorkerEndpoint,
    initial_slot_owners,
    rerouted_owner,
)
from repro.streamrule.metrics import Timer
from repro.streamrule.net import (
    MAGIC,
    MAX_FRAME_BYTES,
    DeltaShipper,
    FrameKind,
    WireStats,
    _FRAME_HEADER,
    _dumps,
    auth_mac,
    build_hello,
    decode_result,
    dumps_json,
    encode_reasoner_payload,
    loads_control,
    parse_welcome_fields,
)
from repro.streamrule.placement import PlacementStrategy
from repro.streamrule.reasoner import ReasonerResult
from repro.streamrule.session import PendingWindow, StreamSession, WindowSolution
from repro.streamrule.work import WorkItem
from repro.streaming.window import WindowDelta

__all__ = [
    "AioTcpBackend",
    "AsyncStreamSession",
    "AsyncWorkerClient",
    "AsyncWorkerFleet",
]


# --------------------------------------------------------------------------- #
# The asyncio wire client: SRW1 over asyncio streams
# --------------------------------------------------------------------------- #
class AsyncWorkerClient:
    """One handshaken asyncio connection to a worker daemon.

    The asyncio sibling of :class:`~repro.streamrule.net.WorkerClient`:
    same magic, same handshake (via the shared payload helpers), same
    pipelined FIFO discipline -- several work frames may be outstanding at
    once and the worker answers strictly in request order, so responses
    resolve the ticket queue's head.  Instead of the sync client's elevator
    pattern (whichever waiter holds the receive lock reads for everyone), a
    single long-lived reader task pumps response frames to the tickets; a
    transport error fails every in-flight ticket with
    :class:`BackendConnectionError` and closes the connection for good.

    Construct with :meth:`connect` (the constructor itself is transport
    plumbing).  All methods must run on the loop that connected.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ):
        if codec not in ("pickle", "restricted"):
            raise ValueError(f"codec must be 'pickle' or 'restricted', got {codec!r}")
        self.address = address
        self.codec = codec
        self.stats = WireStats()
        self.capabilities: Dict[str, bool] = {}
        self._auth_token = auth_token
        self._reader = reader
        self._writer = writer
        self._closed = False
        #: Serializes sends (and the delta shipper, which must advance in
        #: wire order); asyncio.Lock wakes waiters FIFO, so submission order
        #: is send order.
        self._send_lock = asyncio.Lock()
        self._pending: Deque["asyncio.Future[Tuple[FrameKind, bytes]]"] = deque()
        self._shipper: Optional[Any] = None
        self._decode_result: Callable[[bytes, Tuple[str, int]], ReasonerResult] = decode_result
        self._reader_task: Optional["asyncio.Task[None]"] = None

    @classmethod
    async def connect(
        cls,
        address: Tuple[str, int],
        reasoner_payload: bytes,
        *,
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ) -> "AsyncWorkerClient":
        """Connect with bounded exponential backoff and run the handshake.

        Mirrors the sync client's security surface: ``ssl_context`` wraps
        the connection in TLS (``server_hostname`` overrides the
        SNI/verification name), ``auth_token`` answers the worker's
        ``AUTH`` challenge, and ``codec="restricted"`` requires the
        restricted (non-pickle) dialect.  An :class:`ssl.SSLError` during
        the TLS handshake is a :class:`HandshakeError` immediately -- a
        certificate or protocol mismatch is a deployment bug that retrying
        cannot fix.
        """
        if attempts < 1:
            raise ValueError("at least one connection attempt is required")
        delay = base_delay
        failure: Optional[Exception] = None
        reader = writer = None
        tls_kwargs: Dict[str, object] = {}
        if ssl_context is not None:
            tls_kwargs["ssl"] = ssl_context
            if server_hostname is not None:
                tls_kwargs["server_hostname"] = server_hostname
        for attempt in range(attempts):
            if attempt:
                await asyncio.sleep(delay)
                delay = min(max_delay, delay * 2)
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(address[0], address[1], **tls_kwargs),
                    timeout=connect_timeout,
                )
                break
            except ssl.SSLError as error:
                raise HandshakeError(
                    f"TLS handshake with worker {address[0]}:{address[1]} failed: {error!r}"
                ) from error
            except (ConnectionResetError, BrokenPipeError) as error:
                if ssl_context is not None:
                    # The TCP connect succeeded and the peer then hung up on
                    # our ClientHello: it is not speaking TLS (e.g. a
                    # plaintext SRW1 daemon) -- permanent, don't retry.
                    raise HandshakeError(
                        f"TLS handshake with worker {address[0]}:{address[1]} failed: {error!r}"
                    ) from error
                failure = error
            except (OSError, asyncio.TimeoutError) as error:
                failure = error
        if reader is None or writer is None:
            raise BackendConnectionError(
                f"could not connect to worker {address[0]}:{address[1]} "
                f"after {attempts} attempts: {failure!r}"
            ) from failure
        client = cls(address, reader, writer, auth_token=auth_token, codec=codec)
        try:
            await client._handshake(reasoner_payload, delta_shipping, symbol_ids)
        except BaseException:
            client._close_transport()
            raise
        use_delta = bool(client.capabilities.get("delta_shipping"))
        use_ids = bool(client.capabilities.get("symbol_ids"))
        if client.capabilities.get("restricted_codec"):
            from repro.streamrule.codec import RestrictedResultDecoder, RestrictedShipper

            client._shipper = RestrictedShipper(delta_shipping=use_delta)
            client._decode_result = RestrictedResultDecoder().decode
        else:
            client._shipper = (
                DeltaShipper(delta_shipping=use_delta, symbol_ids=use_ids)
                if (use_delta or use_ids)
                else None
            )
        client._reader_task = asyncio.get_running_loop().create_task(client._read_loop())
        return client

    # -- lifecycle ------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return not self._closed

    @property
    def pending_count(self) -> int:
        """Frames sent whose responses have not yet arrived."""
        return len(self._pending)

    def abort(self, cause: BaseException) -> None:
        """Close the connection and fail every in-flight ticket (sync).

        The async spelling of :meth:`WorkerClient._abort`: pending results
        can never arrive once the stream is broken, so their awaiters get
        :class:`BackendConnectionError`.  Safe to call from the reader task
        or from fleet bookkeeping; idempotent.
        """
        self._close_transport()
        pending, self._pending = list(self._pending), deque()
        if pending:
            failure = (
                cause
                if isinstance(cause, BackendConnectionError)
                else BackendConnectionError(f"connection to worker {self.address} aborted: {cause!r}")
            )
            for ticket in pending:
                if not ticket.done():
                    ticket.set_exception(failure)

    async def close(self) -> None:
        """Abort the connection and await the reader task's exit."""
        self.abort(BackendConnectionError(f"connection to worker {self.address} is closed"))
        task, self._reader_task = self._reader_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown is best-effort
                pass

    def _close_transport(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - transports may already be broken
            pass

    # -- framing --------------------------------------------------------- #
    def _write_frame(self, kind: FrameKind, payload: bytes = b"") -> None:
        self._writer.write(_FRAME_HEADER.pack(len(payload), kind) + payload)

    async def _recv_frame(self) -> Tuple[FrameKind, bytes]:
        header = await self._reader.readexactly(_FRAME_HEADER.size)
        length, kind_byte = _FRAME_HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte bound")
        try:
            kind = FrameKind(kind_byte)
        except ValueError as error:
            raise ProtocolError(f"unknown frame kind {kind_byte!r}") from error
        payload = await self._reader.readexactly(length) if length else b""
        return kind, payload

    # -- handshake ------------------------------------------------------- #
    async def _handshake(self, reasoner_payload: bytes, delta_shipping: bool, symbol_ids: bool) -> None:
        """Run the client half of the handshake (MAGIC .. READY).

        Mirrors the sync client exactly, including the error taxonomy: a
        transport failure mid-handshake is a :class:`HandshakeError` (a
        plaintext client against a TLS daemon fails loudly here instead of
        being endlessly re-dialed), a worker demanding auth we cannot
        answer is a :class:`HandshakeError`, and a ``REJECT`` after the
        ``REASONER`` (bad token, refused codec) is one too.
        """
        restricted = self.codec == "restricted"
        hello, offered = build_hello(delta_shipping, symbol_ids, restricted=restricted)
        try:
            self._writer.write(MAGIC)
            self._write_frame(FrameKind.HELLO, hello)
            await self._writer.drain()
            kind, payload = await self._recv_frame()
        except (OSError, EOFError, asyncio.IncompleteReadError, ConnectionError) as error:
            raise HandshakeError(f"handshake with {self.address} failed: {error!r}") from error
        accepted, welcome = parse_welcome_fields(
            kind, payload, offered, self.address, allow_pickle=not restricted
        )
        self.capabilities = accepted
        if restricted and not accepted.get("restricted_codec"):
            raise HandshakeError(
                f"worker {self.address[0]}:{self.address[1]} did not accept the restricted codec; "
                "refusing to fall back to pickle"
            )
        nonce = welcome.get("nonce")
        try:
            if nonce is not None:
                if not self._auth_token:
                    raise HandshakeError(
                        f"worker {self.address[0]}:{self.address[1]} requires token auth "
                        "and this client has no token"
                    )
                self._write_frame(FrameKind.AUTH, dumps_json({"mac": auth_mac(self._auth_token, str(nonce))}))
            self._write_frame(FrameKind.REASONER, reasoner_payload)
            await self._writer.drain()
            kind, payload = await self._recv_frame()
        except (OSError, EOFError, asyncio.IncompleteReadError, ConnectionError) as error:
            raise HandshakeError(f"handshake with {self.address} failed: {error!r}") from error
        if kind is FrameKind.REJECT:
            reject = loads_control(payload, allow_pickle=not restricted)
            raise HandshakeError(
                f"worker {self.address[0]}:{self.address[1]} rejected the handshake: "
                f"{reject.get('reason', 'unspecified')}"
            )
        if kind is not FrameKind.READY:
            raise ProtocolError(f"expected READY, got {kind.name}")

    # -- the response pump ----------------------------------------------- #
    async def _read_loop(self) -> None:
        try:
            while True:
                kind, payload = await self._recv_frame()
                self.stats.bytes_in += len(payload)
                if not self._pending:
                    raise ProtocolError(f"unsolicited {kind.name} frame from {self.address}")
                ticket = self._pending.popleft()
                if not ticket.done():
                    ticket.set_result((kind, payload))
        except asyncio.CancelledError:
            self.abort(BackendConnectionError(f"connection to worker {self.address} is closed"))
            raise
        except (asyncio.IncompleteReadError, ConnectionError, OSError, EOFError) as error:
            self.abort(BackendConnectionError(f"connection to worker {self.address} lost: {error!r}"))
        except ProtocolError as error:
            self.abort(error)

    # -- request/response ------------------------------------------------ #
    async def submit_item(self, item: WorkItem) -> ReasonerResult:
        """Ship one work item (full or delta form) and await its result.

        The send completes as soon as the frames are written; the coroutine
        then awaits the FIFO ticket, so concurrent callers keep multiple
        work frames outstanding on this one connection.
        """
        loop = asyncio.get_running_loop()
        ticket: "asyncio.Future[Tuple[FrameKind, bytes]]" = loop.create_future()
        async with self._send_lock:
            if self._closed:
                raise BackendConnectionError(f"connection to worker {self.address} is closed")
            if self._shipper is not None:
                frames = self._shipper.encode_frames(item)
            else:
                frames = [(FrameKind.WORK, _dumps(item.thinned()))]
            try:
                # Leading SYMBOLS frames are one-way (no response, no
                # ticket); only the trailing work frame enters the queue.
                for sync_kind, sync_payload in frames[:-1]:
                    self._write_frame(sync_kind, sync_payload)
                    self.stats.symbol_frames += 1
                    self.stats.bytes_symbols += len(sync_payload)
                kind, payload = frames[-1]
                self._write_frame(kind, payload)
                self._pending.append(ticket)
                if kind is FrameKind.DELTA:
                    self.stats.items_delta += 1
                    self.stats.bytes_delta += len(payload)
                else:
                    self.stats.items_full += 1
                    self.stats.bytes_full += len(payload)
                await self._writer.drain()
            except (OSError, ConnectionError) as error:
                if self._pending and self._pending[-1] is ticket:
                    self._pending.pop()
                failure = BackendConnectionError(f"connection to worker {self.address} lost: {error!r}")
                self.abort(failure)
                raise failure from error
        response_kind, response = await ticket
        if response_kind is not FrameKind.RESULT:
            failure = ProtocolError(f"expected RESULT, got {response_kind.name}")
            self.abort(failure)
            raise failure
        try:
            return self._decode_result(response, self.address)
        except ProtocolError as failure:
            self.abort(failure)
            raise


# --------------------------------------------------------------------------- #
# The asyncio fleet: slot routing without threads
# --------------------------------------------------------------------------- #
class AsyncWorkerFleet:
    """Slot -> endpoint router over :class:`AsyncWorkerClient` connections.

    The asyncio sibling of :class:`~repro.streamrule.fleet.WorkerFleet`,
    sharing its layout helpers (slot ``i`` starts on endpoint ``i % n``;
    dead owners reroute round-robin over the survivors) but none of its
    locks -- everything runs on one event loop, so plain attribute state is
    already serialized.  Failure semantics match the sync fleet's
    resubmission discipline: a failed roundtrip retires the endpoint and
    resubmits the item on the survivors (each endpoint tried at most
    once); only a fleet-wide outage propagates
    :class:`BackendConnectionError` to the session's inline fallback.
    There is still no mid-stream *reconnect* here -- dead endpoints stay
    dead for the backend's lifetime.
    """

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        connect_attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ):
        self.endpoints: List[WorkerEndpoint] = [WorkerEndpoint.parse(endpoint) for endpoint in endpoints]
        if not self.endpoints:
            raise ValueError("a worker fleet needs at least one endpoint")
        if slots is not None and slots < 1:
            raise ValueError("a worker fleet needs at least one slot")
        self.slot_count: int = slots if slots is not None else len(self.endpoints)
        self.delta_shipping = delta_shipping
        self.symbol_ids = symbol_ids
        self.connect_attempts = connect_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.connect_timeout = connect_timeout
        self.ssl_context = ssl_context
        self.server_hostname = server_hostname
        self.auth_token = auth_token
        self.codec = codec
        self._clients: List[Optional[AsyncWorkerClient]] = [None] * len(self.endpoints)
        self._dead: List[bool] = [False] * len(self.endpoints)
        self._slot_owner: List[int] = initial_slot_owners(self.slot_count, len(self.endpoints))
        self._retired_stats = WireStats()
        #: How many slot reassignments dead workers have caused.
        self.reroutes = 0

    # -- lifecycle ------------------------------------------------------- #
    async def start(self, reasoner_payload: bytes) -> None:
        """Connect and handshake every endpoint concurrently.

        Unreachable endpoints are marked dead (their slots reroute); a
        :class:`HandshakeError` (a deployment bug, not a transient fault)
        closes everything and propagates; no reachable endpoint at all is
        a :class:`BackendConnectionError`.
        """
        self._payload = reasoner_payload
        indexes = [
            index
            for index in range(len(self.endpoints))
            if self._clients[index] is None and not self._dead[index]
        ]
        outcomes = await asyncio.gather(
            *(self._connect(index) for index in indexes), return_exceptions=True
        )
        handshake_failure: Optional[HandshakeError] = None
        for index, outcome in zip(indexes, outcomes):
            if isinstance(outcome, HandshakeError):
                handshake_failure = outcome
            elif isinstance(outcome, BackendConnectionError):
                self._mark_dead(index)
            elif isinstance(outcome, BaseException):
                raise outcome
            else:
                self._clients[index] = outcome
        if handshake_failure is not None:
            await self.close()
            raise handshake_failure
        if not self._alive_indexes():
            raise BackendConnectionError(
                f"no worker of the fleet {[str(e) for e in self.endpoints]} is reachable"
            )

    async def _connect(self, index: int) -> AsyncWorkerClient:
        endpoint = self.endpoints[index]
        assert self._payload is not None
        return await AsyncWorkerClient.connect(
            (endpoint.host, endpoint.port),
            self._payload,
            delta_shipping=self.delta_shipping,
            symbol_ids=self.symbol_ids,
            attempts=self.connect_attempts,
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            connect_timeout=self.connect_timeout,
            ssl_context=self.ssl_context,
            server_hostname=self.server_hostname,
            auth_token=self.auth_token,
            codec=self.codec,
        )

    def abort(self) -> None:
        """Synchronous teardown: abort every connection, fail their tickets."""
        clients, self._clients = self._clients, [None] * len(self.endpoints)
        for client in clients:
            if client is not None:
                self._retired_stats = self._retired_stats.merged_with(client.stats)
                client.abort(BackendConnectionError("fleet closed"))

    async def close(self) -> None:
        """Graceful teardown: abort connections and await their reader tasks."""
        clients, self._clients = self._clients, [None] * len(self.endpoints)
        self._dead = [False] * len(self.endpoints)
        self._slot_owner = initial_slot_owners(self.slot_count, len(self.endpoints))
        for client in clients:
            if client is not None:
                self._retired_stats = self._retired_stats.merged_with(client.stats)
                await client.close()

    # -- dispatch -------------------------------------------------------- #
    async def roundtrip(self, slot: int, item: WorkItem) -> ReasonerResult:
        """Evaluate ``item`` on ``slot``'s worker, resubmitting on survivors.

        The async spelling of the sync fleet's resubmission loop: a
        :class:`BackendConnectionError` retires the endpoint, reroutes the
        slot, and retries the item there -- each endpoint at most once, so
        a cascading outage terminates instead of spinning.  This covers
        *pending* dispatches too: when a worker dies with several frames
        outstanding, every awaiting roundtrip gets the failure from the
        client's ticket queue and re-enters this loop, so a mid-burst
        crash loses no window and duplicates none (the dead connection
        never delivered their results).  Only a fleet-wide outage
        propagates -- under a session that means the inline fallback (the
        one path that blocks the loop; previously *every* in-flight item
        of a dead worker took it, idling healthy survivors).
        """
        if not 0 <= slot < self.slot_count:
            raise ValueError(f"slot {slot} out of range for a {self.slot_count}-slot fleet")
        failure: Optional[BackendConnectionError] = None
        for _ in range(len(self.endpoints) + 1):
            client, owner = self._client_for_slot(slot)
            if client is None:
                break
            try:
                return await client.submit_item(item)
            except BackendConnectionError as error:
                failure = error
                self._mark_dead(owner)
        raise BackendConnectionError(
            f"no live worker left for slot {slot} (fleet {[str(e) for e in self.endpoints]})"
        ) from failure

    # -- introspection ---------------------------------------------------- #
    @property
    def alive_endpoints(self) -> List[WorkerEndpoint]:
        return [self.endpoints[index] for index in self._alive_indexes()]

    def slot_table(self) -> Dict[int, str]:
        """Current slot -> endpoint routing (diagnostic snapshot)."""
        return {slot: str(self.endpoints[owner]) for slot, owner in enumerate(self._slot_owner)}

    def pending_items(self) -> Dict[str, int]:
        """Frames in flight per endpoint (sent, response not yet received)."""
        return {
            str(endpoint): (client.pending_count if client is not None else 0)
            for endpoint, client in zip(self.endpoints, self._clients)
        }

    def wire_statistics(self) -> WireStats:
        """Aggregate :class:`WireStats` over all connections, live and retired."""
        merged = self._retired_stats
        for client in self._clients:
            if client is not None:
                merged = merged.merged_with(client.stats)
        return merged

    # -- internals -------------------------------------------------------- #
    _payload: Optional[bytes] = None

    def _alive_indexes(self) -> List[int]:
        return [
            index
            for index, client in enumerate(self._clients)
            if client is not None and client.alive
        ]

    def _client_for_slot(self, slot: int) -> Tuple[Optional[AsyncWorkerClient], int]:
        owner = self._slot_owner[slot]
        client = self._clients[owner]
        if client is not None and not client.alive:
            self._mark_dead(owner)
            client = None
        if client is not None:
            return client, owner
        alive = self._alive_indexes()
        if not alive:
            return None, owner
        new_owner = rerouted_owner(slot, alive)
        if new_owner != owner:
            self._slot_owner[slot] = new_owner
            self.reroutes += 1
        return self._clients[new_owner], new_owner

    def _mark_dead(self, index: int) -> None:
        client = self._clients[index]
        if client is not None:
            self._retired_stats = self._retired_stats.merged_with(client.stats)
            client.abort(BackendConnectionError(f"endpoint {self.endpoints[index]} retired"))
        self._clients[index] = None
        self._dead[index] = True
        alive = self._alive_indexes()
        if not alive:
            return
        for slot, owner in enumerate(self._slot_owner):
            if owner == index:
                self._slot_owner[slot] = rerouted_owner(slot, alive)
                self.reroutes += 1


# --------------------------------------------------------------------------- #
# The asyncio TCP backend: loop-bound, thread-free dispatch
# --------------------------------------------------------------------------- #
class AioTcpBackend(ExecutionBackend):
    """Dispatch work items to remote workers from inside an event loop.

    Implements the standard :class:`ExecutionBackend` protocol -- futures
    are plain :class:`concurrent.futures.Future`, so the session's
    dispatch/gather seam (and ``PendingWindow.done()``) works unchanged --
    but all I/O runs as asyncio tasks on the loop that started the backend,
    with no dispatcher threads.  Per-track ordering (the precondition for
    delta shipping and delta grounding) is preserved by *chaining*: each
    slot remembers its newest dispatch task, and the next item's task
    awaits it before submitting, so one slot's items hit the wire strictly
    in submission order while different slots proceed concurrently.

    Lifecycle is asynchronous: ``await backend.astart(reasoner)`` connects
    the fleet (the session's automatic ``backend.start`` then no-ops);
    ``await backend.aclose()`` tears it down gracefully.  The synchronous
    ``close()`` performs an abrupt teardown (transports closed, in-flight
    tickets failed) for non-async callers and finalizers.
    """

    name = "aio-tcp"
    is_remote = True
    uses_placement = True
    measures_wall_clock = True
    pipelined = True

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        placement: Optional[PlacementStrategy] = None,
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        connect_attempts: int = 5,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ):
        super().__init__(placement)
        self.endpoints = [WorkerEndpoint.parse(endpoint) for endpoint in endpoints]
        self.slots = slots
        self.delta_shipping = delta_shipping
        self.symbol_ids = symbol_ids
        self.connect_attempts = connect_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.connect_timeout = connect_timeout
        self.ssl_context = ssl_context
        self.server_hostname = server_hostname
        self.auth_token = auth_token
        self.codec = codec
        self._fleet: Optional[AsyncWorkerFleet] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slot_tails: Optional[List[Optional["asyncio.Task[ReasonerResult]"]]] = None
        self._final_stats: Dict[str, float] = {}

    @property
    def fleet(self) -> Optional[AsyncWorkerFleet]:
        """The live fleet coordinator (``None`` while closed)."""
        return self._fleet

    # -- lifecycle ------------------------------------------------------- #
    async def astart(self, reasoner) -> None:
        """Connect the fleet and bind ``reasoner`` (async ``start``)."""
        if self._reasoner is reasoner:
            return
        if self._reasoner is not None:
            await self.aclose()
        fleet = AsyncWorkerFleet(
            self.endpoints,
            slots=self.slots,
            delta_shipping=self.delta_shipping,
            symbol_ids=self.symbol_ids,
            connect_attempts=self.connect_attempts,
            base_delay=self.base_delay,
            max_delay=self.max_delay,
            connect_timeout=self.connect_timeout,
            ssl_context=self.ssl_context,
            server_hostname=self.server_hostname,
            auth_token=self.auth_token,
            codec=self.codec,
        )
        await fleet.start(encode_reasoner_payload(reasoner, self.codec))
        self._fleet = fleet
        self._loop = asyncio.get_running_loop()
        self._slot_tails = [None] * fleet.slot_count
        self._reasoner = reasoner

    async def aclose(self) -> None:
        """Gracefully close the fleet (async ``close``)."""
        fleet, self._fleet = self._fleet, None
        self._slot_tails = None
        self._loop = None
        self._reasoner = None
        if fleet is not None:
            self._final_stats = self._snapshot_stats(fleet)
            await fleet.close()

    def _start(self, reasoner) -> None:
        raise BackendError(
            "AioTcpBackend must be started from its event loop: "
            "'await backend.astart(reasoner)' before dispatching "
            "(AsyncStreamSession does this automatically)"
        )

    def _close(self) -> None:
        fleet, self._fleet = self._fleet, None
        self._slot_tails = None
        self._loop = None
        if fleet is not None:
            self._final_stats = self._snapshot_stats(fleet)
            fleet.abort()

    # -- dispatch -------------------------------------------------------- #
    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        self._require_started()
        fleet, loop, tails = self._fleet, self._loop, self._slot_tails
        assert fleet is not None and loop is not None and tails is not None
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is not loop:
            raise BackendError(
                "AioTcpBackend dispatches must run on the event loop that started it"
            )
        slot = self.placement.slot(item, fleet.slot_count)
        previous = tails[slot]
        bridged: "Future[ReasonerResult]" = Future()

        async def _run() -> ReasonerResult:
            if previous is not None and not previous.done():
                # Order barrier only: the predecessor's outcome belongs to
                # its own caller (asyncio.wait never re-raises it here).
                await asyncio.wait([previous])
            return await fleet.roundtrip(slot, item)

        task = loop.create_task(_run())
        tails[slot] = task

        def _bridge(finished: "asyncio.Task[ReasonerResult]") -> None:
            if bridged.cancelled():
                return
            if finished.cancelled():
                bridged.set_exception(BackendConnectionError("dispatch task cancelled"))
                return
            error = finished.exception()
            if error is not None:
                bridged.set_exception(error)
            else:
                bridged.set_result(finished.result())

        task.add_done_callback(_bridge)
        return bridged

    # -- introspection ---------------------------------------------------- #
    def pending_items(self) -> Dict[str, int]:
        """Wire-level queue depth per endpoint."""
        if self._fleet is None:
            return {}
        return self._fleet.pending_items()

    def transport_statistics(self) -> Dict[str, float]:
        return self.wire_statistics()

    def wire_statistics(self) -> Dict[str, float]:
        """Fleet traffic counters (final snapshot survives ``close``)."""
        if self._fleet is None:
            return dict(self._final_stats)
        return self._snapshot_stats(self._fleet)

    @staticmethod
    def _snapshot_stats(fleet: AsyncWorkerFleet) -> Dict[str, float]:
        stats = fleet.wire_statistics()
        return {
            "items_full": float(stats.items_full),
            "items_delta": float(stats.items_delta),
            "bytes_full": float(stats.bytes_full),
            "bytes_delta": float(stats.bytes_delta),
            "symbol_frames": float(stats.symbol_frames),
            "bytes_symbols": float(stats.bytes_symbols),
            "bytes_out": float(stats.bytes_out),
            "bytes_in": float(stats.bytes_in),
            "pings": float(stats.pings),
            "reroutes": float(fleet.reroutes),
            "alive_workers": float(len(fleet.alive_endpoints)),
        }


# --------------------------------------------------------------------------- #
# The async session facade
# --------------------------------------------------------------------------- #
class AsyncStreamSession:
    """``async`` push/results/finish over the synchronous session's seam.

    Wraps a :class:`~repro.streamrule.session.StreamSession` and reuses its
    windowing steppers, its ``_dispatch_evaluation`` / ``_gather_solution``
    halves, its :class:`PendingWindow` bookkeeping, and its stall/adaptive
    accounting -- the async facade adds *awaiting* where the sync facade
    blocks, nothing else, which is what the async/sync equivalence suite
    relies on.  Accepts every :class:`StreamSession` constructor argument
    (``max_inflight="adaptive"`` included)::

        async with AsyncStreamSession(program, window=..., backend=...) as session:
            await session.push(triples)
            await session.finish()
            async for solution in session.results():
                ...

    Multiplexing many sessions over one shared backend/reasoner: construct
    each with ``owns_backend=False`` and a distinct ``track_base`` (disjoint
    cache-track namespaces; with a pinned placement the bases also spread
    sessions across worker slots).  One session must be driven by one task
    at a time -- the cheap-concurrency unit is many sessions on one loop,
    not many tasks on one session.

    With an :class:`AioTcpBackend` the first ``push`` awaits the backend's
    ``astart`` automatically; other (thread-based) backends start exactly
    as they do under the sync facade, and their futures are awaited via a
    loop-safe done-callback, so the producer coroutine never blocks the
    loop while a window evaluates.  (Exception: the inline-fallback path
    evaluates on the loop -- see the module docstring.)
    """

    def __init__(self, program, **kwargs):
        self._session = StreamSession(program, **kwargs)

    # -- delegation ------------------------------------------------------ #
    @property
    def session(self) -> StreamSession:
        """The wrapped synchronous session (shared internals)."""
        return self._session

    @property
    def ingestion(self):
        return self._session.ingestion

    @property
    def fallbacks(self) -> int:
        return self._session.fallbacks

    @property
    def inflight_controller(self):
        return self._session.inflight_controller

    @property
    def inflight_count(self) -> int:
        return self._session.inflight_count

    @property
    def backend(self) -> ExecutionBackend:
        return self._session.backend

    @property
    def reasoner(self):
        return self._session.reasoner

    def effective_max_inflight(self) -> int:
        return self._session.effective_max_inflight()

    # -- lifecycle ------------------------------------------------------- #
    async def close(self, drain: bool = True) -> None:
        """Async :meth:`StreamSession.close`: drain (awaiting), then close.

        A session created with ``owns_backend=False`` leaves the backend
        running; an owned :class:`AioTcpBackend` is closed via ``aclose``.
        """
        session = self._session
        try:
            if drain:
                while session._inflight:
                    await self._gather_oldest()
        finally:
            if session.owns_backend:
                aclose = getattr(session.backend, "aclose", None)
                if aclose is not None:
                    await aclose()
                else:
                    session.backend.close()

    async def __aenter__(self) -> "AsyncStreamSession":
        return self

    async def __aexit__(self, *exc_info) -> None:
        # Mirror the sync facade: flush on a clean exit, abandon the
        # in-flight windows when an exception is already propagating.
        await self.close(drain=exc_info[0] is None)

    # -- the facade ------------------------------------------------------ #
    async def push(self, items) -> int:
        """Async :meth:`StreamSession.push`: awaits instead of blocking.

        Windows dispatch exactly as the sync facade would (same steppers,
        same ``max_inflight`` bound, same stall accounting); when the bound
        is reached the coroutine *awaits* the oldest window's futures,
        yielding the loop to the other sessions, instead of blocking the
        thread.
        """
        session = self._session
        await self._ensure_backend()
        count = 0
        for window in session._cut(session._as_items(items)):
            await self._enqueue(*window)
            count += 1
        return count

    async def push_window(
        self,
        items: Iterable,
        *,
        delta: Optional[WindowDelta] = None,
        index: Optional[int] = None,
        tag: Optional[object] = None,
        track_base: Optional[int] = None,
    ) -> None:
        """Async :meth:`StreamSession.push_window` (externally-windowed)."""
        session = self._session
        await self._ensure_backend()
        if index is None:
            index = session._push_index
            session._push_index += 1
        session._dispatch_into(
            session._inflight, index, session._ingest_window(items), delta, tag=tag, track_base=track_base
        )
        while len(session._inflight) >= session.effective_max_inflight():
            await self._gather_oldest(backpressure=True)

    async def finish(self) -> int:
        """Async :meth:`StreamSession.finish`: dispatch tails, drain all."""
        session = self._session
        await self._ensure_backend()
        count = session._finish_dispatch()
        while session._inflight:
            await self._gather_oldest()
        return count

    async def results(self, wait: bool = True):
        """Async generator of :class:`WindowSolution`, in window order.

        The async spelling of :meth:`StreamSession.results`: finished
        windows yield immediately; with ``wait=True`` the generator awaits
        in-flight windows as it reaches them, with ``wait=False`` it stops
        at the first unfinished one (and an idle drain touches no locks --
        the same fast path the sync facade guarantees).
        """
        session = self._session
        while session._ready:
            yield session._ready.popleft()
        while session._inflight:
            if not wait and not session._inflight[0].done():
                return
            await self._gather_oldest()
            while session._ready:
                yield session._ready.popleft()

    async def results_list(self, wait: bool = True) -> List[WindowSolution]:
        """Drain :meth:`results` into a list (convenience)."""
        return [solution async for solution in self.results(wait)]

    # -- internals ------------------------------------------------------- #
    async def _ensure_backend(self) -> None:
        """Run an async-lifecycle backend's ``astart`` for the session."""
        session = self._session
        astart = getattr(session.backend, "astart", None)
        if astart is not None and session.backend.reasoner is not session.reasoner:
            await astart(session.reasoner)

    async def _enqueue(self, index: int, items: List, delta) -> None:
        session = self._session
        session._dispatch_cut(session._inflight, index, items, delta)
        # Re-resolved every iteration, exactly like the sync facade: an
        # adaptive controller may cut its target mid-drain.
        while len(session._inflight) >= session.effective_max_inflight():
            await self._gather_oldest(backpressure=True)

    async def _gather_oldest(self, backpressure: bool = False) -> None:
        """Await the oldest in-flight window, then gather it synchronously.

        The gather half (combining, metrics, fallback bookkeeping) is the
        sync session's own ``_gather_solution`` -- by the time it runs,
        every future is done, so it never blocks the loop (except the
        documented inline-fallback path).  Stall accounting matches the
        sync facade: the bound was hit while the head was unfinished.
        """
        session = self._session
        pending = session._inflight.popleft()
        try:
            stalled = backpressure and not pending.done()
            if stalled:
                session.ingestion.backpressure_stalls += 1
                with Timer() as stall:
                    await self._await_pending(pending)
                session.ingestion.backpressure_wait_seconds += stall.seconds
            else:
                await self._await_pending(pending)
        except asyncio.CancelledError:
            # The window was not gathered; put it back so a later drain
            # (or close) still emits it -- cancellation must not lose or
            # reorder windows.
            session._inflight.appendleft(pending)
            raise
        fallbacks_before = session.fallbacks
        solution = session._gather_solution(pending)
        session._observe_gather(
            pending, stalled=stalled, failed=session.fallbacks > fallbacks_before
        )
        session._ready.append(solution)

    @staticmethod
    async def _await_pending(pending: PendingWindow) -> None:
        """Await every future of ``pending`` without consuming outcomes.

        Failures (including :class:`BackendConnectionError`) are left in
        the futures for ``_gather_solution`` to handle -- identical error
        timing to the sync facade.  Waiting is done with a loop-safe done
        callback rather than ``asyncio.wrap_future`` so that cancelling
        this coroutine never cancels (or consumes) the underlying work.
        """
        loop = asyncio.get_running_loop()
        for _item, future in pending.submissions:
            if future is None or future.done():
                continue
            event = asyncio.Event()
            future.add_done_callback(lambda _f, _set=event.set: loop.call_soon_threadsafe(_set))
            await event.wait()
