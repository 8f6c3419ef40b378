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
    The asyncio *drivers* of the ``SRW1`` transport.  What the protocol
    says lives in :class:`~repro.streamrule.net.ClientConnection` and
    where a slot goes in :class:`~repro.streamrule.fleet.SlotTable` -- the
    same two objects the blocking stack drives -- so nothing here builds a
    handshake frame, matches a response to a caller or picks a survivor;
    a track lands on the same worker, and the same bytes cross the wire,
    whichever stack runs.  This module contributes the waiting:
    ``asyncio.open_connection`` instead of a blocking socket, one reader
    *task* per connection instead of the elevator pattern, ``gather``
    instead of threads.  One event loop can multiplex thousands of
    sessions over one shared fleet without a thread per session:
    per-slot ordering is kept by *chaining* each slot's dispatch tasks
    instead of dedicating a dispatcher thread per slot.

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

Degraded-mode caveat: the inline fallback (and a submit-time refusal)
evaluates partitions *on the event loop*, blocking it for the duration of
those evaluations.  That is the deliberate trade -- on a degraded transport
correctness and flow beat latency -- but it is the one place the async
facade stops being non-blocking; see ``docs/async-serving.md``.
"""

from __future__ import annotations

import asyncio
import contextlib
import ssl
from collections import deque
from concurrent.futures import Future
from typing import Any, Deque, Iterable, List, Optional, Sequence, Tuple

from repro.streamrule.backends import ExecutionBackend, FleetBackend
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.errors import BackendConnectionError, BackendError, HandshakeError, ProtocolError
from repro.streamrule.fleet import EndpointLike, FleetView, WorkerEndpoint
from repro.streamrule.metrics import Timer
from repro.streamrule.net import (
    CONNECT_ATTEMPTS,
    CONNECT_TIMEOUT,
    ClientConnection,
    ConnectionSettings,
    FrameKind,
    FrameParser,
    Ticket,
    backoff_delays,
    dial_failure,
    tls_failure,
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

#: Upper bound of one ``StreamReader.read``; frames may span reads.
_READ_BYTES = 1 << 16


# --------------------------------------------------------------------------- #
# The asyncio wire client: SRW1 over asyncio streams
# --------------------------------------------------------------------------- #
class AsyncWorkerClient:
    """One handshaken asyncio connection to a worker daemon.

    The asyncio driver of a :class:`~repro.streamrule.net.ClientConnection`
    -- the same protocol state machine the blocking
    :class:`~repro.streamrule.net.WorkerClient` drives, so handshake,
    frame sequence and ticket FIFO cannot differ between the two.  This
    class only dials, moves bytes and waits: instead of the sync client's
    elevator pattern (whichever waiter holds the receive lock
    reads for everyone), a single long-lived reader task feeds arriving
    bytes to the connection, which settles the tickets; a transport error
    fails every in-flight ticket with :class:`BackendConnectionError` and
    closes the connection for good.

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
    ):
        self._connection = ClientConnection(address, auth_token=auth_token)
        self.address = address
        self.stats = self._connection.stats
        self._reader = reader
        self._writer = writer
        self._parser = FrameParser()
        self._frames: Deque[Tuple[FrameKind, bytes]] = deque()  # cut from the stream, not yet interpreted
        #: Serializes sends (and the shipper, which must advance in wire
        #: order); asyncio.Lock wakes waiters FIFO, so submission order is
        #: send order.
        self._send_lock = asyncio.Lock()
        self._reader_task: Optional["asyncio.Task[None]"] = None

    @classmethod
    async def connect(
        cls,
        address: Tuple[str, int],
        reasoner_payload: bytes,
        *,
        attempts: int = CONNECT_ATTEMPTS,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
    ) -> "AsyncWorkerClient":
        """Connect with bounded exponential backoff and run the handshake.

        The pauses between attempts are the blocking dialer's own
        (:func:`~repro.streamrule.net.backoff_delays`).

        Mirrors the sync client's security surface: ``ssl_context`` wraps
        the connection in TLS (``server_hostname`` overrides the
        SNI/verification name) and ``auth_token`` answers the worker's
        ``AUTH`` challenge.  An :class:`ssl.SSLError` during
        the TLS handshake is a :class:`HandshakeError` immediately -- a
        certificate or protocol mismatch is a deployment bug that retrying
        cannot fix.
        """
        failure: Optional[Exception] = None
        reader = writer = None
        for delay in backoff_delays(attempts):
            if delay:
                await asyncio.sleep(delay)
            try:
                # asyncio refuses a server_hostname without ssl.
                dial = asyncio.open_connection(
                    *address, ssl=ssl_context, server_hostname=server_hostname if ssl_context else None
                )
                reader, writer = await asyncio.wait_for(dial, timeout=CONNECT_TIMEOUT)
                break
            except ssl.SSLError as error:
                raise tls_failure(address, error) from error
            except (ConnectionResetError, BrokenPipeError) as error:
                if ssl_context is not None:
                    # The TCP connect succeeded and the peer then hung up on
                    # our ClientHello: it is not speaking TLS (e.g. a
                    # plaintext SRW1 daemon) -- permanent, don't retry.
                    raise tls_failure(address, error) from error
                failure = error
            except (OSError, asyncio.TimeoutError) as error:
                failure = error
        if reader is None or writer is None:
            raise dial_failure(address, attempts, failure) from failure
        client = cls(address, reader, writer, auth_token=auth_token)
        connection = client._connection
        try:
            chunks = connection.open(reasoner_payload)
            while not connection.is_open:
                # Only the transport and the framing are guarded: what the
                # frame *says* is the connection's to judge, with its own
                # error classes.
                try:
                    client._write(chunks)
                    await writer.drain()
                    frame = await client._recv_frame()
                except (OSError, EOFError) as error:
                    raise connection.connection_lost(error) from error
                chunks = connection.receive_frame(*frame)
        except BaseException as error:
            client.abort(error)
            raise
        client._reader_task = asyncio.get_running_loop().create_task(client._read_loop())
        return client

    # -- lifecycle ------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return not self._connection.closed

    @property
    def pending_count(self) -> int:
        """Frames sent whose responses have not yet arrived."""
        return self._connection.pending_count

    def abort(self, cause: BaseException) -> Any:
        """Close the connection and fail every in-flight ticket (sync).

        Pending results can never arrive once the stream is broken, so
        their awaiters get :class:`BackendConnectionError`.  Safe to call
        from the reader task or from fleet bookkeeping; idempotent.
        Returns ``cause``.
        """
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 - transports may already be broken
            pass
        return self._connection.abort(cause)

    async def close(self) -> None:
        """Abort the connection and await the reader task's exit."""
        self.abort(self._connection.closed_error())
        task, self._reader_task = self._reader_task, None
        if task is not None and task is not asyncio.current_task():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001 - teardown is best-effort
                pass

    # -- moving bytes ------------------------------------------------------ #
    def _write(self, chunks: List[bytes]) -> None:
        for chunk in chunks:
            self._writer.write(chunk)

    async def _recv_frame(self) -> Tuple[FrameKind, bytes]:
        """The next frame off the stream (reads may complete none or several)."""
        while not self._frames:
            data = await self._reader.read(_READ_BYTES)
            if not data:
                raise EOFError("peer closed the connection")
            self._frames.extend(self._parser.feed(data))
        return self._frames.popleft()

    async def _read_loop(self) -> None:
        """The response pump: arriving frames settle the ticket queue's head."""
        try:
            while True:
                self._connection.receive_frame(*await self._recv_frame())
        except asyncio.CancelledError:
            self.abort(self._connection.closed_error())
            raise
        except ProtocolError as error:  # before OSError, which it inherits from
            self.abort(error)
        except (OSError, EOFError) as error:
            self.abort(self._connection.connection_lost(error))

    # -- request/response ------------------------------------------------ #
    async def submit_item(self, item: WorkItem) -> ReasonerResult:
        """Ship one work item and await its result.

        The send completes as soon as the frames are written; the coroutine
        then awaits the FIFO ticket, so concurrent callers keep multiple
        work frames outstanding on this one connection.
        """
        settled = asyncio.Event()  # only wakes us; the ticket carries its own outcome
        ticket = Ticket(settled.set)
        async with self._send_lock:
            chunks = self._connection.encode_item(item)
            self._connection.expect(ticket)
            try:
                self._write(chunks)
                await self._writer.drain()
            except OSError as error:
                raise self.abort(self._connection.connection_lost(error)) from error
        await settled.wait()
        try:
            return self._connection.take_result(ticket)
        except ProtocolError as error:
            raise self.abort(error)


# --------------------------------------------------------------------------- #
# The asyncio fleet: slot routing without threads
# --------------------------------------------------------------------------- #
class AsyncWorkerFleet(FleetView):
    """Slot -> endpoint router over :class:`AsyncWorkerClient` connections.

    The asyncio driver of the :class:`~repro.streamrule.fleet.SlotTable`
    the sync :class:`~repro.streamrule.fleet.WorkerFleet` drives too (slot
    ``i`` starts on endpoint ``i % n``; dead owners reroute round-robin
    over the survivors), with none of its locks -- everything runs on one
    event loop, so the table is already serialized.  Failure semantics
    match the sync fleet's resubmission discipline: a failed roundtrip
    retires the endpoint and resubmits the item on the survivors (each
    endpoint tried at most once); only a fleet-wide outage propagates
    :class:`BackendConnectionError` to the session's inline fallback.
    There is still no mid-stream *reconnect* here -- dead endpoints stay
    dead for the backend's lifetime.
    """

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
    ):
        super().__init__(endpoints, slots, ConnectionSettings.of(locals()), contextlib.nullcontext())

    # -- lifecycle ------------------------------------------------------- #
    async def start(self, reasoner_payload: bytes) -> None:
        """Connect and handshake every endpoint concurrently.

        Unreachable endpoints are marked dead (their slots reroute); a
        :class:`HandshakeError` (a deployment bug, not a transient fault)
        closes everything and propagates; no reachable endpoint at all is
        a :class:`BackendConnectionError`.
        """
        indexes = self._table.unconnected_indexes()
        outcomes = await asyncio.gather(
            *(self._dial(self.endpoints[index], reasoner_payload) for index in indexes), return_exceptions=True
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
                self._table.connections[index] = outcome
        if handshake_failure is not None:
            await self.close()
            raise handshake_failure
        if not self._table.alive_indexes():
            raise self._table.unreachable()

    async def _dial(self, endpoint: WorkerEndpoint, payload: bytes) -> AsyncWorkerClient:
        return await AsyncWorkerClient.connect((endpoint.host, endpoint.port), payload, **vars(self.settings))

    def abort(self) -> None:
        """Synchronous teardown: abort every connection, fail their tickets."""
        for client in self._table.reset():
            client.abort(BackendConnectionError("fleet closed"))

    async def close(self) -> None:
        """Graceful teardown: abort connections and await their reader tasks."""
        for client in self._table.reset():
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
        failure: Optional[BackendConnectionError] = None
        for _ in range(len(self.endpoints) + 1):
            client, owner = self._table.route(slot)
            if client is None:
                break
            try:
                return await client.submit_item(item)
            except BackendConnectionError as error:
                failure = error
                self._mark_dead(owner)
        raise self._table.exhausted(slot) from failure



# --------------------------------------------------------------------------- #
# The asyncio TCP backend: loop-bound, thread-free dispatch
# --------------------------------------------------------------------------- #
class AioTcpBackend(FleetBackend):
    """Dispatch work items to remote workers from inside an event loop.

    Implements the standard :class:`ExecutionBackend` protocol -- futures
    are plain :class:`concurrent.futures.Future`, so the session's
    dispatch/gather seam (and ``PendingWindow.done()``) works unchanged --
    but all I/O runs as asyncio tasks on the loop that started the backend,
    with no dispatcher threads.  Per-track ordering (the precondition for
    delta shipping and the per-track caches) is preserved by *chaining*: each
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

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        placement: Optional[PlacementStrategy] = None,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
    ):
        super().__init__(endpoints, slots, placement, ConnectionSettings.of(locals()))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slot_tails: Optional[List[Optional["asyncio.Task[ReasonerResult]"]]] = None

    # -- lifecycle ------------------------------------------------------- #
    async def astart(self, reasoner) -> None:
        """Connect the fleet and bind ``reasoner`` (async ``start``)."""
        if self._reasoner is reasoner:
            return
        if self._reasoner is not None:
            await self.aclose()
        fleet = AsyncWorkerFleet(self.endpoints, slots=self.slots, **vars(self.settings))
        await fleet.start(encode_reasoner_spec(reasoner))
        self._fleet = fleet
        self._loop = asyncio.get_running_loop()
        self._slot_tails = [None] * fleet.slot_count
        self._reasoner = reasoner

    async def aclose(self) -> None:
        """Gracefully close the fleet (async ``close``)."""
        self._reasoner = None
        fleet = self._release_fleet()
        if fleet is not None:
            await fleet.close()

    def _start(self, reasoner) -> None:
        raise BackendError(
            "AioTcpBackend must be started from its event loop: "
            "'await backend.astart(reasoner)' before dispatching "
            "(AsyncStreamSession does this automatically)"
        )

    def _close(self) -> None:
        fleet = self._release_fleet()
        if fleet is not None:
            fleet.abort()

    def _release_fleet(self) -> Optional[AsyncWorkerFleet]:
        self._slot_tails = None
        self._loop = None
        return super()._release_fleet()

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


# --------------------------------------------------------------------------- #
# The async session facade
# --------------------------------------------------------------------------- #
class AsyncStreamSession:
    """``async`` push/results/finish over the synchronous session's seam.

    Wraps a :class:`~repro.streamrule.session.StreamSession` and reuses its
    windowing steppers, its ``_dispatch_evaluation`` / ``_gather_solution``
    halves, its :class:`PendingWindow` bookkeeping, and its stall
    accounting -- the async facade adds *awaiting* where the sync facade
    blocks, nothing else, which is what the async/sync equivalence suite
    relies on.  Accepts every :class:`StreamSession` constructor argument::

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
            if backpressure and not pending.done():
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
        session._ready.append(session._gather_solution(pending))

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
