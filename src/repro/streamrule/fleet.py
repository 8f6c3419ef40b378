"""The :class:`WorkerFleet` coordinator: placement slots over worker endpoints.

The placement layer (:mod:`repro.streamrule.placement`) maps work items to
abstract *slots*; this module maps slots to *machines*.  The mapping itself
is a :class:`SlotTable` -- pure routing state (slot ``i`` starts on endpoint
``i % n``) that decides every reroute, readoption, adoption and retirement
and counts them -- and a fleet is a *driver* of one: :class:`WorkerFleet`
(below: blocking :class:`~repro.streamrule.net.WorkerClient` connections,
locks, reconnects, a heartbeat, the announce registry) or the asyncio
fleet in :mod:`repro.streamrule.aio`.  :class:`FleetView` is the read side
they share.  When a worker dies mid-stream the fleet

1. retries the endpoint with bounded exponential backoff
   (:func:`~repro.streamrule.net.connect_with_backoff` semantics -- a
   worker restarted by its supervisor picks its slots straight back up),
2. failing that, marks the endpoint dead and *reroutes* its slots
   round-robin over the survivors (the in-flight item is resubmitted there,
   so no window is lost, and since the dead connection never delivered its
   result, none is duplicated),
3. and once no endpoint survives, raises
   :class:`~repro.streamrule.errors.BackendConnectionError` -- which the
   session answers by evaluating the partition inline, extending its
   ``fallbacks`` counter.  The stream keeps flowing even with an empty
   fleet.

Rerouted tracks land on a worker whose grounding cache has no state for
them; the first item after a reroute is shipped as a full fact set (fresh
delta-shipping state per connection) and grounds from scratch, after which
delta shipping and the per-track caches resume on the new worker.

Endpoints marked dead are no longer dead forever: a revived worker is
**re-adopted** without a backend restart, through any of three doors --

* :meth:`WorkerFleet.readopt` reconnects one named dead endpoint and hands
  it back the slots of its canonical layout (``slot % n``);
* :meth:`WorkerFleet.readopt_dead` probes every dead endpoint once (the
  TCP backend's heartbeat thread calls this each beat, so a worker
  restarted on the same address rejoins within one heartbeat interval);
* a :class:`FleetRegistry` listener accepts ``ANNOUNCE`` frames from
  workers started with ``--announce`` and readopts the matching endpoint
  the moment it calls home (push rediscovery, no heartbeat latency).

The fleet can also *grow and shrink* mid-stream for the autoscaler:
:meth:`WorkerFleet.adopt_endpoint` appends a brand-new endpoint and gives
it the slots of the widened canonical layout, and
:meth:`WorkerFleet.retire_endpoint` drains one back out (its slots
reroute exactly like a death, minus the corpse).
"""

from __future__ import annotations

import socket
import ssl
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, ContextManager, Dict, List, Optional, Sequence, Tuple, Union

from repro.streamrule.errors import BackendConnectionError, HandshakeError, ProtocolError
from repro.streamrule.net import (
    MAGIC,
    ConnectionSettings,
    FrameKind,
    WireStats,
    WorkerClient,
    parse_announce,
    recv_exactly,
    recv_frame,
    send_frame,
)
from repro.streamrule.reasoner import ReasonerResult
from repro.streamrule.work import WorkItem

__all__ = [
    "EndpointLike",
    "FleetRegistry",
    "WorkerEndpoint",
    "WorkerFleet",
    "initial_slot_owners",
    "rerouted_owner",
]


def initial_slot_owners(slot_count: int, endpoint_count: int) -> List[int]:
    """The canonical slot -> endpoint layout: slot ``i`` on endpoint ``i % n``.

    Shared by :class:`WorkerFleet` and its asyncio sibling
    (:class:`repro.streamrule.aio.AsyncWorkerFleet`) so the two route a
    given slot to the same worker -- which keeps a track's cache state on
    one machine whichever client drives the fleet.
    """
    return [index % endpoint_count for index in range(slot_count)]


def rerouted_owner(slot: int, alive: Sequence[int]) -> int:
    """Where a slot lands when its owner is dead: round-robin over survivors."""
    return alive[slot % len(alive)]


@dataclass(frozen=True)
class WorkerEndpoint:
    """One worker daemon's address."""

    host: str
    port: int

    @classmethod
    def parse(cls, text: "EndpointLike") -> "WorkerEndpoint":
        """Accept ``"host:port"`` strings, ``(host, port)`` pairs, or instances.

        The single ``host:port`` parser of the execution layer -- the
        worker CLI's ``--listen`` delegates here too, so the grammar and
        the port-range validation cannot drift between the two surfaces.
        """
        if isinstance(text, WorkerEndpoint):
            return text
        if isinstance(text, tuple):
            host, port = text
            port = int(port)
        else:
            host, separator, port_text = text.rpartition(":")
            if not separator or not host:
                raise ValueError(f"expected HOST:PORT, got {text!r}")
            try:
                port = int(port_text)
            except ValueError as error:
                raise ValueError(f"invalid port in {text!r}") from error
        if not 0 <= port <= 65535:
            raise ValueError(f"port {port} out of range")
        return cls(host, port)

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


#: Anything :meth:`WorkerEndpoint.parse` accepts.
EndpointLike = Union[str, Tuple[str, int], WorkerEndpoint]


class SlotTable:
    """The routing state of a fleet: pure bookkeeping, no I/O and no locks.

    Everything a fleet must *decide* lives here -- the canonical
    ``slot % n`` layout, rerouting over survivors, mark-dead, readopt,
    adopt, retire, and the counters that record each -- so the blocking
    :class:`WorkerFleet` and the asyncio fleet in
    :mod:`repro.streamrule.aio` route a slot identically and differ only
    in how they dial, close and wait.  Per endpoint the table holds the
    installed connection (anything with ``alive``, ``stats`` and
    ``pending_count``; ``None`` while there is none) and a *dead* mark;
    methods that take a connection out of service hand it back for the
    driver to close.
    """

    def __init__(self, endpoints: Sequence["EndpointLike"], slots: Optional[int] = None):
        self.endpoints: List[WorkerEndpoint] = [WorkerEndpoint.parse(endpoint) for endpoint in endpoints]
        if not self.endpoints:
            raise ValueError("a worker fleet needs at least one endpoint")
        if slots is not None and slots < 1:
            raise ValueError("a worker fleet needs at least one slot")
        self.slot_count: int = slots if slots is not None else len(self.endpoints)
        self.connections: List[Optional[Any]] = []
        self.retired_stats = WireStats()
        #: How many slot reassignments dead workers have caused.
        self.reroutes = 0
        #: How many dead endpoints were revived and given their slots back.
        self.readoptions = 0
        #: How many endpoints were adopted / retired mid-stream.
        self.adoptions = 0
        self.retirements = 0
        self.reset()

    # -- mutations -------------------------------------------------------- #
    def reset(self) -> List[Any]:
        """Back to the canonical layout with nothing installed and nobody dead.

        Returns the connections that were installed (their traffic
        counters are kept in ``retired_stats``).
        """
        released = [self.release(index) for index in range(len(self.connections))]
        self.connections = [None] * len(self.endpoints)
        self.dead: List[bool] = [False] * len(self.endpoints)
        self.owners: List[int] = initial_slot_owners(self.slot_count, len(self.endpoints))
        return [connection for connection in released if connection is not None]

    def release(self, index: int) -> Optional[Any]:
        """Take endpoint ``index``'s connection out, keeping its counters."""
        connection, self.connections[index] = self.connections[index], None
        if connection is not None:
            self.retired_stats = self.retired_stats.merged_with(connection.stats)
        return connection

    def mark_dead(self, index: int) -> Optional[Any]:
        """Retire endpoint ``index`` and reroute its slots over the survivors."""
        connection = self.release(index)
        self.dead[index] = True
        alive = self.alive_indexes()
        if alive:
            for slot, owner in enumerate(self.owners):
                if owner == index:
                    self.owners[slot] = rerouted_owner(slot, alive)
                    self.reroutes += 1
        return connection

    def route(self, slot: int) -> Tuple[Optional[Any], int]:
        """The connection serving ``slot`` and its endpoint index.

        A slot whose owner has no live connection moves to a survivor
        (counted as a reroute); ``(None, owner)`` once nobody survives.
        """
        if not 0 <= slot < self.slot_count:
            raise ValueError(f"slot {slot} out of range for a {self.slot_count}-slot fleet")
        owner = self.owners[slot]
        connection = self.connections[owner]
        if connection is not None and connection.alive:
            return connection, owner
        # Installed, not `alive`: a connection that broke a moment ago is
        # still a candidate, because submitting to it fails at once and
        # that failure is what sends its driver down the reconnect-or-
        # mark-dead path (skipping it could declare a restarting one-worker
        # fleet exhausted).
        installed = [index for index, candidate in enumerate(self.connections) if candidate is not None]
        if not installed:
            return None, owner
        new_owner = rerouted_owner(slot, installed)
        if new_owner != owner:
            self.owners[slot] = new_owner
            self.reroutes += 1
        return self.connections[new_owner], new_owner

    def readopt(self, index: int, connection: Any) -> bool:
        """Revive dead endpoint ``index`` on ``connection``.

        It gets back every slot of its canonical layout (``slot % n ==
        index``), the same slots a fresh start would give it.  ``False``
        (nothing installed) when the endpoint is not dead any more.
        """
        if not self.dead[index]:
            return False
        self.dead[index] = False
        self.connections[index] = connection
        for slot in range(index, self.slot_count, len(self.endpoints)):
            self.owners[slot] = index
        self.readoptions += 1
        return True

    def adopt(self, endpoint: WorkerEndpoint, connection: Any) -> int:
        """Append a new endpoint; returns its index.

        It receives the slots of the *widened* canonical layout
        (``slot % (n+1) == n``) -- slots it steals were until now served
        by survivors, whose caches simply stop seeing those tracks.
        """
        index = len(self.endpoints)
        self.endpoints.append(endpoint)
        self.connections.append(connection)
        self.dead.append(False)
        for slot in range(index, self.slot_count, index + 1):
            self.owners[slot] = index
        self.adoptions += 1
        return index

    def retire(self, index: int) -> Optional[Any]:
        """Drain endpoint ``index`` out: a death without the corpse."""
        if self.connections[index] is None and self.dead[index]:
            return None
        self.retirements += 1
        return self.mark_dead(index)

    # -- checks ------------------------------------------------------------ #
    def check_index(self, index: int) -> None:
        if not 0 <= index < len(self.endpoints):
            raise ValueError(f"endpoint index {index} out of range")

    def unreachable(self) -> BackendConnectionError:
        return BackendConnectionError(f"no worker of the fleet {[str(e) for e in self.endpoints]} is reachable")

    def exhausted(self, slot: int) -> BackendConnectionError:
        return BackendConnectionError(
            f"no live worker left for slot {slot} (fleet {[str(e) for e in self.endpoints]})"
        )

    # -- reads ------------------------------------------------------------- #
    def unconnected_indexes(self) -> List[int]:
        """Endpoints a start still has to dial: nothing installed, not dead."""
        return [
            index
            for index, connection in enumerate(self.connections)
            if connection is None and not self.dead[index]
        ]

    def alive_indexes(self) -> List[int]:
        return [
            index
            for index, connection in enumerate(self.connections)
            if connection is not None and connection.alive
        ]

    def dead_indexes(self) -> List[int]:
        return [index for index, dead in enumerate(self.dead) if dead]

    def wire_statistics(self) -> WireStats:
        merged = self.retired_stats
        for connection in self.connections:
            if connection is not None:
                merged = merged.merged_with(connection.stats)
        return merged


class FleetView:
    """What both fleets show of their :class:`SlotTable`, read under their guard.

    ``guard`` is the context manager that makes a table access safe in the
    driver's world: the fleet lock for the threaded :class:`WorkerFleet`,
    a null context on an event loop.
    """

    def __init__(
        self,
        endpoints: Sequence["EndpointLike"],
        slots: Optional[int],
        settings: ConnectionSettings,
        guard: ContextManager,
    ):
        self._table = SlotTable(endpoints, slots)
        #: The table's own list (adoption appends to it) and its fixed slot count.
        self.endpoints: List[WorkerEndpoint] = self._table.endpoints
        self.slot_count: int = self._table.slot_count
        self.settings = settings
        self._lock = guard
        self._payload: Optional[bytes] = None

    @property
    def reroutes(self) -> int:
        return self._table.reroutes

    @property
    def readoptions(self) -> int:
        return self._table.readoptions

    @property
    def adoptions(self) -> int:
        return self._table.adoptions

    @property
    def retirements(self) -> int:
        return self._table.retirements

    @property
    def alive_endpoints(self) -> List[WorkerEndpoint]:
        with self._lock:
            return [self.endpoints[index] for index in self._table.alive_indexes()]

    @property
    def dead_endpoints(self) -> List[WorkerEndpoint]:
        with self._lock:
            return [self.endpoints[index] for index in self._table.dead_indexes()]

    def slot_table(self) -> Dict[int, str]:
        """Current slot -> endpoint routing (diagnostic snapshot)."""
        with self._lock:
            return {slot: str(self.endpoints[owner]) for slot, owner in enumerate(self._table.owners)}

    def pending_items(self) -> Dict[str, int]:
        """Frames in flight per endpoint (sent, response not yet received).

        The wire-level queue-depth introspection behind the backend's
        backpressure accounting: on a pipelined connection several work
        frames may be outstanding at once, and this snapshot shows how far
        each worker has fallen behind its coordinator-side dispatchers.
        """
        with self._lock:
            return {
                str(endpoint): (connection.pending_count if connection is not None else 0)
                for endpoint, connection in zip(self.endpoints, self._table.connections)
            }

    def wire_statistics(self) -> WireStats:
        """Aggregate :class:`WireStats` over all connections, live and retired."""
        with self._lock:
            return self._table.wire_statistics()

    def _mark_dead(self, index: int) -> None:
        """Retire endpoint ``index`` and reroute its slots (guard held)."""
        client = self._table.mark_dead(index)
        if client is not None:
            client.abort(BackendConnectionError(f"endpoint {self.endpoints[index]} retired"))

    def statistics(self) -> Dict[str, float]:
        """Traffic, routing and liveness counters, uniformly named.

        The transport-statistics dict of every fleet-backed backend: the
        :class:`WireStats` fields plus what the table counted, so the key
        set cannot depend on which fleet runs underneath.
        """
        with self._lock:
            stats = self._table.wire_statistics()
            counters = {
                **asdict(stats),
                "bytes_out": stats.bytes_out,
                "reroutes": self.reroutes,
                "readoptions": self.readoptions,
                "adoptions": self.adoptions,
                "retirements": self.retirements,
                "alive_workers": len(self._table.alive_indexes()),
            }
        return {name: float(value) for name, value in counters.items()}


class WorkerFleet(FleetView):
    """Connection manager + slot router over a set of worker endpoints.

    The threaded driver of a :class:`SlotTable`: it dials and closes
    :class:`~repro.streamrule.net.WorkerClient` connections and waits on
    them; where a slot goes is the table's decision.  Thread-safe: the
    per-slot dispatcher threads of
    :class:`~repro.streamrule.backends.TcpBackend` call :meth:`roundtrip`
    concurrently (per-connection serialization lives in the client), and
    the table is guarded by the fleet lock.

    Parameters
    ----------
    endpoints:
        Worker addresses (``"host:port"`` strings or
        :class:`WorkerEndpoint`).  At least one is required.
    slots:
        Number of placement slots to spread over the endpoints; defaults to
        ``len(endpoints)``.  More slots than endpoints is legitimate (slots
        are the unit of rerouting granularity, endpoints the unit of
        failure).
    delta_shipping / symbol_ids:
        Offer the ``delta_shipping`` / ``symbol_ids`` capabilities in the
        handshake (the worker may still decline either).
    connect_attempts / reconnect_attempts:
        Backoff budgets for the initial connect and for reviving a dead
        endpoint mid-stream.
    ssl_context / server_hostname:
        TLS-wrap every worker connection (``server_hostname`` overrides
        the SNI/verification name, for certs not issued to the literal
        endpoint host).
    auth_token:
        Shared token for the ``AUTH`` challenge/response; required when
        the daemons were started with one.
    codec:
        ``"pickle"`` (default, trusted networks) or ``"restricted"``
        (JSON/packed-id codec; the fleet refuses workers that do not
        accept it).
    """

    def __init__(
        self,
        endpoints: Sequence["EndpointLike"],
        *,
        slots: Optional[int] = None,
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        connect_attempts: int = 5,
        reconnect_attempts: int = 2,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
    ):
        super().__init__(endpoints, slots, ConnectionSettings.of(locals()), threading.Lock())
        self.reconnect_attempts = reconnect_attempts
        self._sleep = sleep
        #: One lock per endpoint serializing reconnect attempts, so a slow
        #: reconnect never blocks dispatch on slots of *other* endpoints
        #: (the fleet lock only ever guards table mutations, never I/O
        #: after the start).
        self._endpoint_locks = [threading.Lock() for _ in self.endpoints]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, reasoner_payload: bytes) -> None:
        """Connect and handshake every endpoint; ship the reasoner to each.

        Endpoints that cannot be reached within the connect budget are
        marked dead and their slots rerouted immediately; if *no* endpoint
        answers, the start fails with :class:`BackendConnectionError`.
        A :class:`HandshakeError` (version mismatch) always propagates --
        that is a deployment bug, not a transient fault -- after closing
        every connection opened so far, so a failed start never leaks
        sockets.
        """
        with self._lock:
            self._payload = reasoner_payload
            try:
                for index in self._table.unconnected_indexes():
                    try:
                        self._table.connections[index] = self._dial(self.endpoints[index], reasoner_payload)
                    except BackendConnectionError:
                        self._table.mark_dead(index)
            except HandshakeError:
                for client in self._table.reset():
                    client.close()
                raise
            if not self._table.alive_indexes():
                raise self._table.unreachable()

    def close(self) -> None:
        """Close every live connection (idempotent; ``start`` reconnects)."""
        with self._lock:
            clients = self._table.reset()
            self._payload = None
        for client in clients:
            client.close()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def roundtrip(self, slot: int, item: WorkItem) -> ReasonerResult:
        """Evaluate ``item`` on ``slot``'s worker, rerouting around failures.

        Tries every endpoint the slot gets rerouted to at most once per
        endpoint (plus one bounded reconnect attempt at each), so a
        cascading outage terminates in a :class:`BackendConnectionError`
        instead of spinning.

        This covers *pending* dispatches too: connections are pipelined, so
        when a worker dies with several frames outstanding, every waiting
        roundtrip (not only the one whose receive hit the error) gets a
        :class:`BackendConnectionError` from the client's ticket queue and
        re-enters this loop -- each in-flight item is resubmitted on the
        slot's rerouted owner, in its dispatcher's original order, so a
        mid-burst crash loses no window and duplicates none (the dead
        connection never delivered their results).
        """
        failure: Optional[BackendConnectionError] = None
        for _ in range(len(self.endpoints) + 1):
            with self._lock:
                client, owner = self._table.route(slot)
            if client is None:
                break
            try:
                return client.submit_item(item)
            except BackendConnectionError as error:
                failure = error
                self._handle_connection_loss(owner)
        raise self._table.exhausted(slot) from failure

    def ping(self) -> Dict[str, Optional[float]]:
        """Heartbeat every live endpoint; dead/unresponsive ones map to ``None``.

        A worker that fails its heartbeat is handled exactly like a worker
        that fails mid-item: bounded reconnect, then slot rerouting.  The
        TCP backend's heartbeat thread calls this between windows so a
        silently-gone worker is discovered (and its slots moved) *before*
        the next window blocks on it.
        """
        outcome: Dict[str, Optional[float]] = {}
        for index, endpoint in enumerate(self.endpoints):
            with self._lock:
                client = self._table.connections[index]
            if client is None:
                outcome[str(endpoint)] = None
                continue
            try:
                outcome[str(endpoint)] = client.ping()
            except BackendConnectionError:
                outcome[str(endpoint)] = None
                self._handle_connection_loss(index)
        return outcome

    # ------------------------------------------------------------------ #
    # Elasticity: readoption, adoption, retirement
    # ------------------------------------------------------------------ #
    def readopt(self, index: int, *, attempts: Optional[int] = None) -> bool:
        """Re-adopt dead endpoint ``index`` if it answers; returns success.

        On success the endpoint gets back every slot of its canonical
        layout (``slot % n == index``) -- the same slots a fresh ``start``
        would give it -- so a revived worker resumes exactly the tracks it
        owned before the kill.  Its delta/symbol state is fresh (new
        connection), so the first window per track ships full and grounds
        from scratch, after which the steady-state paths resume.  A still-
        unreachable endpoint stays dead and the probe cost is one bounded
        connect.  Never raises on an unreachable or version-skewed peer.
        """
        self._table.check_index(index)
        with self._endpoint_locks[index]:
            with self._lock:
                if not self._table.dead[index] or self._payload is None:
                    return False
                payload = self._payload
            budget = attempts if attempts is not None else self.reconnect_attempts
            try:
                revived = self._dial(self.endpoints[index], payload, budget)
            except (HandshakeError, BackendConnectionError):
                return False
            with self._lock:
                adopted = self._table.readopt(index, revived)
            if not adopted:  # someone else won the race
                revived.close()
            return adopted

    def readopt_endpoint(self, endpoint: "EndpointLike") -> bool:
        """Re-adopt ``endpoint`` if it is one of this fleet's and dead.

        The door a :class:`FleetRegistry` announce comes through: strangers
        and healthy endpoints are a no-op (``False``).
        """
        parsed = WorkerEndpoint.parse(endpoint)
        with self._lock:
            dead = [index for index in self._table.dead_indexes() if self.endpoints[index] == parsed]
        return bool(dead) and self.readopt(dead[0])

    def readopt_dead(self, *, attempts: int = 1) -> List[WorkerEndpoint]:
        """Probe every dead endpoint once; returns the ones revived.

        The heartbeat thread's rediscovery hook: one cheap connect attempt
        per dead endpoint per beat, so a worker restarted on its old
        address rejoins within a heartbeat interval even without a
        registry.
        """
        with self._lock:
            dead = self._table.dead_indexes()
        return [self.endpoints[index] for index in dead if self.readopt(index, attempts=attempts)]

    def adopt_endpoint(self, endpoint: "EndpointLike", *, attempts: Optional[int] = None) -> int:
        """Grow the fleet by one endpoint mid-stream; returns its index.

        The new endpoint receives the slots of the *widened* canonical
        layout (``slot % (n+1) == n``).  Raises
        :class:`BackendConnectionError` (or :class:`HandshakeError`) when
        the endpoint cannot be handshaken; the fleet is unchanged in that
        case.
        """
        parsed = WorkerEndpoint.parse(endpoint)
        with self._lock:
            if self._payload is None:
                raise RuntimeError("adopt_endpoint requires a started fleet")
            payload = self._payload
            if parsed in self.endpoints:
                raise ValueError(f"endpoint {parsed} is already part of the fleet")
        client = self._dial(parsed, payload, attempts)
        with self._lock:
            self._endpoint_locks.append(threading.Lock())
            return self._table.adopt(parsed, client)

    def retire_endpoint(self, index: int) -> None:
        """Drain endpoint ``index`` out of the fleet (autoscaler scale-down).

        Its slots reroute over the survivors exactly as if it had died --
        in-flight items on the retired connection fail over through the
        normal resubmission path -- but the retirement is counted apart,
        and a later :meth:`readopt` (or announce) can bring the endpoint
        back.
        """
        self._table.check_index(index)
        with self._lock:
            client = self._table.retire(index)
        if client is not None:
            client.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _dial(self, endpoint: WorkerEndpoint, payload: bytes, attempts: Optional[int] = None) -> WorkerClient:
        """Connect and handshake one client (``attempts`` defaults to the connect budget)."""
        return WorkerClient(
            (endpoint.host, endpoint.port), payload, sleep=self._sleep, **self.settings.client_keywords(attempts)
        )

    def _handle_connection_loss(self, index: int) -> None:
        """A connection died: try a bounded reconnect, else retire the endpoint.

        Unlike at :meth:`start` time, a mid-stream :class:`HandshakeError`
        (the address now answers with a mismatched protocol -- e.g. a
        supervisor restarted the worker on an older build) retires the
        endpoint instead of propagating: the stream reroutes to the
        survivors, and the skew surfaces the next time the backend starts
        against that endpoint.

        The reconnect itself (backoff sleeps, TCP connect, handshake) runs
        outside the fleet lock, under a per-endpoint lock -- one worker
        black-holing packets must never stall dispatch on the other slots.
        While the reconnect is in flight, routing may already move this
        endpoint's slots to survivors; a reconnect that then succeeds
        simply re-installs the endpoint for the slots still (or again)
        pointing at it.
        """
        with self._endpoint_locks[index]:
            with self._lock:
                client = self._table.connections[index]
                if client is not None and client.alive:
                    return  # another thread already revived this endpoint
                if self._payload is None or self._table.dead[index]:
                    return
                payload = self._payload
                self._table.release(index)
            try:
                revived = self._dial(self.endpoints[index], payload, self.reconnect_attempts)
            except (HandshakeError, BackendConnectionError):
                with self._lock:
                    self._mark_dead(index)
                return
            with self._lock:
                if self._table.dead[index]:
                    revived.close()
                else:
                    self._table.connections[index] = revived


# --------------------------------------------------------------------------- #
# The announce registry: push rediscovery for revived workers
# --------------------------------------------------------------------------- #
class FleetRegistry:
    """A lightweight listener workers ``ANNOUNCE`` themselves to.

    The pull half of rediscovery is the heartbeat probe
    (:meth:`WorkerFleet.readopt_dead`); this is the push half.  A worker
    daemon started with ``--announce HOST:PORT`` calls home every few
    seconds (``MAGIC`` + one ``ANNOUNCE`` frame, answered with ``PONG``),
    and an announce matching a *dead* fleet endpoint triggers an immediate
    :meth:`WorkerFleet.readopt` -- so a revived worker rejoins as soon as
    it boots instead of waiting out a heartbeat interval.  Announces for
    unknown or healthy endpoints are acknowledged and ignored; the frame
    is JSON-only and nothing from it is ever unpickled or executed.

    The registry holds the fleet by reference and runs one daemon thread
    per accepted connection (announces are one-frame conversations, so
    the thread count is bounded by announce concurrency, not fleet size).
    """

    def __init__(self, fleet: WorkerFleet, host: str = "127.0.0.1", port: int = 0):
        self._fleet = fleet
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]
        #: Announce frames accepted (readopted or not), for tests/metrics;
        #: bumped by one handler thread per connection, hence the lock.
        self.announces = 0
        self._announce_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, name="streamrule-registry", daemon=True)
        self._thread.start()

    def close(self) -> None:
        self._stop.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept(); shutting it down does.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "FleetRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            handler = threading.Thread(
                target=self._handle, args=(connection,), name="streamrule-registry-conn", daemon=True
            )
            handler.start()

    def _handle(self, connection: socket.socket) -> None:
        try:
            connection.settimeout(5.0)
            if recv_exactly(connection, len(MAGIC)) != MAGIC:
                return
            kind, payload = recv_frame(connection)
            if kind is not FrameKind.ANNOUNCE:
                return
            host, port = parse_announce(payload)
            with self._announce_lock:
                self.announces += 1
            send_frame(connection, FrameKind.PONG)
        except (OSError, EOFError, ProtocolError):
            return
        finally:
            try:
                connection.close()
            except OSError:
                pass
        self._fleet.readopt_endpoint(WorkerEndpoint(host, port))
