"""Pluggable execution backends: *where* partition work items run.

The paper's partition/combine protocol is transport-agnostic: a partition
evaluation consumes a pickled fact batch and produces a
:class:`~repro.streamrule.reasoner.ReasonerResult`.  An
:class:`ExecutionBackend` encapsulates one transport behind a tiny protocol
-- ``start(reasoner)`` / ``submit(WorkItem) -> Future[ReasonerResult]`` /
``close()`` plus capability flags -- so the session never branches on a
transport:

* :class:`InlineBackend` -- evaluate in the calling thread.  With
  ``simulated=True`` (default) latency is *modelled* as the slowest
  partition (the paper's ideally-parallel deployment); with
  ``simulated=False`` latencies sum (the pessimistic serial bound).
* :class:`ThreadPoolBackend` -- a persistent thread pool; useful when the
  solver releases the GIL or for I/O-bound format processing.
* :class:`SharedMemoryBackend` -- true multi-core execution on persistent
  pinned same-host worker processes reached through shared-memory rings;
  the placement strategy chooses the slot, so worker-local grounding
  caches keep seeing the same track.
* :class:`TcpBackend` -- the multi-machine transport: dispatches to remote
  worker daemons (``python -m repro.streamrule.worker``) over the versioned
  wire protocol of :mod:`repro.streamrule.net`, through a
  :class:`~repro.streamrule.fleet.WorkerFleet` that spreads placement slots
  over the worker endpoints, reroutes the slots of a dead worker to the
  survivors, and ships steady-state sliding windows as fact *deltas*
  instead of full fact sets.  See ``docs/deployment.md`` for running a
  fleet.

:class:`~repro.streamrule.aio.AioTcpBackend` drives the same fleet protocol
from an asyncio event loop.

Lifecycle
---------
``start`` is idempotent per bound reasoner and implicitly invoked by the
session before the first window; ``close`` releases every executor and
socket and is safe to call repeatedly (a later ``start`` rebuilds the
resources).  Every resource-owning backend also registers a
:func:`weakref.finalize` backstop, so a backend (or the session owning it)
abandoned without ``close()`` no longer leaks executors until interpreter
exit.
"""

from __future__ import annotations

import abc
import os
import pickle
import ssl
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.streamrule.errors import BackendConnectionError, BackendError
from repro.streamrule.fleet import EndpointLike, FleetRegistry, WorkerEndpoint, WorkerFleet
from repro.streamrule.net import ConnectionSettings, encode_reasoner_payload
from repro.streamrule.placement import PinnedPlacement, PlacementStrategy
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.shm import DEFAULT_RING_CAPACITY, ShmSlot, ShmSlotStats
from repro.streamrule.work import WorkItem

__all__ = [
    "BackendConnectionError",
    "BackendError",
    "ExecutionBackend",
    "InlineBackend",
    "SharedMemoryBackend",
    "TcpBackend",
    "ThreadPoolBackend",
]


# --------------------------------------------------------------------------- #
# The protocol
# --------------------------------------------------------------------------- #
class ExecutionBackend(abc.ABC):
    """Transport-agnostic executor of :class:`WorkItem` evaluations.

    Capability flags (class attributes, overridable per instance):

    ``uses_placement``
        Whether the backend has pinned worker slots and consults its
        :attr:`placement` strategy to route items to them; configuring a
        placement on a backend without slots is rejected by the session.
    ``concurrent``
        Whether partitions run (actually or notionally) at the same time;
        decides if per-window latency aggregates as ``max`` or as ``sum``
        over partitions.
    ``pipelined``
        Whether :meth:`submit` is genuinely non-blocking -- the returned
        future makes progress while the caller does something else, so
        dispatching several windows ahead of the gather point buys real
        concurrency.  The session uses this to pick its default
        ``max_inflight``: pipelined backends default to dispatch-ahead
        ingestion, non-pipelined ones (inline evaluation, whose ``submit``
        *is* the evaluation) stay synchronous.  It also picks the reported
        window latency: the measured wall-clock of the evaluation phase on a
        pipelined backend, the modelled aggregate of the per-partition
        latencies on inline evaluation.
    """

    name: str = "abstract"
    uses_placement: bool = False
    concurrent: bool = True
    pipelined: bool = False

    def __init__(self, placement: Optional[PlacementStrategy] = None):
        self.placement: PlacementStrategy = placement or PinnedPlacement()
        self._reasoner: Optional[Reasoner] = None
        self._depth_lock = threading.Lock()
        self._inflight_items = 0
        self._inflight_high_water = 0

    # -- lifecycle ------------------------------------------------------- #
    @property
    def started(self) -> bool:
        return self._reasoner is not None

    @property
    def reasoner(self) -> Optional[Reasoner]:
        """The reasoner this backend is currently bound to."""
        return self._reasoner

    def start(self, reasoner: Reasoner) -> None:
        """Bind to ``reasoner`` and allocate execution resources.

        Idempotent while bound to the same reasoner instance; binding a
        different reasoner closes and rebuilds the resources (workers hold
        pickled copies of the reasoner, so they must match it).
        """
        if self._reasoner is reasoner:
            return
        if self._reasoner is not None:
            self.close()
        self._start(reasoner)
        self._reasoner = reasoner

    def close(self) -> None:
        """Release all execution resources (idempotent; ``start`` reopens)."""
        if self._reasoner is None:
            return
        try:
            self._close()
        finally:
            self._reasoner = None

    def _start(self, reasoner: Reasoner) -> None:
        """Allocate backend resources (hook; default: none)."""

    def _close(self) -> None:
        """Release backend resources (hook; default: none)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch -------------------------------------------------------- #
    def submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        """Schedule ``item`` for evaluation and return its future result.

        The call itself never blocks on the *evaluation* (for pipelined
        backends it only enqueues; for the inline backend the future is
        already resolved) and keeps the submitted-but-unfinished count that
        :meth:`queue_depth` reports -- observability into how far the
        backend has fallen behind (the session's backpressure itself is
        enforced by its own ``max_inflight`` window bound, not by this
        counter).
        """
        future = self._submit(item)
        with self._depth_lock:
            self._inflight_items += 1
            self._inflight_high_water = max(self._inflight_high_water, self._inflight_items)
        future.add_done_callback(self._note_done)
        return future

    def _note_done(self, _future: "Future[ReasonerResult]") -> None:
        with self._depth_lock:
            self._inflight_items -= 1

    def queue_depth(self) -> int:
        """Work items submitted but not yet finished (0 while idle/closed).

        A lock-free read: the counter is a plain int mutated under
        ``_depth_lock`` on the submit/done side, and a bare load of an int
        attribute is atomic in CPython.  The depth is an instantaneous
        observation that is stale the moment it returns anyway -- taking the
        lock here bought no extra consistency, only contention between the
        observers (the adaptive in-flight controller reads this once per
        gathered window, the metrics endpoint on every scrape) and the
        dispatch hot path.
        """
        return self._inflight_items

    @property
    def queue_high_water(self) -> int:
        """Most items ever simultaneously in flight on this backend."""
        with self._depth_lock:
            return self._inflight_high_water

    def transport_statistics(self) -> Dict[str, float]:
        """Transport-level traffic counters, uniformly named.

        In-process backends have no transport and return ``{}``; the TCP
        backend answers with its :meth:`TcpBackend.wire_statistics` and the
        shared-memory backend with its
        :meth:`SharedMemoryBackend.shm_statistics`.  The uniform spelling is
        what the query server's metrics endpoint exports, whatever backend
        it happens to run on.
        """
        return {}

    @abc.abstractmethod
    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        """Transport hook: schedule ``item`` and return its future."""

    def _require_started(self) -> Reasoner:
        if self._reasoner is None:
            raise BackendError(f"backend {self.name!r} is not started; call start(reasoner) first")
        return self._reasoner


# --------------------------------------------------------------------------- #
# In-process backends
# --------------------------------------------------------------------------- #
class InlineBackend(ExecutionBackend):
    """Evaluate every item synchronously in the calling thread.

    ``simulated=True`` models an ideally parallel deployment: answers are
    exact and only the latency aggregation (slowest partition) reflects the
    notional concurrency -- the paper's reporting mode.  ``simulated=False``
    is the plain serial bound (latencies sum), useful for ablations.
    """

    name = "inline"

    def __init__(self, placement: Optional[PlacementStrategy] = None, simulated: bool = True):
        super().__init__(placement)
        self.simulated = simulated
        self.concurrent = simulated

    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        reasoner = self._require_started()
        future: "Future[ReasonerResult]" = Future()
        try:
            future.set_result(reasoner.reason_item(item))
        except BaseException as error:  # noqa: BLE001 - the future carries it
            future.set_exception(error)
        return future


class ThreadPoolBackend(ExecutionBackend):
    """A persistent thread pool sharing the bound reasoner (and its cache)."""

    name = "threads"
    pipelined = True

    def __init__(self, max_workers: Optional[int] = None, placement: Optional[PlacementStrategy] = None):
        super().__init__(placement)
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _start(self, reasoner: Reasoner) -> None:
        workers = self.max_workers or (os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="streamrule-worker")
        self._finalizer = weakref.finalize(self, _shutdown_executors, [self._pool])

    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        reasoner = self._require_started()
        assert self._pool is not None
        return self._pool.submit(reasoner.reason_item, item)

    def _close(self) -> None:
        finalizer, self._finalizer, self._pool = self._finalizer, None, None
        if finalizer is not None:
            finalizer()


def _shutdown_executors(executors) -> None:
    """Finalizer backstop: shut down abandoned executors.

    Module-level (and referencing only the executor list, never the backend)
    so :func:`weakref.finalize` can fire once the backend is garbage
    collected or the interpreter exits.
    """
    for executor in executors:
        executor.shutdown(wait=True)


# --------------------------------------------------------------------------- #
# TCP backend: remote worker fleet
# --------------------------------------------------------------------------- #
class FleetBackend(ExecutionBackend):
    """What the fleet-backed backends share: settings, the fleet, its statistics.

    Base of :class:`TcpBackend` (dispatcher threads over a
    :class:`~repro.streamrule.fleet.WorkerFleet`) and of
    :class:`~repro.streamrule.aio.AioTcpBackend` (tasks over an
    ``AsyncWorkerFleet``).  Builds nothing itself: subclasses set
    ``_fleet`` when they start and call :meth:`_release_fleet` when they
    close.
    """

    uses_placement = True
    pipelined = True

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        slots: Optional[int],
        placement: Optional[PlacementStrategy],
        settings: ConnectionSettings,
    ):
        super().__init__(placement)
        self.endpoints = [WorkerEndpoint.parse(endpoint) for endpoint in endpoints]
        self.slots = slots
        #: The connection keywords, built once here and handed down.
        self.settings = settings
        #: A :class:`~repro.streamrule.fleet.FleetView`: whichever fleet the subclass drives.
        self._fleet: Any = None
        self._final_stats: Dict[str, float] = {}

    @property
    def fleet(self):
        """The live fleet coordinator (``None`` while closed)."""
        return self._fleet

    def _release_fleet(self):
        """Forget the fleet, keeping its final statistics; returns it for closing."""
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            self._final_stats = fleet.statistics()
        return fleet

    def pending_items(self) -> Dict[str, int]:
        """Wire-level queue depth per endpoint (see :meth:`FleetView.pending_items`)."""
        if self._fleet is None:
            return {}
        return self._fleet.pending_items()

    def transport_statistics(self) -> Dict[str, float]:
        """The fleet's wire counters (the uniform transport spelling)."""
        return self.wire_statistics()

    def wire_statistics(self) -> Dict[str, float]:
        """Fleet traffic counters: frames, payload bytes, reroutes, liveness.

        The same keys whichever fleet runs underneath (a counter the
        asyncio fleet has no operation for stays 0).  After ``close`` this
        keeps answering with the final snapshot of the last fleet, so
        benchmarks can report traffic once the session is torn down.
        """
        if self._fleet is None:
            return dict(self._final_stats)
        return self._fleet.statistics()


def _close_tcp_resources(dispatchers, fleet) -> None:
    """Finalizer backstop mirroring :func:`_shutdown_executors`."""
    for dispatcher in dispatchers:
        dispatcher.shutdown(wait=True)
    fleet.close()


class TcpBackend(FleetBackend):
    """Dispatch work items to remote worker daemons over TCP.

    The multi-machine transport of the execution layer: every endpoint is a
    ``python -m repro.streamrule.worker`` daemon, reached over the
    length-prefixed, versioned wire protocol of
    :mod:`repro.streamrule.net` (see ``docs/wire-protocol.md``).  ``start``
    pickles the bound reasoner once and ships it to every worker during the
    handshake; per-item dispatch then ships either a thinned
    :class:`WorkItem` or -- when the ``delta_shipping`` capability was
    negotiated and the window overlaps its predecessor -- a
    :class:`~repro.streamrule.net.FactDelta` frame carrying only the slide.

    Slot routing and fault tolerance live in the
    :class:`~repro.streamrule.fleet.WorkerFleet`: the placement strategy
    picks a slot, the fleet maps slots onto endpoints, reroutes the slots of
    a dead worker to the survivors (retrying the in-flight item there), and
    raises :class:`BackendConnectionError` once no worker survives -- at
    which point the session evaluates inline and counts a fallback.  A
    single-thread dispatcher per slot preserves per-track ordering, exactly
    like the shared-memory backend.

    Parameters
    ----------
    endpoints:
        Worker addresses (``"host:port"`` strings or
        :class:`~repro.streamrule.fleet.WorkerEndpoint` instances).
    slots:
        Placement slots to spread over the fleet (default:
        ``len(endpoints)``).
    placement:
        Slot-choosing strategy (default :class:`PinnedPlacement`).
    delta_shipping:
        Offer shard-side fact-delta shipping in the handshake.
    symbol_ids:
        Offer interned-id fact shipping in the handshake: facts travel as
        packed u32 id arrays against per-connection synced symbol tables
        instead of pickled atoms.
    heartbeat_interval:
        Seconds between background heartbeats; ``None`` disables the
        heartbeat thread (liveness is then discovered on submit).
    connect_attempts / reconnect_attempts / base_delay / max_delay:
        Bounded-exponential-backoff budgets for the initial connect and for
        mid-stream reconnects (see
        :func:`~repro.streamrule.net.connect_with_backoff`).
    ssl_context / server_hostname / auth_token / codec:
        Security surface, threaded through to the fleet's
        :class:`~repro.streamrule.net.WorkerClient` connections: TLS
        wrapping, the shared-token ``AUTH`` response, and the
        pickle-vs-restricted wire dialect (see
        ``docs/deployment-security.md``).
    registry:
        Push rediscovery: ``True`` starts a
        :class:`~repro.streamrule.fleet.FleetRegistry` on an ephemeral
        localhost port (``backend.registry.address`` tells workers where
        to ``--announce``); a ``"host:port"`` string or address pair binds
        it there.  Dead endpoints are also re-probed on every heartbeat,
        so the registry is an optimization (instant rejoin), not a
        requirement.
    """

    name = "tcp"

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        placement: Optional[PlacementStrategy] = None,
        delta_shipping: bool = True,
        symbol_ids: bool = True,
        heartbeat_interval: Optional[float] = None,
        connect_attempts: int = 5,
        reconnect_attempts: int = 2,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        connect_timeout: float = 5.0,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
        codec: str = "pickle",
        registry: Union[bool, str, Tuple[str, int]] = False,
    ):
        super().__init__(endpoints, slots, placement, ConnectionSettings.of(locals()))
        self.heartbeat_interval = heartbeat_interval
        self.reconnect_attempts = reconnect_attempts
        self._registry_spec = registry
        self._registry: Optional[FleetRegistry] = None
        self._dispatchers: Optional[List[ThreadPoolExecutor]] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._heartbeat_stop: Optional[threading.Event] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    @property
    def registry(self) -> Optional[FleetRegistry]:
        """The live announce listener (``None`` unless started with one)."""
        return self._registry

    def _start(self, reasoner: Reasoner) -> None:
        fleet = WorkerFleet(
            self.endpoints, slots=self.slots, reconnect_attempts=self.reconnect_attempts, **vars(self.settings)
        )
        fleet.start(encode_reasoner_payload(reasoner, self.settings.codec))
        if self._registry_spec:
            if self._registry_spec is True:
                registry_host, registry_port = "127.0.0.1", 0
            else:
                bind = WorkerEndpoint.parse(self._registry_spec)
                registry_host, registry_port = bind.host, bind.port
            self._registry = FleetRegistry(fleet, registry_host, registry_port)
        dispatchers = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"tcp-dispatch-{slot}")
            for slot in range(fleet.slot_count)
        ]
        self._fleet = fleet
        self._dispatchers = dispatchers
        self._finalizer = weakref.finalize(self, _close_tcp_resources, list(dispatchers), fleet)
        if self.heartbeat_interval is not None:
            self._heartbeat_stop = threading.Event()
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(fleet, self._heartbeat_stop, self.heartbeat_interval),
                name="tcp-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    @staticmethod
    def _heartbeat_loop(fleet: WorkerFleet, stop: threading.Event, interval: float) -> None:
        while not stop.wait(interval):
            try:
                fleet.ping()
                # Pull rediscovery: probe every dead endpoint once per
                # beat, so a worker restarted on the same address rejoins
                # (and gets its canonical slots back) within one interval
                # even without an announce registry.
                fleet.readopt_dead()
            except BackendError:
                # Liveness probing must never die: whatever a probe hit
                # (the fleet handles connection losses itself), keep the
                # remaining endpoints monitored.
                continue

    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        self._require_started()
        assert self._fleet is not None and self._dispatchers is not None
        slot = self.placement.slot(item, self._fleet.slot_count)
        return self._dispatchers[slot].submit(self._fleet.roundtrip, slot, item)

    def _close(self) -> None:
        registry, self._registry = self._registry, None
        if registry is not None:
            registry.close()
        stop, self._heartbeat_stop = self._heartbeat_stop, None
        thread, self._heartbeat_thread = self._heartbeat_thread, None
        if stop is not None:
            stop.set()
        if thread is not None:
            thread.join(timeout=5.0)
        self._release_fleet()
        finalizer, self._finalizer = self._finalizer, None
        self._dispatchers = None
        if finalizer is not None:
            finalizer()


# --------------------------------------------------------------------------- #
# Shared-memory backend: same-host processes, zero-pickle dispatch
# --------------------------------------------------------------------------- #
class SharedMemoryBackend(ExecutionBackend):
    """Dispatch to pinned same-host worker processes over shared memory.

    True multi-core execution on one host: workers are separate
    (``spawn``-started) processes, each holding its own unpickled copy of the
    reasoner and evaluating thinned :class:`WorkItem`\\ s, and dispatch
    crosses the process boundary through a pair of shared-memory rings per
    slot (see :mod:`repro.streamrule.shm`).  Facts travel as packed u32
    symbol ids against per-direction synced
    :class:`~repro.asp.syntax.symbols.SymbolTable` replicas -- in steady
    state a window costs ``4 bytes x |window|`` written straight into
    ``/dev/shm``, with no pickling of atoms in either direction.

    Same capability surface as the TCP backend: one single-thread
    dispatcher per slot preserves per-track ordering (so the per-track
    caches keep working), the placement strategy routes items to slots, and a
    dead worker raises :class:`BackendConnectionError` at the caller -- the
    session answers with its inline fallback.  :meth:`drop_worker` is the
    fault-injection hook the crash tests (and the example) use.
    """

    name = "shared-memory"
    uses_placement = True
    pipelined = True

    def __init__(
        self,
        max_workers: Optional[int] = None,
        placement: Optional[PlacementStrategy] = None,
        *,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
    ):
        super().__init__(placement)
        self.max_workers = max_workers
        self.ring_capacity = ring_capacity
        self._slots: Optional[List[ShmSlot]] = None
        self._dispatchers: Optional[List[ThreadPoolExecutor]] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._final_stats: Dict[str, float] = {}

    @property
    def slots(self) -> Optional[List[ShmSlot]]:
        """The live worker slots (``None`` while closed)."""
        return self._slots

    def _start(self, reasoner: Reasoner) -> None:
        workers = self.max_workers or os.cpu_count() or 1
        payload = pickle.dumps(reasoner)
        slots = [ShmSlot(index, payload, capacity=self.ring_capacity) for index in range(workers)]
        self._slots = slots
        self._dispatchers = [
            ThreadPoolExecutor(max_workers=1, thread_name_prefix=f"shm-dispatch-{slot.index}")
            for slot in slots
        ]
        self._finalizer = weakref.finalize(
            self, _close_shm_resources, list(self._dispatchers), list(slots)
        )

    def _submit(self, item: WorkItem) -> "Future[ReasonerResult]":
        self._require_started()
        assert self._slots is not None and self._dispatchers is not None
        slot = self.placement.slot(item, len(self._slots))
        return self._dispatchers[slot].submit(self._slots[slot].roundtrip, item.thinned())

    def drop_worker(self, slot: int = 0) -> None:
        """Fault injection: hard-kill one slot's worker process."""
        self._require_started()
        assert self._slots is not None
        self._slots[slot].kill()

    def transport_statistics(self) -> Dict[str, float]:
        """The ring counters (the uniform transport spelling)."""
        return self.shm_statistics()

    def shm_statistics(self) -> Dict[str, float]:
        """Ring traffic counters summed over the slots.

        After ``close`` this keeps answering with the final snapshot, so
        benchmarks can report traffic once the session is torn down.
        """
        if self._slots is None:
            return dict(self._final_stats)
        totals = ShmSlotStats()
        for slot in self._slots:
            totals = totals.merged_with(slot.stats)
        return {
            "items": float(totals.items),
            "symbols_out": float(totals.symbols_out),
            "symbols_in": float(totals.symbols_in),
            "bytes_out": float(totals.bytes_out),
            "bytes_in": float(totals.bytes_in),
            "oversizes": float(totals.oversizes),
            "alive_workers": float(sum(1 for slot in self._slots if slot.process.is_alive())),
        }

    def _close(self) -> None:
        self._final_stats = self.shm_statistics()
        finalizer, self._finalizer = self._finalizer, None
        self._dispatchers = None
        self._slots = None
        if finalizer is not None:
            finalizer()


def _close_shm_resources(dispatchers, slots) -> None:
    """Finalizer backstop mirroring :func:`_close_tcp_resources`."""
    for dispatcher in dispatchers:
        dispatcher.shutdown(wait=True)
    for slot in slots:
        slot.close()
