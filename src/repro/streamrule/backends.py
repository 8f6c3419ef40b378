"""Pluggable execution backends: *where* partition work items run.

The paper's partition/combine protocol is transport-agnostic: a partition
evaluation consumes a fact batch and produces a
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
import ssl
import threading
import weakref
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict
from typing import Any, Dict, List, Optional, Sequence

from repro.streamrule.errors import BackendConnectionError, BackendError
from repro.streamrule.fleet import EndpointLike, WorkerEndpoint, WorkerFleet
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.net import ConnectionSettings, WireStats
from repro.streamrule.placement import PinnedPlacement, PlacementStrategy
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.shm import ShmSlot
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
        their own copies of the reasoner, so they must match it).
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
        observers (the query server's dispatch budget on every pump, the
        metrics endpoint on every scrape) and the dispatch hot path.
        """
        return self._inflight_items

    @property
    def queue_high_water(self) -> int:
        """Most items ever simultaneously in flight on this backend."""
        with self._depth_lock:
            return self._inflight_high_water

    def transport_statistics(self) -> Dict[str, float]:
        """Transport-level traffic counters, uniformly named.

        In-process backends have no transport and return ``{}``; the
        fleet-backed backends answer with their fleet's counters and the
        shared-memory backend with the same :class:`WireStats` keys.  The
        uniform spelling is what the query server's metrics endpoint
        exports, whatever backend it happens to run on.
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
    renders the bound reasoner's program as text once
    (:func:`~repro.streamrule.codec.encode_reasoner_spec`, which refuses a
    program the text cannot carry) and ships it to every worker during the
    handshake; per-item dispatch then ships the item's facts as interned
    ids -- copy runs over the same track's previous window plus the new
    ids, so an overlapping window costs about its slide (see
    :class:`~repro.streamrule.net.DeltaShipper`).

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
    heartbeat_interval:
        Seconds between background heartbeats; ``None`` disables the
        heartbeat thread (liveness is then discovered on submit).  Each
        beat also re-probes the dead endpoints, which is how a worker
        restarted on its old address gets its slots back.
    ssl_context / server_hostname / auth_token:
        Security surface, threaded through to the fleet's
        :class:`~repro.streamrule.net.WorkerClient` connections: TLS
        wrapping and the shared-token ``AUTH`` response (see
        ``docs/deployment-security.md``).

    Connect and reconnect budgets and their backoff are the constants of
    :mod:`repro.streamrule.net` (see
    :func:`~repro.streamrule.net.connect_with_backoff`).
    """

    name = "tcp"

    def __init__(
        self,
        endpoints: Sequence[EndpointLike],
        *,
        slots: Optional[int] = None,
        placement: Optional[PlacementStrategy] = None,
        heartbeat_interval: Optional[float] = None,
        ssl_context: Optional[ssl.SSLContext] = None,
        server_hostname: Optional[str] = None,
        auth_token: Optional[str] = None,
    ):
        super().__init__(endpoints, slots, placement, ConnectionSettings.of(locals()))
        self.heartbeat_interval = heartbeat_interval
        self._dispatchers: Optional[List[ThreadPoolExecutor]] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._heartbeat_stop: Optional[threading.Event] = None
        self._heartbeat_thread: Optional[threading.Thread] = None

    def _start(self, reasoner: Reasoner) -> None:
        fleet = WorkerFleet(self.endpoints, slots=self.slots, **vars(self.settings))
        fleet.start(encode_reasoner_spec(reasoner))
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
                # Rediscovery: probe every dead, unretired endpoint once per
                # beat, so a worker restarted on the same address rejoins
                # (and gets its canonical slots back) within one interval.
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
    (``spawn``-started) processes, each rebuilding the reasoner from its text
    spec (as a TCP worker does) and evaluating :class:`WorkItem`\\ s, and dispatch
    crosses the process boundary through a pair of shared-memory rings per
    slot (see :mod:`repro.streamrule.shm`), one byte stream carrying the TCP
    wire itself -- a :class:`~repro.streamrule.net.WorkerClient` talks to
    the daemon's own connection driver, handshake included: facts and
    answers travel as interned u32 ids against per-direction synced
    :class:`~repro.asp.syntax.symbols.SymbolTable` replicas, written
    straight into ``/dev/shm``, with no pickling of atoms in either
    direction.

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

    def __init__(self, max_workers: Optional[int] = None, placement: Optional[PlacementStrategy] = None):
        super().__init__(placement)
        self.max_workers = max_workers
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
        payload = encode_reasoner_spec(reasoner)
        slots: List[ShmSlot] = []
        try:
            slots.extend(ShmSlot(index) for index in range(workers))
            for slot in slots:  # every worker is spawned before the first handshake waits on one
                slot.open(payload)
        except BaseException:
            for slot in slots:
                slot.close()
            raise
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
        client = self._slots[slot].client
        assert client is not None
        return self._dispatchers[slot].submit(client.submit_item, item)

    def drop_worker(self, slot: int = 0) -> None:
        """Fault injection: hard-kill one slot's worker process."""
        self._require_started()
        assert self._slots is not None
        self._slots[slot].kill()

    def transport_statistics(self) -> Dict[str, float]:
        """The slots' :class:`WireStats` summed, under the TCP fleet's key names, plus ``alive_workers``.

        After ``close`` this keeps answering with the final snapshot, so
        benchmarks can report traffic once the session is torn down.
        """
        if self._slots is None:
            return dict(self._final_stats)
        totals = WireStats()
        for slot in self._slots:
            totals = totals.merged_with(slot.stats)
        counters = {
            **asdict(totals),
            "bytes_out": totals.bytes_out,
            "alive_workers": sum(1 for slot in self._slots if slot.process.is_alive()),
        }
        return {name: float(value) for name, value in counters.items()}

    def _close(self) -> None:
        self._final_stats = self.transport_statistics()
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
