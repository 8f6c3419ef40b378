"""The (extended) StreamRule framework.

* :mod:`repro.streamrule.metrics` -- latency breakdowns and accuracy records.
* :mod:`repro.streamrule.work` -- the typed :class:`WorkItem` unit of
  dispatch (facts, delta, track, epoch).
* :mod:`repro.streamrule.placement` -- placement strategies mapping work
  items to worker slots (track-pinned, consistent-hash-over-content).
* :mod:`repro.streamrule.errors` -- the execution-layer exception hierarchy.
* :mod:`repro.streamrule.net` -- the wire layer of the distributed tier:
  framed messages, the versioned handshake with capability negotiation,
  shard-side fact-delta shipping, and bounded-backoff connects.
* :mod:`repro.streamrule.worker` -- the remote worker daemon
  (``python -m repro.streamrule.worker --listen HOST:PORT``).
* :mod:`repro.streamrule.fleet` -- the :class:`WorkerFleet` coordinator
  mapping placement slots onto worker endpoints, with dead-worker
  rerouting.
* :mod:`repro.streamrule.backends` -- the pluggable :class:`ExecutionBackend`
  protocol and its transports: inline, thread pool, the shared-memory
  backend on same-host worker processes, and the TCP backend dispatching
  to a remote worker fleet.
* :mod:`repro.streamrule.shm` -- the shared-memory rings behind
  :class:`SharedMemoryBackend`: same-host worker processes reached through
  ``/dev/shm`` with facts travelling as packed symbol-id arrays.
* :mod:`repro.streamrule.reasoner` -- the reasoner ``R``: data format
  processor plus the ASP solver, evaluating one work item per call
  (the dashed box of Figure 1).
* :mod:`repro.streamrule.session` -- the unified :class:`StreamSession`
  facade: window policy -> partitioning handler -> backend dispatch ->
  combining handler -> solution triples.  A session with a partitioner is
  the parallel reasoner ``PR`` (the grey box of Figure 6).
* :mod:`repro.streamrule.autoscale` -- the backpressure-driven
  :class:`FleetAutoscaler` growing/shrinking a live TCP fleet from
  sustained stall and AIMD-backoff streaks.
* :mod:`repro.streamrule.codec` -- the restricted (non-pickle) wire
  dialect for untrusted peers: programs as text, facts and results as
  typed JSON + packed-id frames.
* :mod:`repro.streamrule.adaptive` -- the AIMD
  :class:`AdaptiveInflightController` deriving the session's in-flight
  bound from observed stalls, queue depth, and gather latency
  (``max_inflight="adaptive"``).
* :mod:`repro.streamrule.aio` -- the asyncio-native serving surface:
  :class:`AsyncStreamSession` and :class:`AioTcpBackend` multiplex many
  sessions over one event loop and one worker fleet.
* :mod:`repro.streamrule.server` -- the multi-tenant :class:`QueryServer`:
  many named standing queries over one shared backend, with shared-
  subprogram grounding, a fairness scheduler, and a Prometheus endpoint.

The architecture guide (``docs/architecture.md``) walks the full layer
stack; ``docs/api.md`` is the annotated index of this public surface.
"""

from repro.streamrule.adaptive import DEFAULT_CEILING, AdaptiveInflightController
from repro.streamrule.aio import (
    AioTcpBackend,
    AsyncStreamSession,
    AsyncWorkerClient,
    AsyncWorkerFleet,
)
from repro.streamrule.backends import (
    ExecutionBackend,
    InlineBackend,
    SharedMemoryBackend,
    TcpBackend,
    ThreadPoolBackend,
)
from repro.streamrule.errors import BackendConnectionError, BackendError, HandshakeError, ProtocolError
from repro.streamrule.fleet import FleetRegistry, WorkerEndpoint, WorkerFleet
from repro.streamrule.metrics import (
    IngestionStats,
    LatencyBreakdown,
    ReasonerMetrics,
    TenantStats,
    Timer,
)
from repro.streamrule.net import PROTOCOL_VERSION, WireStats, WorkerClient
from repro.streamrule.placement import ConsistentHashPlacement, PinnedPlacement, PlacementStrategy
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.session import (
    DEFAULT_MAX_INFLIGHT,
    ParallelResult,
    PendingWindow,
    StreamSession,
    WindowSolution,
)
from repro.streamrule.work import WorkItem

__all__ = [
    "AdaptiveInflightController",
    "AioTcpBackend",
    "AsyncStreamSession",
    "AsyncWorkerClient",
    "AsyncWorkerFleet",
    "BackendConnectionError",
    "BackendError",
    "ConsistentHashPlacement",
    "DEFAULT_CEILING",
    "DEFAULT_MAX_INFLIGHT",
    "ExecutionBackend",
    "FleetAutoscaler",
    "FleetRegistry",
    "HandshakeError",
    "IngestionStats",
    "InlineBackend",
    "LatencyBreakdown",
    "PROTOCOL_VERSION",
    "ParallelResult",
    "PendingWindow",
    "PinnedPlacement",
    "PlacementStrategy",
    "ProtocolError",
    "QueryResult",
    "QueryServer",
    "SharedMemoryBackend",
    "Reasoner",
    "ReasonerMetrics",
    "ReasonerResult",
    "StandingQuery",
    "StreamSession",
    "TcpBackend",
    "TenantStats",
    "ThreadPoolBackend",
    "Timer",
    "WindowSolution",
    "WireStats",
    "WorkItem",
    "WorkerClient",
    "WorkerEndpoint",
    "WorkerFleet",
    "WorkerServer",
    "spawn_local_workers",
]

#: Worker-daemon names resolved lazily (PEP 562) so that
#: ``python -m repro.streamrule.worker`` does not find its target module
#: already imported by this package (runpy would warn and re-execute it).
_LAZY_WORKER_EXPORTS = ("LocalWorkerProcess", "WorkerServer", "spawn_local_workers")

#: The autoscaler imports the worker module, so it is lazy for the same
#: runpy reason.
_LAZY_AUTOSCALE_EXPORTS = ("FleetAutoscaler",)

#: Query-server names resolved lazily: the server package imports this
#: package's session/backends modules, so eager re-export would cycle.
_LAZY_SERVER_EXPORTS = ("QueryServer", "StandingQuery", "QueryResult")


def __getattr__(name: str):
    if name in _LAZY_WORKER_EXPORTS:
        from repro.streamrule import worker

        return getattr(worker, name)
    if name in _LAZY_AUTOSCALE_EXPORTS:
        from repro.streamrule import autoscale

        return getattr(autoscale, name)
    if name in _LAZY_SERVER_EXPORTS:
        from repro.streamrule import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
