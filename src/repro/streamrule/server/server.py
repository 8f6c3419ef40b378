"""The multi-tenant :class:`QueryServer`.

One server hosts many named standing queries over a single shared
:class:`~repro.streamrule.backends.ExecutionBackend`.  The moving parts:

*Union program over shared tracks.*  All registered queries are normalized
(:mod:`~repro.streamrule.server.subprogram`), their distinct rules merged
into one union program, and a single internal
:class:`~repro.streamrule.session.StreamSession` evaluates that program --
so a rule shared by N tenants is grounded and solved once per window on a
shared :class:`~repro.asp.grounding.grounder.GroundingCache` /
:class:`~repro.asp.solving.incremental.SolverCache` track, not N times in N
isolated sessions.  Each tenant's answers are projected out of the combined
answer sets onto its output predicates; registration rejects query
combinations for which that projection would not be semantics-preserving
(:func:`~repro.streamrule.server.subprogram.union_conflicts`).

*Window lanes.*  Queries agreeing on (window policy, input filter) share a
*lane*: the lane windows the shared stream once, each completed window is
evaluated once, and the result fans out to every member query.  Every lane
owns a disjoint track range (``lane_id * track_stride``) via the session's
``push_window(track_base=...)`` seam, so lanes never collide their
per-track grounding / incremental-solver states.

*Fairness.*  Ready windows do not dispatch in arrival order but through a
:class:`~repro.streamrule.server.scheduler.FairScheduler`: weighted
round-robin over lanes (a lane weighs the sum of its member tenants'
weights) with per-lane quotas on the bounded in-flight budget and a
starvation guard.  The budget itself adapts to the backend's observed
``queue_depth()`` -- a congested fleet halves the dispatch budget until it
drains.

*Ops.*  :meth:`QueryServer.metric_families` assembles per-tenant counters
(:class:`~repro.streamrule.metrics.TenantStats`), the session's
:class:`~repro.streamrule.metrics.IngestionStats`, backend queue/transport
statistics, and both cache statistics; :meth:`QueryServer.serve_metrics`
exposes them over the Prometheus text format (see
:mod:`~repro.streamrule.server.metrics_export`).
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple, Union

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.program import Program
from repro.core.partitioner import Partitioner
from repro.streaming.format import DataFormatProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindowStepper
from repro.streamrule.backends import ExecutionBackend, InlineBackend
from repro.streamrule.metrics import TenantStats
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.server.metrics_export import MetricFamily, MetricsEndpoint
from repro.streamrule.server.registry import (
    QueryRegistry,
    QueryResult,
    StandingQuery,
    Subscription,
)
from repro.streamrule.server.scheduler import FairScheduler
from repro.streamrule.server.subprogram import (
    ProgramSignature,
    program_signature,
    shared_fraction,
    union_conflicts,
)
from repro.streamrule.session import StreamSession, WindowSolution, check_max_inflight

__all__ = ["QueryConflictError", "QueryServer"]

StreamItem = Union[Triple, Atom]

#: Tracks reserved per lane: lane ``i`` dispatches partition ``t`` as cache
#: track ``i * stride + t``, so lanes never collide their track states as
#: long as the partitioner stays under ``stride`` partitions.
DEFAULT_TRACK_STRIDE = 64

_METRIC_TOKEN = re.compile(r"[^a-zA-Z0-9_]")


class QueryConflictError(ValueError):
    """Registering this query would change some registered query's meaning."""

    def __init__(self, conflicts: List[str]):
        self.conflicts = conflicts
        super().__init__(
            "query union would not preserve per-query semantics:\n  - " + "\n  - ".join(conflicts)
        )


@dataclass
class _Lane:
    """Queries agreeing on (window policy, input filter) share one lane."""

    lane_id: int
    key: Hashable
    window: object  # CountWindow
    input_filter: Optional[frozenset]
    stepper: CountWindowStepper
    members: List[str] = field(default_factory=list)
    windows_ready: int = 0
    windows_evaluated: int = 0

    def accepts(self, item: StreamItem) -> bool:
        return self.input_filter is None or item.predicate in self.input_filter


class QueryServer:
    """Host many standing queries over one shared execution backend.

    Typical use::

        server = QueryServer(backend=TcpBackend(endpoints))
        inbox = server.register(StandingQuery(
            tenant="city", name="jams", program=traffic_program(),
            window=CountWindow(size=300, slide=75, emit_partial=False),
            input_predicates=INPUT_PREDICATES,
            output_predicates=EVENT_PREDICATES,
        ))
        server.push(stream)                # feed everyone's items, mixed
        server.finish()
        for result in inbox.drain():       # per-query projected answers
            ...
        server.close()

    Not thread-safe for concurrent pushes; one ingest thread drives the
    server (subscriptions may be drained from any thread).
    """

    def __init__(
        self,
        *,
        backend: Optional[ExecutionBackend] = None,
        partitioner: Optional[Partitioner] = None,
        grounding_cache: Optional[GroundingCache] = None,
        solver_cache=None,
        scheduler: Optional[FairScheduler] = None,
        max_inflight: Optional[int] = None,
        max_models: Optional[int] = None,
        max_combinations: Optional[int] = 64,
        track_stride: int = DEFAULT_TRACK_STRIDE,
    ):
        if track_stride < 1:
            raise ValueError("track_stride must be at least 1")
        self.backend: ExecutionBackend = backend if backend is not None else InlineBackend()
        self.partitioner = partitioner
        # Shared grounding is the point of the server: default to a real
        # cache so overlapping queries share tracks out of the box.
        self.grounding_cache = grounding_cache if grounding_cache is not None else GroundingCache()
        self.solver_cache = solver_cache
        self.scheduler = scheduler if scheduler is not None else FairScheduler()
        self.max_inflight = check_max_inflight(max_inflight)
        self.max_models = max_models
        self.max_combinations = max_combinations
        self.track_stride = track_stride

        self.registry = QueryRegistry()
        self.tenant_stats: Dict[str, TenantStats] = {}
        #: Ready windows the trimmed budget refused to dispatch immediately
        #: because the backend's queue ran deep (they dispatch later).
        self.budget_trims = 0
        #: Solutions whose lane disappeared before gather (late unregister).
        self.orphaned_windows = 0

        self._format_processor = DataFormatProcessor()
        self._lock = threading.RLock()
        self._signatures: Dict[str, ProgramSignature] = {}
        self._lanes: Dict[Hashable, _Lane] = {}
        self._session: Optional[StreamSession] = None
        self._active_fingerprints: Optional[frozenset] = None
        self._program_version = 0
        self._next_lane_id = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def register(self, query: StandingQuery) -> Subscription:
        """Add a standing query; returns its result subscription.

        Raises :class:`QueryConflictError` when evaluating the query jointly
        with the already-registered ones could change anyone's answers --
        the fix is namespacing the colliding derived predicates.  Mid-stream
        registration is allowed: the query's lane starts windowing at the
        next pushed item, and a window already dispatched to the lane's
        other members is not delivered to it.  A registration that raises
        leaves the server as it was.
        """
        with self._lock:
            self._require_open()
            signature = program_signature(query.program, name=query.key)
            candidate = dict(self._signatures)
            candidate[query.key] = signature
            conflicts = union_conflicts(candidate)
            if conflicts:
                raise QueryConflictError(conflicts)
            subscription = self.registry.register(query)
            self._signatures[query.key] = signature
            new_tenant = query.tenant not in self.tenant_stats
            self.tenant_stats.setdefault(query.tenant, TenantStats(tenant=query.tenant))
            try:
                self._join_lane(query)
                self._refresh_program()
            except BaseException:
                self.registry.unregister(query.key)
                del self._signatures[query.key]
                self._leave_lane(query)
                if new_tenant:
                    del self.tenant_stats[query.tenant]
                raise
            return subscription

    def unregister(self, key: str) -> StandingQuery:
        """Remove a standing query mid-stream.

        Its lane's still-pending windows are dropped for that query (other
        members keep them); the union program shrinks -- and the session is
        rolled -- only when the query owned rules nobody else shares.
        """
        with self._lock:
            self._require_open()
            query = self.registry.unregister(key)
            self._signatures.pop(key, None)
            self._leave_lane(query)
            self._refresh_program()
            return query

    def queries(self) -> List[StandingQuery]:
        return self.registry.list_queries()

    def subscription(self, key: str) -> Subscription:
        return self.registry.subscription(key)

    # ------------------------------------------------------------------ #
    # Lanes
    # ------------------------------------------------------------------ #
    @staticmethod
    def _lane_key(query: StandingQuery) -> Hashable:
        window = query.window
        inputs = query.effective_inputs()
        return (
            window.size,
            window.slide,
            window.emit_partial,
            tuple(sorted(inputs)) if inputs is not None else None,
        )

    def _join_lane(self, query: StandingQuery) -> None:
        key = self._lane_key(query)
        lane = self._lanes.get(key)
        if lane is None:
            lane = _Lane(
                lane_id=self._next_lane_id,
                key=key,
                window=query.window,
                input_filter=query.effective_inputs(),
                stepper=query.window.stepper(),
            )
            self._next_lane_id += 1
            self._lanes[key] = lane
            label = f"lane{lane.lane_id}:{query.key}"
            if hasattr(self.grounding_cache, "label_track"):
                self.grounding_cache.label_track(lane.lane_id * self.track_stride, label)
            if self.solver_cache is not None and hasattr(self.solver_cache, "label_track"):
                self.solver_cache.label_track(lane.lane_id * self.track_stride, label)
        lane.members.append(query.key)
        self.scheduler.configure(key, weight=self._lane_weight(lane))

    def _leave_lane(self, query: StandingQuery) -> None:
        key = self._lane_key(query)
        lane = self._lanes.get(key)
        if lane is None:
            return
        if query.key in lane.members:
            lane.members.remove(query.key)
        if lane.members:
            self.scheduler.configure(key, weight=self._lane_weight(lane))
            return
        self.scheduler.remove(key)
        del self._lanes[key]

    def _lane_weight(self, lane: _Lane) -> float:
        total = 0.0
        for member in lane.members:
            if member in self.registry:
                total += self.registry.get(member).weight
        return total or 1.0

    # ------------------------------------------------------------------ #
    # The union program and the shared session
    # ------------------------------------------------------------------ #
    def _refresh_program(self) -> None:
        """Rebuild the combined session iff the effective rule set changed.

        The new session is built before the old one is drained and closed,
        so a build that raises leaves the running session in place.
        """
        fingerprints = frozenset(
            fingerprint for signature in self._signatures.values() for fingerprint in signature.fingerprints
        )
        if fingerprints == self._active_fingerprints:
            return
        session = self._build_session(self._program_version + 1) if self._signatures else None
        if self._session is not None:
            # Gather (and route) everything in flight under the old program
            # before the reasoner changes underneath the backend.
            self._drain_session()
            self._session.close(drain=False)
        self._session = session
        self._active_fingerprints = fingerprints
        if session is not None:
            self._program_version += 1

    def _build_session(self, version: int) -> StreamSession:
        """A session evaluating the union of the registered queries' rules."""
        rules: Dict[str, object] = {}
        for signature in self._signatures.values():
            for fingerprint, rule in signature.rules.items():
                rules.setdefault(fingerprint, rule)
        program = Program(tuple(rules.values()), name=f"union_v{version}")
        inputs: set = set()
        outputs: set = set()
        for query in self.registry.list_queries():
            filter_ = query.effective_inputs()
            inputs.update(filter_ if filter_ is not None else query.program.edb_predicates())
            outputs.update(query.effective_outputs())
        reasoner = Reasoner(
            program,
            input_predicates=tuple(sorted(inputs)) or None,
            output_predicates=tuple(sorted(outputs)) or None,
            format_processor=self._format_processor,
            max_models=self.max_models,
            grounding_cache=self.grounding_cache,
            solver_cache=self.solver_cache,
        )
        return StreamSession(
            reasoner,
            window=None,
            backend=self.backend,
            partitioner=self.partitioner,
            max_inflight=self.max_inflight,
            max_combinations=self.max_combinations,
            owns_backend=False,
        )

    @property
    def program_version(self) -> int:
        """How many times the union program has been (re)built."""
        return self._program_version

    @property
    def combined_program(self) -> Optional[Program]:
        return self._session.reasoner.program if self._session is not None else None

    # ------------------------------------------------------------------ #
    # Ingestion
    # ------------------------------------------------------------------ #
    def push(self, items: Union[StreamItem, Iterable[StreamItem]]) -> int:
        """Feed shared-stream items to every lane; dispatch what completes.

        Returns the number of lane windows that became ready.  Dispatch
        order is the fairness scheduler's, not arrival order; results land
        in the member queries' subscriptions as evaluations gather.
        """
        # One conversion per pushed item, whatever the number of lanes: the
        # lane steppers buffer atoms, and the windows they cut go to the
        # shared session (and over the wire) as they are.
        batch = self._format_processor.to_atoms([items] if isinstance(items, (Triple, Atom)) else items)
        ready = 0
        with self._lock:
            self._require_open()
            for item in batch:
                for lane in self._lanes.values():
                    if not lane.accepts(item):
                        continue
                    delta = lane.stepper.feed(item)
                    if delta is not None:
                        lane.windows_ready += 1
                        ready += 1
                        self.scheduler.enqueue(lane.key, delta)
            self._pump(block=False)
        return ready

    def finish(self) -> None:
        """Flush lane tails, dispatch everything pending, route all results.

        The server stays usable; lanes restart windowing fresh on the next
        push (their window indexes restart at 0), exactly like
        :meth:`StreamSession.finish`.
        """
        with self._lock:
            self._require_open()
            for lane in self._lanes.values():
                tail = lane.stepper.flush()
                if tail is not None:
                    lane.windows_ready += 1
                    self.scheduler.enqueue(lane.key, tail)
                lane.stepper = lane.window.stepper()
            self._pump(block=True)

    def _budget(self) -> int:
        """The dispatch budget this round, trimmed under backend congestion."""
        assert self._session is not None
        budget = self._session.effective_max_inflight()
        if self.backend.queue_depth() >= 2 * budget and budget > 1:
            self.budget_trims += 1
            return max(1, budget // 2)
        return budget

    def _pump(self, block: bool) -> None:
        """Move ready windows into the backend and route finished ones out."""
        if self._session is None:
            # No queries registered: drop any stray ready work defensively.
            while self.scheduler.has_pending():
                picked = self.scheduler.select(1)
                if picked is None:
                    break
                self.scheduler.complete(picked[0])
            return
        session = self._session
        while True:
            self._route_ready()
            if not self.scheduler.has_pending() and (not block or session.inflight_count == 0):
                return
            budget = self._budget()
            if session.inflight_count < budget:
                picked = self.scheduler.select(budget)
                if picked is not None:
                    self._dispatch(picked[0], picked[1])
                    continue
                if not self.scheduler.has_pending():
                    continue  # loop back to drain/route in-flight
            if not block:
                return
            if session.inflight_count:
                self._gather_one()
                continue
            # Pending work, an empty pipeline, and nothing selectable: the
            # scheduler's in-flight bookkeeping has desynchronized.
            raise RuntimeError("query server stalled: pending windows but nothing dispatchable")

    def _dispatch(self, lane_key: Hashable, delta) -> None:
        lane = self._lanes.get(lane_key)
        if lane is None:
            self.scheduler.complete(lane_key)
            return
        assert self._session is not None
        lane.windows_evaluated += 1
        for member in lane.members:
            if member in self.registry:
                stats = self.tenant_stats[self.registry.get(member).tenant]
                stats.windows_dispatched += 1
        # The tag names the members the window is evaluated for: a query
        # that joins while it is in flight gets it from the union program
        # of before its rules, so it is not theirs to receive.
        self._session.push_window(
            delta.window,
            delta=delta,
            index=delta.index,
            tag=(lane_key, tuple(lane.members)),
            track_base=lane.lane_id * self.track_stride,
        )

    def _route_ready(self) -> None:
        assert self._session is not None
        for solution in self._session.results(wait=False):
            self._route(solution)

    def _gather_one(self) -> None:
        assert self._session is not None
        for solution in self._session.results(wait=True):
            self._route(solution)
            return

    def _drain_session(self) -> None:
        if self._session is None:
            return
        for solution in self._session.results(wait=True):
            self._route(solution)

    def _route(self, solution: WindowSolution) -> None:
        """Fan one evaluated lane window out to the members it was dispatched for that are still registered."""
        lane_key, dispatched_for = solution.tag
        self.scheduler.complete(lane_key)
        lane = self._lanes.get(lane_key)
        current = lane.members if lane is not None else []
        members = [key for key in dispatched_for if key in current and key in self.registry]
        if not members:
            self.orphaned_windows += 1
            return
        for key in members:
            query = self.registry.get(key)
            outputs = query.effective_outputs()
            projected: Dict[frozenset, None] = {}
            for answer in solution.answers:
                projected.setdefault(frozenset(atom for atom in answer if atom.predicate in outputs))
            answers = tuple(projected)
            result = QueryResult(
                query_key=key,
                tenant=query.tenant,
                window_index=solution.window_index,
                window_size=solution.window_size,
                answers=answers,
                solution_triples=tuple(
                    triple for triple in solution.solution_triples if triple.predicate in outputs
                ),
                latency_seconds=solution.metrics.latency_seconds,
                shared_with=len(members),
                metrics=solution.metrics,
            )
            self.registry.subscription(key).publish(result)
            stats = self.tenant_stats[query.tenant]
            stats.windows_completed += 1
            if len(members) > 1:
                stats.windows_shared += 1
            stats.answer_sets += len(answers)
            stats.observe_latency(solution.metrics.latency_seconds)

    # ------------------------------------------------------------------ #
    # Sharing introspection
    # ------------------------------------------------------------------ #
    def sharing_summary(self) -> Dict[str, float]:
        """How much grounding the union program saves over isolation."""
        with self._lock:
            per_query = [len(signature.fingerprints) for signature in self._signatures.values()]
            combined = frozenset(
                fingerprint
                for signature in self._signatures.values()
                for fingerprint in signature.fingerprints
            )
            seen: Dict[str, int] = {}
            for signature in self._signatures.values():
                for fingerprint in signature.fingerprints:
                    seen[fingerprint] = seen.get(fingerprint, 0) + 1
            shared = sum(1 for count in seen.values() if count > 1)
            return {
                "queries": float(len(per_query)),
                "total_rules": float(sum(per_query)),
                "combined_rules": float(len(combined)),
                "shared_rules": float(shared),
                "lanes": float(len(self._lanes)),
            }

    def overlap_matrix(self) -> Dict[Tuple[str, str], float]:
        """Pairwise shared-rule fractions between registered queries."""
        with self._lock:
            keys = list(self._signatures)
            matrix: Dict[Tuple[str, str], float] = {}
            for i, first in enumerate(keys):
                for second in keys[i + 1 :]:
                    matrix[(first, second)] = shared_fraction(
                        self._signatures[first].fingerprints, self._signatures[second].fingerprints
                    )
            return matrix

    # ------------------------------------------------------------------ #
    # Ops: metric families and the HTTP endpoint
    # ------------------------------------------------------------------ #
    def metric_families(self) -> List[MetricFamily]:
        """Everything the ops endpoint exports, as live values."""
        with self._lock:
            families: List[MetricFamily] = []

            tenant_counters = (
                ("windows_dispatched", "streamrule_tenant_windows_dispatched_total",
                 "Lane windows dispatched on behalf of the tenant's queries"),
                ("windows_completed", "streamrule_tenant_windows_completed_total",
                 "Lane windows whose results were delivered to the tenant"),
                ("windows_shared", "streamrule_tenant_windows_shared_total",
                 "Completed windows whose evaluation also served other tenants"),
                ("answer_sets", "streamrule_tenant_answer_sets_total",
                 "Projected answer sets delivered to the tenant's subscriptions"),
                ("scheduler_boosts", "streamrule_tenant_scheduler_boosts_total",
                 "Starvation-guard boosts credited to the tenant's lanes"),
            )
            for attribute, name, help_text in tenant_counters:
                family = MetricFamily(name, "counter", help_text)
                for tenant, stats in self.tenant_stats.items():
                    family.add(float(getattr(stats, attribute)), tenant=tenant)
                families.append(family)
            latency = MetricFamily(
                "streamrule_tenant_latency_seconds",
                "gauge",
                "Per-tenant window latency percentiles over the recent reservoir",
            )
            for tenant, stats in self.tenant_stats.items():
                latency.add(stats.p50_latency_seconds, tenant=tenant, quantile="0.5")
                latency.add(stats.p95_latency_seconds, tenant=tenant, quantile="0.95")
            families.append(latency)

            registered = MetricFamily(
                "streamrule_queries_registered", "gauge", "Standing queries currently registered"
            )
            registered.add(float(len(self.registry)))
            families.append(registered)
            lanes = MetricFamily(
                "streamrule_lanes_active", "gauge", "Distinct (window, filter) lanes currently active"
            )
            lanes.add(float(len(self._lanes)))
            families.append(lanes)
            pending = MetricFamily(
                "streamrule_lane_windows_pending", "gauge", "Ready windows awaiting fair dispatch, per lane"
            )
            evaluated = MetricFamily(
                "streamrule_lane_windows_evaluated_total", "counter",
                "Windows evaluated per lane (each fans out to all lane members)",
            )
            for lane in self._lanes.values():
                label = f"lane{lane.lane_id}"
                pending.add(float(self.scheduler.pending_count(lane.key)), lane=label)
                evaluated.add(float(lane.windows_evaluated), lane=label)
            families.append(pending)
            families.append(evaluated)
            trims = MetricFamily(
                "streamrule_scheduler_budget_trims_total", "counter",
                "Dispatch rounds the in-flight budget was halved under backend congestion",
            )
            trims.add(float(self.budget_trims))
            families.append(trims)

            if self._session is not None:
                ingestion = self._session.ingestion.as_dict()
                session_kinds = {
                    "windows_dispatched": "counter",
                    "windows_gathered": "counter",
                    "inflight_high_water": "gauge",
                    "dispatched_ahead": "counter",
                    "backpressure_stalls": "counter",
                    "backpressure_wait_seconds": "counter",
                }
                for stat, value in ingestion.items():
                    families.append(
                        MetricFamily(
                            f"streamrule_session_{stat}",
                            session_kinds.get(stat, "gauge"),
                            f"Session ingestion statistic {stat}",
                        ).add(value)
                    )
                families.append(
                    MetricFamily(
                        "streamrule_session_inline_fallbacks_total", "counter",
                        "Partition evaluations degraded to inline after a backend connection loss",
                    ).add(float(self._session.fallbacks))
                )

            families.append(
                MetricFamily(
                    "streamrule_backend_queue_depth", "gauge",
                    "Work items submitted to the backend but not yet finished",
                ).add(float(self.backend.queue_depth()))
            )
            families.append(
                MetricFamily(
                    "streamrule_backend_queue_high_water", "gauge",
                    "Most work items ever simultaneously in flight on the backend",
                ).add(float(self.backend.queue_high_water))
            )
            for stat, value in sorted(self.backend.transport_statistics().items()):
                token = _METRIC_TOKEN.sub("_", stat)
                families.append(
                    MetricFamily(
                        f"streamrule_wire_{token}", "gauge",
                        f"Backend transport statistic {stat}",
                    ).add(float(value))
                )

            for prefix, statistics in (
                (
                    "streamrule_grounding_cache",
                    self.grounding_cache.statistics() if self.grounding_cache is not None else {},
                ),
                (
                    "streamrule_solver_cache",
                    self.solver_cache.statistics() if self.solver_cache is not None else {},
                ),
            ):
                for stat, value in sorted(statistics.items()):
                    token = _METRIC_TOKEN.sub("_", stat)
                    families.append(
                        MetricFamily(f"{prefix}_{token}", "gauge", f"Cache statistic {stat}").add(float(value))
                    )
            return families

    def health(self) -> Dict[str, object]:
        with self._lock:
            return {
                "status": "ok",
                "queries": len(self.registry),
                "lanes": len(self._lanes),
                "program_version": self._program_version,
            }

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0) -> MetricsEndpoint:
        """Start the ops HTTP endpoint (``/metrics``, ``/healthz``)."""
        return MetricsEndpoint(self.metric_families, health=self.health, host=host, port=port).start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, drain: bool = True) -> None:
        """Finish outstanding work (``drain=True``) and close the backend."""
        with self._lock:
            if self._closed:
                return
            try:
                if drain and self._session is not None:
                    self._pump(block=True)
                if self._session is not None:
                    self._session.close(drain=drain)
                    self._session = None
            finally:
                self._closed = True
                self.backend.close()

    def __enter__(self) -> "QueryServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=exc_info[0] is None)

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("query server is closed")
