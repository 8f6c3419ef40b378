"""Latency and accuracy bookkeeping for the reasoners.

The paper measures the *reasoning latency* -- "the time required for the
reasoner PR to process an input window" -- and stresses that it must include
the data transformation overhead, not only the solver time.  The metrics
classes below therefore keep a full breakdown.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["IngestionStats", "LatencyBreakdown", "ReasonerMetrics", "TenantStats", "Timer"]

#: How many recent per-window latencies a :class:`TenantStats` retains for
#: its percentile estimates.  Bounded so a long-lived tenant costs O(1)
#: memory; 512 windows is plenty for a stable p95.
TENANT_LATENCY_WINDOW = 512


class Timer:
    """Context manager measuring wall-clock seconds."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._started is not None:
            self.seconds = time.perf_counter() - self._started
            self._started = None


@dataclass
class LatencyBreakdown:
    """Per-stage wall-clock seconds for one window evaluation."""

    transformation_seconds: float = 0.0
    grounding_seconds: float = 0.0
    solving_seconds: float = 0.0
    partitioning_seconds: float = 0.0
    combining_seconds: float = 0.0

    @property
    def reasoning_seconds(self) -> float:
        """Solver-side time (grounding plus solving)."""
        return self.grounding_seconds + self.solving_seconds

    @property
    def total_seconds(self) -> float:
        return (
            self.transformation_seconds
            + self.grounding_seconds
            + self.solving_seconds
            + self.partitioning_seconds
            + self.combining_seconds
        )

    def merged_with(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        """Sum of two breakdowns (used when aggregating sequential stages)."""
        return LatencyBreakdown(
            transformation_seconds=self.transformation_seconds + other.transformation_seconds,
            grounding_seconds=self.grounding_seconds + other.grounding_seconds,
            solving_seconds=self.solving_seconds + other.solving_seconds,
            partitioning_seconds=self.partitioning_seconds + other.partitioning_seconds,
            combining_seconds=self.combining_seconds + other.combining_seconds,
        )


@dataclass
class IngestionStats:
    """Producer-side record of pipelined ingestion (one per session).

    Under pipelined ingestion (``StreamSession(max_inflight > 1)``) a window
    is *dispatched* when its partitions are submitted to the backend and
    *gathered* when its futures are collected and combined.  The counters
    here describe how far the two phases actually drifted apart:

    ``inflight_high_water``
        Most windows ever simultaneously dispatched-but-not-gathered.  Equals
        1 for a synchronous session.
    ``dispatched_ahead``
        Dispatches that happened while at least one earlier window was still
        in flight -- the windows that actually ran ahead of the gather point.
    ``backpressure_stalls``
        Times the producer had to wait for the oldest in-flight window
        because the ``max_inflight`` bound was reached *and* that window was
        not yet finished -- i.e. the backend genuinely fell behind the
        producer (a full queue whose head is already done gathers without
        waiting and is not a stall).
    ``backpressure_wait_seconds``
        Wall-clock the producer spent inside those stalls.

    Through :meth:`as_dict` every field flows into the query server's
    Prometheus endpoint.
    """

    windows_dispatched: int = 0
    windows_gathered: int = 0
    inflight_high_water: int = 0
    dispatched_ahead: int = 0
    backpressure_stalls: int = 0
    backpressure_wait_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "windows_dispatched": float(self.windows_dispatched),
            "windows_gathered": float(self.windows_gathered),
            "inflight_high_water": float(self.inflight_high_water),
            "dispatched_ahead": float(self.dispatched_ahead),
            "backpressure_stalls": float(self.backpressure_stalls),
            "backpressure_wait_seconds": self.backpressure_wait_seconds,
        }


@dataclass
class TenantStats:
    """Per-tenant serving record of the multi-tenant query server.

    One instance per registered tenant: how many of its lane windows were
    dispatched and completed, how many of those evaluations also served
    other tenants (``windows_shared`` -- the amortization the shared
    grounding tracks buy), the answer sets delivered to its subscription,
    and a bounded reservoir of recent per-window latencies for the p50/p95
    estimates the ops endpoint exports.
    """

    tenant: str = ""
    windows_dispatched: int = 0
    windows_completed: int = 0
    windows_shared: int = 0
    answer_sets: int = 0
    scheduler_boosts: int = 0
    _latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=TENANT_LATENCY_WINDOW), repr=False
    )

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    def latency_percentile(self, quantile: float) -> float:
        """Nearest-rank percentile over the retained latencies (seconds)."""
        if not self._latencies:
            return 0.0
        if not 0.0 <= quantile <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        ordered = sorted(self._latencies)
        rank = min(len(ordered) - 1, max(0, int(round(quantile * (len(ordered) - 1)))))
        return ordered[rank]

    @property
    def p50_latency_seconds(self) -> float:
        return self.latency_percentile(0.5)

    @property
    def p95_latency_seconds(self) -> float:
        return self.latency_percentile(0.95)

    def as_dict(self) -> Dict[str, float]:
        return {
            "windows_dispatched": float(self.windows_dispatched),
            "windows_completed": float(self.windows_completed),
            "windows_shared": float(self.windows_shared),
            "answer_sets": float(self.answer_sets),
            "scheduler_boosts": float(self.scheduler_boosts),
            "p50_latency_seconds": self.p50_latency_seconds,
            "p95_latency_seconds": self.p95_latency_seconds,
        }


@dataclass
class ReasonerMetrics:
    """One window's evaluation record.

    ``cache_hits`` / ``cache_misses`` count grounding-cache outcomes: for a
    plain :class:`~repro.streamrule.reasoner.Reasoner` they are 0/1 per
    window; the parallel reasoner sums them over its partitions (including
    worker-process-side caches, whose counts travel back inside the partition
    results): a hit serves a ground program the cache already held, a miss
    grounds the window from scratch.  ``delta_repairs``, ``repair_size``
    and ``repair_rules_changed`` are retired and always read 0 (see their
    field comment).  ``evaluation_wall_seconds`` is the measured wall-clock
    of the partition-evaluation phase and ``worker_wall_seconds`` the in-worker
    wall-clock of each *evaluated* partition, populated by the parallel
    reasoner.  Under pipelined ingestion (``StreamSession(max_inflight>1)``,
    the default on pipelined backends) ``evaluation_wall_seconds`` -- and
    with it ``latency_seconds`` on wall-clock-measuring backends -- is the
    window's *dispatch-to-gather* span, which includes the time it sat in
    flight behind its predecessors; compare per-window latencies across
    configurations only at equal ``max_inflight`` (use ``max_inflight=1``
    or ``evaluate_window`` for queue-free numbers; ``worker_wall_seconds``
    is always pure in-worker time).  Note the alignment: ``worker_wall_seconds`` parallels
    ``ParallelResult.partition_results`` (empty partitions are filtered out
    before evaluation), whereas ``partition_sizes`` records the
    partitioner's full layout including empty partitions -- do not zip the
    two lists together.
    """

    window_size: int
    latency_seconds: float
    breakdown: LatencyBreakdown = field(default_factory=LatencyBreakdown)
    partition_sizes: List[int] = field(default_factory=list)
    answer_count: int = 0
    duplication_ratio: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Retired, always 0: windows are no longer repaired, only served as a
    #: hit or regrounded.  The fields stay only because the repository
    #: benchmark still reads two of them; the wire does not carry them.
    delta_repairs: int = 0
    repair_size: int = 0
    repair_rules_changed: int = 0
    #: Incremental-solving counters (zero without a ``solver_cache``):
    #: ``assumption_resolves`` counts partitions answered by repairing the
    #: track's persistent solver state and re-solving under assumptions,
    #: ``solver_full_solves`` those solved from scratch (first window of a
    #: track, or a disjunctive fallback).  ``encoding_repairs`` counts
    #: persistent-completion repairs, ``solver_clauses_retained`` /
    #: ``solver_clauses_dropped`` learned and encoding clauses kept across or
    #: removed by the repair, and ``solver_strata_reused`` well-founded
    #: strata served from cache instead of recomputed.
    assumption_resolves: int = 0
    solver_full_solves: int = 0
    encoding_repairs: int = 0
    solver_clauses_retained: int = 0
    solver_clauses_dropped: int = 0
    solver_strata_reused: int = 0
    evaluation_wall_seconds: Optional[float] = None
    worker_wall_seconds: List[float] = field(default_factory=list)

    @property
    def latency_milliseconds(self) -> float:
        """Latency in milliseconds, the unit of the paper's figures."""
        return self.latency_seconds * 1000.0

    @property
    def cache_hit_rate(self) -> float:
        """Grounding-cache hit rate over this window (0.0 when uncached)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "window_size": float(self.window_size),
            "latency_ms": self.latency_milliseconds,
            "transformation_ms": self.breakdown.transformation_seconds * 1000.0,
            "grounding_ms": self.breakdown.grounding_seconds * 1000.0,
            "solving_ms": self.breakdown.solving_seconds * 1000.0,
            "partitioning_ms": self.breakdown.partitioning_seconds * 1000.0,
            "combining_ms": self.breakdown.combining_seconds * 1000.0,
            "answer_count": float(self.answer_count),
            "duplication_ratio": self.duplication_ratio,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.cache_hit_rate,
            "delta_repairs": float(self.delta_repairs),
            "repair_size": float(self.repair_size),
            "repair_rules_changed": float(self.repair_rules_changed),
            "assumption_resolves": float(self.assumption_resolves),
            "solver_full_solves": float(self.solver_full_solves),
            "encoding_repairs": float(self.encoding_repairs),
            "solver_clauses_retained": float(self.solver_clauses_retained),
            "solver_clauses_dropped": float(self.solver_clauses_dropped),
            "solver_strata_reused": float(self.solver_strata_reused),
            "evaluation_wall_ms": (
                self.evaluation_wall_seconds * 1000.0 if self.evaluation_wall_seconds is not None else 0.0
            ),
        }
