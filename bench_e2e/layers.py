"""Per-layer metrics of one traced saturation phase (layer = module).

Times come from the tracer's spans (self time, so a layer is never billed for
the layers it calls), counts from the same boundaries and from the public
``statistics`` surfaces read by :meth:`Deployment.counters`.  On ``tcp_fleet``
grounding and solving happen in the daemons; their time is what the workers
reported on ``ReasonerResult.metrics``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from bench_e2e.trace import Tracer

Metric = Tuple[float, str]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, window_metrics: list, counters: Dict[str, float], wall_seconds: float) -> Dict[str, Metric]:
    """``window_metrics`` holds the ``ReasonerMetrics`` of every traced window."""
    windows = len(window_metrics)
    self_ms = {layer: seconds * 1000.0 for layer, seconds in tracer.layer_self_seconds().items()}
    remote = tracer.worker_items > 0

    def per_window(milliseconds: float) -> Metric:
        return (milliseconds / windows, "ms")

    def per_item(name: str) -> float:
        calls = tracer.calls(name)
        return tracer.total_seconds(name) * 1000.0 / calls if calls else 0.0

    parts = [[size for size in metrics.partition_sizes if size] for metrics in window_metrics]
    evaluated = sum(len(metrics.worker_wall_seconds) for metrics in window_metrics)
    repairs = sum(metrics.delta_repairs for metrics in window_metrics)
    exact_hits = sum(metrics.cache_hits for metrics in window_metrics)
    roundtrip_ms = per_item("wire.roundtrip")
    worker_reason_ms = tracer.worker_reason_seconds * 1000.0 / tracer.worker_items if remote else 0.0
    frames = counters.get("wire.items_full", 0.0) + counters.get("wire.items_delta", 0.0)

    return {
        "window.ms_per_window": per_window(self_ms.get("window", 0.0)),
        "window.windows": (windows, "count"),
        "transform.ms_per_window": per_window(self_ms.get("transform", 0.0)),
        "transform.atoms_per_window": (counters["accepted_items"] / windows, "count"),
        "partition.ms_per_window": per_window(self_ms.get("partition", 0.0)),
        "partition.parts_per_window": (_mean([len(sizes) for sizes in parts]), "count"),
        "partition.duplication_ratio": (_mean([metrics.duplication_ratio for metrics in window_metrics]), "ratio"),
        "partition.skew": (_mean([max(sizes) * len(sizes) / sum(sizes) for sizes in parts if sizes]), "ratio"),
        "ground.ms_per_window": per_window(
            tracer.worker_ground_seconds * 1000.0 if remote else self_ms.get("ground", 0.0)
        ),
        "ground.repairs": (repairs, "count"),
        "ground.rebuilds": (evaluated - repairs - exact_hits, "count"),
        "ground.exact_hits": (exact_hits, "count"),
        "ground.repair_size_mean": (
            sum(metrics.repair_size for metrics in window_metrics) / repairs if repairs else 0.0,
            "count",
        ),
        "ground.rules_per_window": (tracer.ground_rules / windows, "count"),
        "solve.ms_per_window": per_window(
            tracer.worker_solve_seconds * 1000.0 if remote else self_ms.get("solve", 0.0)
        ),
        "solve.assumption_resolves": (sum(metrics.assumption_resolves for metrics in window_metrics), "count"),
        "solve.full_solves": (sum(metrics.solver_full_solves for metrics in window_metrics), "count"),
        "solve.models_per_window": (tracer.models / windows, "count"),
        "combine.ms_per_window": per_window(self_ms.get("combine", 0.0)),
        "combine.answers_per_window": (_mean([metrics.answer_count for metrics in window_metrics]), "count"),
        "reason.self_ms_per_window": per_window(self_ms.get("reason", 0.0)),
        "session.self_ms_per_window": per_window(self_ms.get("session", 0.0)),
        "session.inflight_high_water": (counters["inflight_high_water"], "count"),
        "session.backpressure_stalls": (counters["backpressure_stalls"], "count"),
        "session.fallbacks": (counters["fallbacks"], "count"),
        "backend.submit_ms_per_item": (
            self_ms.get("backend", 0.0) / max(1, tracer.calls("backend.submit")),
            "ms",
        ),
        "backend.queue_high_water": (counters["queue_high_water"], "count"),
        "wire.encode_ms_per_item": (per_item("wire.encode"), "ms"),
        "wire.roundtrip_ms_per_item": (roundtrip_ms, "ms"),
        "wire.overhead_ms_per_item": (roundtrip_ms - worker_reason_ms, "ms"),
        "wire.bytes_out_per_window": (counters.get("wire.bytes_out", 0.0) / windows, "B"),
        "wire.delta_frame_ratio": (counters.get("wire.items_delta", 0.0) / frames if frames else 0.0, "ratio"),
        "wire.symbol_bytes_per_window": (counters.get("wire.bytes_symbols", 0.0) / windows, "B"),
        "wire.reroutes": (counters.get("wire.reroutes", 0.0), "count"),
        "worker.reason_ms_per_item": (worker_reason_ms, "ms"),
        # The wire spans run on the dispatcher threads, beside the main thread's wall time.
        "trace.self_time_coverage": (
            sum(ms for layer, ms in self_ms.items() if layer != "wire") / (wall_seconds * 1000.0),
            "ratio",
        ),
    }
