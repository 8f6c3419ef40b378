"""The repository benchmark's grip on ``src/`` still holds.

``bench_e2e/`` may not change together with the code it measures, and it
reaches that code by name: ``bench_e2e/trace.py`` patches a list of
``(owner, attribute)`` entry points and ``Deployment.counters()`` reads a
set of public counters.  A refactor that renames one of them -- or keeps the
name but stops *calling* it on the hot path -- would leave the benchmark
running and its per-layer numbers silently empty.  This guard fails in
tier-1 instead.
"""

from __future__ import annotations

from bench_e2e import streams
from bench_e2e.trace import TARGETS, Tracer
from bench_e2e.workloads import WORKLOADS, Deployment

#: Span names an inline session must record for every window it evaluates.
INLINE_SPANS = {
    "window.feed",
    "transform.filter",
    "transform.to_atoms",
    "partition.partition",
    "backend.submit",
    "reason.reason_item",
    "ground.ground",
    "solve.solve",
    "combine.combine",
    "session.push",
    "session.results",
}


def test_every_traced_entry_point_resolves():
    for owner, attribute, name, _ in TARGETS:
        assert callable(getattr(owner, attribute, None)), f"{name}: {owner!r} has no callable {attribute!r}"


def test_inline_hot_path_runs_through_the_traced_entry_points_and_counters():
    workload = WORKLOADS["sliding_inline"]
    deployment = Deployment(workload)
    try:
        triples = streams.chunk(workload, 2017, streams.SATURATION, 0, workload.size + 2 * workload.slide)
        tracer = Tracer()
        with tracer.installed():
            deployment.session.push(triples)
            solutions = list(deployment.session.results(wait=True))
        assert [solution.window_index for solution in solutions] == [0, 1, 2]
        recorded = {span[0] for span in tracer.spans}
        assert INLINE_SPANS <= recorded, f"never called: {sorted(INLINE_SPANS - recorded)}"
        assert tracer.ground_rules > 0 and tracer.models > 0

        counters = deployment.counters()
        assert counters["accepted_items"] == len(triples)  # each pushed item counted once
        assert counters["inflight_high_water"] == 1
        for key in ("backpressure_stalls", "fallbacks", "queue_high_water"):
            assert key in counters
    finally:
        deployment.close()
