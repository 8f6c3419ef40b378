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

import pickle

import pytest

from bench_e2e import streams, workloads
from bench_e2e.trace import TARGETS, Tracer
from bench_e2e.workloads import WORKLOADS, Deployment
from repro.asp.syntax.symbols import SymbolDelta
from repro.streamrule.metrics import ReasonerMetrics
from repro.streamrule.net import FactDelta, IdFactDelta, IdWorkItem, RemoteFailure
from repro.streamrule.reasoner import ReasonerResult
from repro.streamrule.worker import WorkerServer

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


class _InProcessWorker:
    """Stands in for a spawned daemon: the same server loop on a thread of this process."""

    def __init__(self):
        self.server = WorkerServer(port=0)
        self.server.start()
        self.endpoint = "%s:%d" % self.server.address

    def terminate(self):
        self.server.stop()


def test_tcp_hot_path_runs_through_the_wire_entry_points_and_counters(monkeypatch):
    """``wire.encode`` / ``wire.roundtrip`` are recorded once per shipped item.

    The TCP half of the guard above: ``tcp_fleet``'s own deployment, with
    its two daemons replaced by in-process servers.
    """
    monkeypatch.setattr(workloads, "spawn_local_workers", lambda count: [_InProcessWorker() for _ in range(count)])
    workload = WORKLOADS["tcp_fleet"]
    deployment = Deployment(workload)
    try:
        triples = streams.chunk(workload, 2017, streams.SATURATION, 0, workload.size + 2 * workload.slide)
        tracer = Tracer()
        with tracer.installed():
            deployment.session.push(triples)
            solutions = list(deployment.session.results(wait=True))
        assert [solution.window_index for solution in solutions] == [0, 1, 2]
        counters = deployment.counters()
        for key in ("items_full", "items_delta", "bytes_out", "bytes_symbols", "reroutes"):
            assert f"wire.{key}" in counters
        shipped = counters["wire.items_full"] + counters["wire.items_delta"]
        assert shipped >= 3 and counters["wire.bytes_out"] > 0 and counters["fallbacks"] == 0
        assert tracer.calls("wire.encode") == shipped  # DeltaShipper.encode_frames, once per item
        assert tracer.calls("wire.roundtrip") == shipped  # WorkerFleet.roundtrip, a blocking call ...
        assert tracer.worker_items == shipped  # ... returning a ReasonerResult with .metrics
        assert tracer.worker_reason_seconds > 0
    finally:
        deployment.close()


#: Every class that travels inside a pickle on the wire, with the module path
#: an already-deployed peer will look it up under.  Moving one silently breaks
#: a mixed-version fleet without a protocol bump.
PICKLED_ON_THE_WIRE = [
    (FactDelta(track=0, epoch=0, incremental=None, ops=()), "repro.streamrule.net"),
    (IdWorkItem(track=0, epoch=0, incremental=None, id_data=b""), "repro.streamrule.net"),
    (IdFactDelta(track=0, epoch=0, incremental=None, ops=()), "repro.streamrule.net"),
    (RemoteFailure(ValueError("boom")), "repro.streamrule.net"),
    (SymbolDelta(start=0, symbols=()), "repro.asp.syntax.symbols"),
    (ReasonerResult(answers=(), metrics=ReasonerMetrics(window_size=0, latency_seconds=0.0)), "repro.streamrule.reasoner"),
]


@pytest.mark.parametrize("value, module", PICKLED_ON_THE_WIRE, ids=lambda value: type(value).__name__)
def test_wire_classes_pickle_under_their_deployed_module_path(value, module):
    assert type(value).__module__ == module
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    assert module.encode() in payload and type(value).__name__.encode() in payload
    assert type(pickle.loads(payload)) is type(value)
