#!/usr/bin/env python3
"""Multi-tenant query server vs N independent sessions.

Six standing queries -- two traffic desks sharing the paper's program ``P``,
a fraud desk plus its extended (structuring) variant, and an IoT monitor
plus its extended (maintenance) variant -- run once on a single
:class:`QueryServer` over one shared thread-pool backend, and once as six
isolated :class:`StreamSession` instances.  Each pair agrees on its window
policy and input slice, so on the server each pair shares a lane: one
evaluation per window serves both tenants.

Reported:

* ``evaluations_ratio`` -- isolated window evaluations / server lane
  evaluations (paired lanes make this ~2.0 by construction),
* ``grounding_ops_ratio`` -- isolated groundings / the server's groundings.
  Every evaluated work item is grounded once, from scratch, so a grounding
  is one work item reaching the backend: the server's are counted once per
  lane window (however many tenants it serves), the isolated sessions' are
  summed over the six sessions,
* ``answers_identical`` -- 1.0 iff every tenant's projected per-window
  answer sets match its isolated session's exactly, in order,
* per-tenant p50/p95 window latency on the server (informational -- absolute
  ms do not transfer between machines and are not baselined).

Usage::

    PYTHONPATH=src python benchmarks/bench_query_server.py [--quick]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_json import write_bench_json  # noqa: E402
from repro.programs import fraud as fraud_module  # noqa: E402
from repro.programs import iot as iot_module  # noqa: E402
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program  # noqa: E402
from repro.streaming.generator import SyntheticStreamConfig, generate_window  # noqa: E402
from repro.streaming.triples import Triple  # noqa: E402
from repro.streaming.window import CountWindow  # noqa: E402
from repro.streamrule.backends import ThreadPoolBackend  # noqa: E402
from repro.streamrule.server import QueryServer, StandingQuery  # noqa: E402
from repro.streamrule.session import StreamSession  # noqa: E402
from repro.streamrule.work import WorkItem  # noqa: E402

RESULTS_DIRECTORY = Path(__file__).parent / "results"
BENCH_SEED = 2017


def tenant_specs(window_size: int) -> List[StandingQuery]:
    """Six standing queries: three scenario pairs, each pair sharing a lane."""
    sliding = CountWindow(size=window_size, slide=max(1, window_size // 4))
    fraud_window = CountWindow(size=window_size, slide=max(1, window_size // 2))
    tumbling = CountWindow(size=window_size, slide=None)
    return [
        StandingQuery(
            tenant="city", name="jams", program=traffic_program(), window=sliding,
            input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES,
        ),
        StandingQuery(
            tenant="highways", name="jams", program=traffic_program(), window=sliding,
            input_predicates=INPUT_PREDICATES, output_predicates=EVENT_PREDICATES,
        ),
        StandingQuery(
            tenant="fraud_desk", name="alerts", program=fraud_module.fraud_program(),
            window=fraud_window, input_predicates=fraud_module.INPUT_PREDICATES,
            output_predicates=fraud_module.ALERT_PREDICATES,
        ),
        StandingQuery(
            tenant="aml_desk", name="alerts", program=fraud_module.fraud_program_extended(),
            window=fraud_window, input_predicates=fraud_module.INPUT_PREDICATES,
            output_predicates=fraud_module.EXTENDED_ALERT_PREDICATES,
        ),
        StandingQuery(
            tenant="plant", name="anomalies", program=iot_module.iot_program(),
            window=tumbling, input_predicates=iot_module.INPUT_PREDICATES,
            output_predicates=iot_module.ANOMALY_PREDICATES,
        ),
        StandingQuery(
            tenant="facilities", name="anomalies", program=iot_module.iot_program_extended(),
            window=tumbling, input_predicates=iot_module.INPUT_PREDICATES,
            output_predicates=iot_module.EXTENDED_ANOMALY_PREDICATES,
        ),
    ]


def make_combined_stream(length_per_scenario: int) -> List[Triple]:
    """Interleave one stream per scenario; lane filters route the slices."""
    streams = [
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=INPUT_PREDICATES,
            scheme="traffic", seed=BENCH_SEED,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=fraud_module.INPUT_PREDICATES,
            scheme="fraud", seed=BENCH_SEED + 1,
        )),
        generate_window(SyntheticStreamConfig(
            window_size=length_per_scenario, input_predicates=iot_module.INPUT_PREDICATES,
            scheme="iot", seed=BENCH_SEED + 2,
        )),
    ]
    combined: List[Triple] = []
    for index in range(length_per_scenario):
        for stream in streams:
            combined.append(stream[index])
    return combined


class CountingThreadPool(ThreadPoolBackend):
    """A thread pool that counts the work items submitted to it.

    Each item is grounded once, from scratch, by the worker that evaluates
    it, so :attr:`groundings` is the grounding work the backend did.
    """

    def __init__(self, max_workers: int):
        super().__init__(max_workers=max_workers)
        self.groundings = 0

    def _submit(self, item: WorkItem):
        self.groundings += 1
        return super()._submit(item)


def project(answers: Sequence[frozenset], outputs: frozenset) -> Tuple[frozenset, ...]:
    """The server's projection: restrict and dedupe preserving order."""
    projected: Dict[frozenset, None] = {}
    for answer in answers:
        projected.setdefault(frozenset(atom for atom in answer if atom.predicate in outputs))
    return tuple(projected)


def run_server(
    queries: Sequence[StandingQuery], stream: Sequence[Triple], max_workers: int
) -> Dict[str, object]:
    backend = CountingThreadPool(max_workers)
    server = QueryServer(backend=backend)
    subscriptions = {query.key: server.register(query) for query in queries}
    started = time.perf_counter()
    server.push(stream)
    server.finish()
    elapsed = time.perf_counter() - started
    answers = {
        key: [result.answers for result in subscription.drain()]
        for key, subscription in subscriptions.items()
    }
    evaluations = sum(row.dispatched for row in server.scheduler.snapshot())
    summary = {
        "elapsed_s": elapsed,
        "evaluations": float(evaluations),
        "grounding_ops": float(backend.groundings),
        "sharing": server.sharing_summary(),
        "answers": answers,
        "latency": {
            tenant: (stats.p50_latency_seconds * 1000.0, stats.p95_latency_seconds * 1000.0)
            for tenant, stats in server.tenant_stats.items()
        },
    }
    server.close()
    return summary


def run_isolated(
    queries: Sequence[StandingQuery], stream: Sequence[Triple], max_workers: int
) -> Dict[str, object]:
    answers: Dict[str, List[Tuple[frozenset, ...]]] = {}
    ops = 0.0
    evaluations = 0.0
    started = time.perf_counter()
    for query in queries:
        inputs = query.effective_inputs()
        outputs = query.effective_outputs()
        # A lane windows the already-filtered slice; match that exactly.
        slice_ = [item for item in stream if inputs is None or item.predicate in inputs]
        backend = CountingThreadPool(max_workers)
        session = StreamSession(
            query.program,
            window=query.window,
            backend=backend,
            input_predicates=query.input_predicates,
        )
        collected: List[Tuple[frozenset, ...]] = []
        session.push(slice_)
        session.finish()
        for solution in session.results(wait=False):
            collected.append(project(solution.answers, outputs))
            evaluations += 1.0
        session.close()
        ops += backend.groundings
        answers[query.key] = collected
    return {
        "elapsed_s": time.perf_counter() - started,
        "evaluations": evaluations,
        "grounding_ops": ops,
        "answers": answers,
    }


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="CI smoke run: short streams")
    parser.add_argument("--window-size", type=positive_int, default=None, help="triples per lane window")
    parser.add_argument("--stream-length", type=positive_int, default=None, help="triples per scenario stream")
    parser.add_argument("--max-workers", type=positive_int, default=2, help="backend worker threads")
    parser.add_argument("--no-write", action="store_true", help="do not write benchmarks/results/")
    arguments = parser.parse_args(argv)

    window_size = arguments.window_size if arguments.window_size is not None else (120 if arguments.quick else 600)
    stream_length = (
        arguments.stream_length
        if arguments.stream_length is not None
        else (window_size * 4 if arguments.quick else window_size * 8)
    )

    queries = tenant_specs(window_size)
    stream = make_combined_stream(stream_length)

    server = run_server(queries, stream, arguments.max_workers)
    isolated = run_isolated(queries, stream, arguments.max_workers)

    identical = all(
        server["answers"][query.key] == isolated["answers"][query.key] for query in queries
    )
    evaluations_ratio = (
        isolated["evaluations"] / server["evaluations"] if server["evaluations"] else float("inf")
    )
    grounding_ops_ratio = (
        isolated["grounding_ops"] / server["grounding_ops"] if server["grounding_ops"] else float("inf")
    )

    metrics: Dict[str, float] = {
        "evaluations_ratio": evaluations_ratio,
        "grounding_ops_ratio": grounding_ops_ratio,
        "answers_identical": 1.0 if identical else 0.0,
        "shared_rules": server["sharing"]["shared_rules"],
        "lanes": server["sharing"]["lanes"],
    }
    lines = [
        "bench_query_server",
        f"6 tenants (3 scenario pairs), window size {window_size}, {stream_length} triples/scenario, "
        f"{arguments.max_workers} workers, seed {BENCH_SEED}",
        "",
        f"{'':<22}{'server':>12}{'isolated':>12}{'ratio':>10}",
        f"{'evaluations':<22}{server['evaluations']:>12.0f}{isolated['evaluations']:>12.0f}"
        f"{evaluations_ratio:>10.2f}",
        f"{'grounding ops':<22}{server['grounding_ops']:>12.0f}{isolated['grounding_ops']:>12.0f}"
        f"{grounding_ops_ratio:>10.2f}",
        f"{'elapsed s':<22}{server['elapsed_s']:>12.2f}{isolated['elapsed_s']:>12.2f}"
        f"{isolated['elapsed_s'] / server['elapsed_s'] if server['elapsed_s'] else float('inf'):>10.2f}",
        "",
        f"sharing: {server['sharing']}",
        f"answers identical across all 6 tenants: {'yes' if identical else 'NO -- MISMATCH'}",
        "",
        f"{'tenant':<14}{'p50 ms':>10}{'p95 ms':>10}",
    ]
    for tenant, (p50, p95) in sorted(server["latency"].items()):
        lines.append(f"{tenant:<14}{p50:>10.2f}{p95:>10.2f}")
        metrics[f"p50_ms_{tenant}"] = p50
        metrics[f"p95_ms_{tenant}"] = p95
    overall = [p50 for p50, _ in server["latency"].values()]
    if overall:
        metrics["p50_ms_median"] = statistics.median(overall)

    report = "\n".join(lines)
    print(report)
    if not arguments.no_write:
        RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIRECTORY / "query_server.txt"
        path.write_text(report + "\n")
        bench_path = write_bench_json(
            "query_server",
            metrics,
            meta={
                "window_size": window_size,
                "stream_length": stream_length,
                "max_workers": arguments.max_workers,
                "quick": arguments.quick,
            },
        )
        print(f"\nwritten to {path} and {bench_path}")
    return 1 if not identical else 0


if __name__ == "__main__":
    raise SystemExit(main())
