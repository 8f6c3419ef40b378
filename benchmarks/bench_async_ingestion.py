#!/usr/bin/env python3
"""Producer throughput: synchronous vs pipelined ingestion per backend.

The paper's premise is sustained input rates: the producer must keep feeding
the stream while the reasoners work.  Before pipelining, ``StreamSession.push``
blocked on every completed window -- the producer idled for exactly as long
as the slowest partition reasoned, wasting the concurrency the thread /
TCP backends provide.  With pipelined ingestion
(``max_inflight > 1``) push dispatches the window and returns; this
benchmark prices the difference on the paper's synthetic traffic workload:

* per backend (thread pool, TCP worker fleet), the
  same tumbling window stream is pushed item by item in ``PAIRS``
  alternating pairs of runs -- one with ``max_inflight=1`` (the
  pre-pipelining synchronous loop), one pipelined, the order flipped from
  pair to pair -- and both the *producer-side* throughput (items/s of the
  push loop alone) and the *end-to-end* throughput (push + finish + drain)
  are reported, along with the backpressure counters.  The speed-ups are
  the medians of the per-pair ratios: a quick push loop lasts only tens
  of milliseconds, so one pair is at the mercy of one scheduler hiccup;
* both runs of every pair must produce identical answer sets (asserted),
  so the speed-up is never bought with correctness.

Producer-side speed-up appears on any host (the push loop stops waiting out
round trips); end-to-end speed-up on multi-worker backends additionally
needs real cores, so the script prints the host's CPU count next to the
verdict.  The acceptance bar (see ISSUE/CI): pipelined push >= 1.3x producer
throughput over synchronous on a >= 2-worker backend.

One serving-layer section rides along (see ``docs/async-serving.md``):
**asyncio many-sessions** -- N ``AsyncStreamSession`` instances
multiplexed on one event loop over one shared backend, the serving shape.
Reported as windows/s per core and gated as ``async_sessions_throughput``.

Usage::

    PYTHONPATH=src python benchmarks/bench_async_ingestion.py [--quick]

Options::

    --quick          small windows / few repeats (CI smoke run)
    --window-size N  triples per window
    --windows N      windows in the stream
    --max-inflight N pipelined in-flight bound (default 8)
    --workers N      worker count per backend (default 2)
    --no-tcp         skip the TCP fleet section (no subprocesses spawned)
    --no-write       do not write benchmarks/results/ or BENCH_*.json
"""

from __future__ import annotations

import argparse
import asyncio
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.bench_json import write_bench_json  # noqa: E402
from repro.asp.grounding import GroundingCache  # noqa: E402
from repro.core.partitioner import HashPartitioner  # noqa: E402
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program  # noqa: E402
from repro.streaming.generator import SyntheticStreamConfig, generate_window  # noqa: E402
from repro.streaming.window import CountWindow  # noqa: E402
from repro.streamrule.aio import AsyncStreamSession  # noqa: E402
from repro.streamrule.backends import (  # noqa: E402
    ExecutionBackend,
    TcpBackend,
    ThreadPoolBackend,
)
from repro.streamrule.reasoner import Reasoner  # noqa: E402
from repro.streamrule.session import DEFAULT_MAX_INFLIGHT, StreamSession  # noqa: E402
from repro.streamrule.worker import spawn_local_workers  # noqa: E402

RESULTS_DIRECTORY = Path(__file__).parent / "results"
BENCH_SEED = 2017

#: The acceptance bar for the producer-side speed-up on multi-worker backends.
TARGET_PRODUCER_SPEEDUP = 1.3

#: Synchronous/pipelined run pairs per backend; the speed-ups are medians over them.
PAIRS = 5


def make_stream(window_count: int, window_size: int) -> List[list]:
    windows = []
    for index in range(window_count):
        config = SyntheticStreamConfig(
            window_size=window_size,
            input_predicates=INPUT_PREDICATES,
            scheme="traffic",
            seed=BENCH_SEED + index,
        )
        windows.append(generate_window(config))
    return windows


def run_ingestion(
    backend: ExecutionBackend,
    windows: Sequence[list],
    window_size: int,
    max_inflight: int,
    partitions: int,
) -> Dict[str, object]:
    """Push the stream item by item; time the push loop and the whole run."""
    reasoner = Reasoner(
        traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
    )
    stream = [triple for window in windows for triple in window]
    with StreamSession(
        reasoner,
        window=CountWindow(size=window_size, emit_partial=False),
        partitioner=HashPartitioner(partitions),
        backend=backend,
        max_inflight=max_inflight,
    ) as session:
        session.backend.start(reasoner)  # pool/fleet spin-up outside the timed region
        started = time.perf_counter()
        for triple in stream:
            session.push([triple])
        producer_seconds = time.perf_counter() - started
        session.finish()
        answers = [
            {frozenset(answer) for answer in solution.answers} for solution in session.results()
        ]
        total_seconds = time.perf_counter() - started
        ingestion = session.ingestion
    items = len(stream)
    return {
        "producer_seconds": producer_seconds,
        "total_seconds": total_seconds,
        "producer_throughput": items / producer_seconds if producer_seconds else float("inf"),
        "e2e_throughput": items / total_seconds if total_seconds else float("inf"),
        "answers": answers,
        "stalls": ingestion.backpressure_stalls,
        "high_water": ingestion.inflight_high_water,
        "dispatched_ahead": ingestion.dispatched_ahead,
    }


def backend_comparison(
    label: str,
    backend_factory: Callable[[], ExecutionBackend],
    windows: Sequence[list],
    window_size: int,
    max_inflight: int,
    partitions: int,
    metrics: Dict[str, float],
) -> List[str]:
    """One backend, ``PAIRS`` alternating pairs of runs: max_inflight=1 vs the pipelined bound."""
    pairs = []
    for index in range(PAIRS):
        bounds = (1, max_inflight) if index % 2 == 0 else (max_inflight, 1)
        first, second = (run_ingestion(backend_factory(), windows, window_size, bound, partitions) for bound in bounds)
        sync, piped = (first, second) if index % 2 == 0 else (second, first)
        if sync["answers"] != piped["answers"]:
            raise AssertionError(f"{label}: pipelined answers diverged from the synchronous run")
        pairs.append((sync, piped))

    def speedups(field: str) -> List[float]:
        return sorted(sync[field] / piped[field] if piped[field] else float("inf") for sync, piped in pairs)

    producer, e2e = speedups("producer_seconds"), speedups("total_seconds")
    producer_speedup, e2e_speedup = statistics.median(producer), statistics.median(e2e)
    metrics[f"producer_speedup_{label}"] = producer_speedup
    metrics[f"e2e_speedup_{label}"] = e2e_speedup
    verdict = "PASS" if producer_speedup >= TARGET_PRODUCER_SPEEDUP else "MISS"

    def row(mode: str, runs: Sequence[Dict[str, object]]) -> str:
        median = {field: statistics.median(run[field] for run in runs) for field in runs[0] if field != "answers"}
        return (
            f"{mode:<16}{median['producer_seconds']:>9.3f}{median['total_seconds']:>9.3f}"
            f"{median['producer_throughput']:>14.0f}{median['e2e_throughput']:>13.0f}"
            f"{median['stalls']:>8.0f}{median['high_water']:>10.0f}"
        )

    return [
        f"{label} (answers identical within each pair; medians of {PAIRS} alternating pairs)",
        f"{'mode':<16}{'push s':>9}{'total s':>9}{'push items/s':>14}{'e2e items/s':>13}"
        f"{'stalls':>8}{'inflight':>10}",
        row("sync (1)", [sync for sync, _ in pairs]),
        row(f"pipelined ({max_inflight})", [piped for _, piped in pairs]),
        f"producer speed-up: {producer_speedup:.2f}x, pairs {producer[0]:.2f}-{producer[-1]:.2f}x "
        f"(target >= {TARGET_PRODUCER_SPEEDUP}x: {verdict}); "
        f"end-to-end: {e2e_speedup:.2f}x, pairs {e2e[0]:.2f}-{e2e[-1]:.2f}x",
    ]


def async_many_sessions(
    session_count: int,
    windows_per_session: int,
    window_size: int,
    workers: int,
    metrics: Dict[str, float],
) -> List[str]:
    """N asyncio sessions on one loop over one shared thread backend."""
    reasoner = Reasoner(
        traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
    )
    backend = ThreadPoolBackend(max_workers=workers)
    stream_windows = make_stream(windows_per_session, window_size)

    async def drive(session: AsyncStreamSession) -> int:
        for window in stream_windows:
            await session.push(window)
        await session.finish()
        return len(await session.results_list())

    async def scenario() -> float:
        sessions = [
            AsyncStreamSession(
                reasoner,
                window=CountWindow(size=window_size, emit_partial=False),
                backend=backend,
                max_inflight=DEFAULT_MAX_INFLIGHT,
                owns_backend=False,
                track_base=1000 * index,
            )
            for index in range(session_count)
        ]
        started = time.perf_counter()
        emitted = await asyncio.gather(*(drive(session) for session in sessions))
        seconds = time.perf_counter() - started
        for session in sessions:
            await session.close(drain=False)
        if sum(emitted) != session_count * windows_per_session:
            raise AssertionError("a multiplexed session lost or duplicated a window")
        return seconds

    try:
        seconds = asyncio.run(scenario())
    finally:
        backend.close()
    total_windows = session_count * windows_per_session
    cores = os.cpu_count() or 1
    throughput = total_windows / seconds if seconds else float("inf")
    per_core = throughput / cores
    metrics["async_sessions_throughput"] = per_core
    return [
        f"asyncio many-sessions ({session_count} sessions x {windows_per_session} windows, "
        f"one loop, {workers} shared workers)",
        f"total: {total_windows} windows in {seconds:.3f}s = {throughput:.1f} windows/s "
        f"({per_core:.1f} windows/s/core on {cores} cores)",
    ]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="CI smoke run: small windows, few repeats")
    parser.add_argument("--window-size", type=positive_int, default=None, help="triples per window")
    parser.add_argument("--windows", type=positive_int, default=None, help="windows in the stream")
    parser.add_argument("--max-inflight", type=positive_int, default=8, help="pipelined in-flight bound")
    parser.add_argument("--workers", type=positive_int, default=2, help="worker count per backend")
    parser.add_argument("--no-tcp", action="store_true", help="skip the TCP worker-fleet section")
    parser.add_argument("--no-write", action="store_true", help="do not write results/ or BENCH_*.json")
    arguments = parser.parse_args(argv)

    window_size = arguments.window_size if arguments.window_size is not None else (150 if arguments.quick else 800)
    window_count = arguments.windows if arguments.windows is not None else (6 if arguments.quick else 10)
    workers = arguments.workers
    partitions = workers

    lines = [
        "bench_async_ingestion",
        f"host cores: {os.cpu_count()}  (end-to-end speed-up > 1 requires > 1 core;",
        "producer-side speed-up only needs the push loop to stop waiting)",
        f"stream: {window_count} x {window_size} triples, tumbling windows, traffic scheme, "
        f"seed {BENCH_SEED}; k = {partitions} partitions, {workers} workers",
        "",
    ]
    windows = make_stream(window_count, window_size)
    metrics: Dict[str, float] = {}

    lines += backend_comparison(
        "threads",
        lambda: ThreadPoolBackend(max_workers=workers),
        windows, window_size, arguments.max_inflight, partitions, metrics,
    )

    if not arguments.no_tcp:
        fleet = spawn_local_workers(workers)
        try:
            endpoints = [worker.endpoint for worker in fleet]
            lines.append("")
            lines += backend_comparison(
                "tcp",
                lambda: TcpBackend(endpoints),
                windows, window_size, arguments.max_inflight, partitions, metrics,
            )
        finally:
            for worker in fleet:
                worker.terminate()

    session_count = 12 if arguments.quick else 48
    windows_per_session = 4 if arguments.quick else 8
    lines.append("")
    lines += async_many_sessions(
        session_count, windows_per_session, window_size, workers, metrics
    )

    report = "\n".join(lines)
    print(report)
    if not arguments.no_write:
        RESULTS_DIRECTORY.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIRECTORY / "async_ingestion.txt"
        path.write_text(report + "\n")
        bench_path = write_bench_json(
            "async_ingestion",
            metrics,
            meta={
                "window_size": window_size,
                "windows": window_count,
                "workers": workers,
                "max_inflight": arguments.max_inflight,
                "quick": arguments.quick,
            },
        )
        print(f"\nwritten to {path} and {bench_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
