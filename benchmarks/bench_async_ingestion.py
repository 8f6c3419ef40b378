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
  same tumbling window stream is pushed item by item twice -- once with
  ``max_inflight=1`` (the pre-pipelining synchronous loop) and once
  pipelined -- and both the *producer-side* throughput (items/s of the push
  loop alone) and the *end-to-end* throughput (push + finish + drain) are
  reported, along with the backpressure counters;
* both runs must produce identical answer sets (asserted), so the speed-up
  is never bought with correctness.

Producer-side speed-up appears on any host (the push loop stops waiting out
round trips); end-to-end speed-up on multi-worker backends additionally
needs real cores, so the script prints the host's CPU count next to the
verdict.  The acceptance bar (see ISSUE/CI): pipelined push >= 1.3x producer
throughput over synchronous on a >= 2-worker backend.

Two serving-layer sections ride along (see ``docs/async-serving.md``):

* **adaptive vs fixed in-flight** -- the same stream through a deliberately
  overloaded single-worker backend, once with ``max_inflight=4`` and once
  with ``max_inflight="adaptive"``.  A fixed bound queues every window
  behind up to 3 predecessors, so dispatch-to-gather latency is ~4x one
  evaluation; the AIMD controller backs the bound off to the floor and the
  p99 collapses toward ~1x while throughput stays worker-bound.  Gated as
  ``adaptive_vs_fixed_p99`` (fixed p99 / adaptive p99, higher is better)
  and ``adaptive_vs_fixed_throughput`` (must stay ~1.0).
* **asyncio many-sessions** -- N ``AsyncStreamSession`` instances
  multiplexed on one event loop over one shared backend, the serving
  shape.  Reported as windows/s per core and gated as
  ``async_sessions_throughput``.

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
import math
import os
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
from repro.streamrule.session import StreamSession  # noqa: E402
from repro.streamrule.worker import spawn_local_workers  # noqa: E402

RESULTS_DIRECTORY = Path(__file__).parent / "results"
BENCH_SEED = 2017

#: The acceptance bar for the producer-side speed-up on multi-worker backends.
TARGET_PRODUCER_SPEEDUP = 1.3


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
    """One backend, two runs: max_inflight=1 vs the pipelined bound."""
    sync = run_ingestion(backend_factory(), windows, window_size, 1, partitions)
    piped = run_ingestion(backend_factory(), windows, window_size, max_inflight, partitions)
    if sync["answers"] != piped["answers"]:
        raise AssertionError(f"{label}: pipelined answers diverged from the synchronous run")
    producer_speedup = sync["producer_seconds"] / piped["producer_seconds"] if piped["producer_seconds"] else float("inf")
    e2e_speedup = sync["total_seconds"] / piped["total_seconds"] if piped["total_seconds"] else float("inf")
    metrics[f"producer_speedup_{label}"] = producer_speedup
    metrics[f"e2e_speedup_{label}"] = e2e_speedup
    verdict = "PASS" if producer_speedup >= TARGET_PRODUCER_SPEEDUP else "MISS"
    return [
        f"{label} (answers identical across both runs)",
        f"{'mode':<16}{'push s':>9}{'total s':>9}{'push items/s':>14}{'e2e items/s':>13}"
        f"{'stalls':>8}{'inflight':>10}",
        f"{'sync (1)':<16}{sync['producer_seconds']:>9.3f}{sync['total_seconds']:>9.3f}"
        f"{sync['producer_throughput']:>14.0f}{sync['e2e_throughput']:>13.0f}"
        f"{sync['stalls']:>8}{sync['high_water']:>10}",
        f"{f'pipelined ({max_inflight})':<16}{piped['producer_seconds']:>9.3f}{piped['total_seconds']:>9.3f}"
        f"{piped['producer_throughput']:>14.0f}{piped['e2e_throughput']:>13.0f}"
        f"{piped['stalls']:>8}{piped['high_water']:>10}",
        f"producer speed-up: {producer_speedup:.2f}x (target >= {TARGET_PRODUCER_SPEEDUP}x: {verdict}); "
        f"end-to-end: {e2e_speedup:.2f}x",
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q
    low, high = math.floor(position), math.ceil(position)
    if low == high:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class _LatencyRecordingSession(StreamSession):
    """A session that records each window's dispatch-to-gather latency."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window_latencies: List[float] = []

    def _gather_solution(self, pending):
        solution = super()._gather_solution(pending)
        # Recorded after the gather completes: dispatch-to-solution time,
        # including any blocking wait on the window's futures.
        self.window_latencies.append(time.perf_counter() - pending.dispatched_at)
        return solution


class _OverloadedBackend(ThreadPoolBackend):
    """A 1-worker backend padded to a fixed per-item service time.

    The pad makes the overload decisive and machine-independent: the
    producer generates windows faster than the worker can serve them on
    any host, so the gated p99 ratio measures the *scheduling* difference
    between a fixed bound and the AIMD controller, not solver speed.
    """

    name = "overloaded-threads"

    def __init__(self, delay: float, **kwargs):
        super().__init__(**kwargs)
        self.delay = delay

    def _submit(self, item):
        reasoner = self._require_started()
        assert self._pool is not None

        def _evaluate():
            time.sleep(self.delay)
            return reasoner.reason_item(item)

        return self._pool.submit(_evaluate)


def adaptive_vs_fixed(
    window_count: int,
    window_size: int,
    service_delay: float,
    metrics: Dict[str, float],
) -> List[str]:
    """Fixed ``max_inflight=4`` vs AIMD on an overloaded 1-worker backend.

    The stream is long enough for the pipe to reach steady state: with a
    fixed bound every window then waits out ~``bound`` service times before
    its gather, which is exactly the latency the AIMD controller trades
    away by backing off to the floor.
    """
    windows = make_stream(window_count, window_size)
    stream = [triple for window in windows for triple in window]

    def run(max_inflight):
        reasoner = Reasoner(
            traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
        )
        with _LatencyRecordingSession(
            reasoner,
            window=CountWindow(size=window_size, emit_partial=False),
            backend=_OverloadedBackend(service_delay, max_workers=1),
            max_inflight=max_inflight,
        ) as session:
            session.backend.start(reasoner)
            started = time.perf_counter()
            for triple in stream:
                session.push([triple])
            session.finish()
            answers = [
                {frozenset(answer) for answer in solution.answers} for solution in session.results()
            ]
            seconds = time.perf_counter() - started
            latencies = list(session.window_latencies)
            ingestion = session.ingestion
        return answers, latencies, seconds, ingestion

    fixed_answers, fixed_latencies, fixed_seconds, _ = run(4)
    adaptive_answers, adaptive_latencies, adaptive_seconds, adaptive_ingestion = run("adaptive")
    if fixed_answers != adaptive_answers:
        raise AssertionError("adaptive answers diverged from the fixed-bound run")

    # Steady-state percentiles: the first windows are warmup in both runs
    # (pipe filling on the fixed bound; AIMD converging on the adaptive
    # one) and would otherwise dominate the p99 of a short stream.
    warmup = min(8, len(fixed_latencies) // 3)
    fixed_steady = fixed_latencies[warmup:]
    adaptive_steady = adaptive_latencies[warmup:]
    fixed_p50, fixed_p99 = percentile(fixed_steady, 0.5), percentile(fixed_steady, 0.99)
    adaptive_p50 = percentile(adaptive_steady, 0.5)
    adaptive_p99 = percentile(adaptive_steady, 0.99)
    p99_ratio = fixed_p99 / adaptive_p99 if adaptive_p99 else float("inf")
    throughput_ratio = fixed_seconds / adaptive_seconds if adaptive_seconds else float("inf")
    metrics["adaptive_vs_fixed_p99"] = p99_ratio
    metrics["adaptive_vs_fixed_throughput"] = throughput_ratio
    return [
        "adaptive vs fixed in-flight (1 worker, overloaded; answers identical)",
        f"{'mode':<16}{'p50 ms':>9}{'p99 ms':>9}{'total s':>9}{'backoffs':>10}{'target':>8}",
        f"{'fixed (4)':<16}{fixed_p50 * 1e3:>9.1f}{fixed_p99 * 1e3:>9.1f}{fixed_seconds:>9.3f}"
        f"{'-':>10}{'-':>8}",
        f"{'adaptive':<16}{adaptive_p50 * 1e3:>9.1f}{adaptive_p99 * 1e3:>9.1f}"
        f"{adaptive_seconds:>9.3f}{adaptive_ingestion.aimd_backoffs:>10}"
        f"{adaptive_ingestion.inflight_target:>8}",
        f"p99 latency: adaptive {p99_ratio:.2f}x better; "
        f"throughput ratio (fixed/adaptive seconds): {throughput_ratio:.2f}",
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
                max_inflight="adaptive",
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

    overload_windows = 24 if arguments.quick else 48
    lines.append("")
    lines += adaptive_vs_fixed(overload_windows, window_size, 0.01, metrics)

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
