"""The measured run and the host-side probes around it.

One run feeds one session one continuous stream: ``WARM_UP_ROUNDS`` untimed
saturation segments, which let the caches and the symbol table fill, then
``ROUNDS`` rounds, each a *saturation segment* followed by a *paced slice*.

A saturation segment is a closed loop: push one slide-batch, drain whatever is
ready, repeat, and wait for what is still in flight.  A paced slice is an open
loop on a fixed schedule: its batch ``k`` is due at ``t0 + (k + 1) * slide /
rate`` whatever the system does, and a window's lag runs from the due time of
the batch that completed it to the moment ``results()`` yields it (queue wait
included, window length excluded).

The two alternate, instead of running as two long phases, because this host
slows down by up to 1.7x for 5 to 40 seconds at a time: a slow spell then
covers a minority of the segments and of the slices of most runs, where it
would have covered the whole of a 7-second phase.  A spell that covers most
of a run still moves a median over its rounds, and the host only ever adds
time, so the run reports the
quartile of its rounds on the good side: the upper quartile of the segment
throughputs and the lower quartile of the slice medians.  A quarter of the
rounds on a calm host is enough for the calm value.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List

from bench_e2e import streams
from bench_e2e.oracle import RunRecord
from bench_e2e.workloads import LAG_LIMIT_MS, ROUNDS, WARM_UP_ROUNDS, Deployment

#: The paced generator makes its input this many slide-batches at a time, in
#: idle gaps of the schedule.
PACED_CHUNK_SLIDES = 2
#: On a pipelined backend the paced loop polls for finished windows this often.
POLL_SECONDS = 0.001


def calibration_ms() -> float:
    """A fixed pure-Python dict/int kernel.

    Never used to rescale a metric: it only tells a noisy host from a noisy
    metric when two runs disagree.  It allocates nothing the collector tracks,
    so its time does not depend on how large the program's heap has grown.
    """
    best = float("inf")
    for _ in range(3):  # the fastest of three: one preemption must not read as a slow host
        started = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[i * 7919 % 100_003] = i
        total = 0
        for key, value in table.items():
            total += key ^ value
        best = min(best, (time.perf_counter() - started) * 1000.0)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcWatch:
    """Counts gen-2 collections and total collector pause via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.gen2_collections = 0
        self.pause_ms_total = 0.0
        self._started = 0.0

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_ms_total += (time.perf_counter() - self._started) * 1000.0
            if info["generation"] == 2:
                self.gen2_collections += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)


@dataclass
class RunResult:
    record: RunRecord = field(default_factory=RunRecord)
    segment_throughputs: List[float] = field(default_factory=list)  # triples/s, one per measured round
    warm_up_windows: int = 0  # how many of ``record.metrics`` the warm-up segments yielded
    warm_up_counters: Dict[str, float] = field(default_factory=dict)  # ``Deployment.counters()`` after them
    slice_lags_ms: List[List[float]] = field(default_factory=list)  # one list per round
    segment_cpu_seconds: float = 0.0  # this process, over the saturation segments only (the paced loop spins)
    segment_worker_cpu_seconds: float = 0.0  # the daemons, over the same segments
    generator_late_ms: List[float] = field(default_factory=list)  # lateness of batches the loop waited for
    backlog: int = 0  # windows still in flight when a slice's last lag limit passed
    live_objects_mid: int = 0  # only counted when asked for (a full gc.get_objects() scan)
    live_objects_end: int = 0

    @property
    def throughput(self) -> float:
        """Upper quartile of the segment throughputs (see the module's docstring)."""
        return statistics.quantiles(self.segment_throughputs, n=4)[2]

    def throughput_over(self, segments: int) -> float:
        """Aggregate throughput of the first ``segments`` segments."""
        return segments / sum(1.0 / value for value in self.segment_throughputs[:segments])

    @property
    def lag_ms_p50(self) -> float:
        """Lower quartile over the slices of each slice's median lag."""
        return statistics.quantiles([statistics.median(lags) for lags in self.slice_lags_ms if lags], n=4)[0]

    @property
    def lag_ms_p95(self) -> float:
        return percentile([lag for lags in self.slice_lags_ms for lag in lags], 0.95)


def percentile(values: List[float], quantile: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(quantile * len(ordered)))]


def run_rounds(
    deployment: Deployment,
    seed: int,
    scale: float,
    rounds: int = ROUNDS,
    paced_scale: float = 1.0,
    around_segment: Callable[[], ContextManager] = nullcontext,
    count_live_objects: bool = False,
) -> RunResult:
    """Feed the warm-up segments and ``rounds`` rounds of the workload's stream;
    ``around_segment`` wraps each measured saturation segment (the traced run
    installs its wrappers there)."""
    workload, session = deployment.workload, deployment.session
    slide = workload.slide
    segment_len = workload.segment_slides(scale) * slide
    # Whole chunks per slice, so that nothing generated ahead is left over at its end.
    slice_batches = 0
    if paced_scale:
        slice_batches = max(1, workload.paced_batches(scale * paced_scale) // ROUNDS // PACED_CHUNK_SLIDES) * PACED_CHUNK_SLIDES
    chunk_len = PACED_CHUNK_SLIDES * slide
    period = slide / workload.paced_rate
    pipelined = session.backend.pipelined
    result = RunResult()
    record = result.record
    batches_pushed = 0  # window w is completed by batch number w + size / slide - 1
    completing_offset = workload.size // slide - 1
    due: Dict[int, float] = {}  # due time of every paced batch, by batch number
    pending: List[list] = []  # generated paced batches not yet pushed
    paced_chunks = 0
    generation_seconds = 0.0  # how long the last paced chunk took to make

    def generate() -> None:
        nonlocal paced_chunks, generation_seconds
        started = time.perf_counter()
        record.layout.append((streams.PACED, paced_chunks, chunk_len))
        triples = streams.chunk(workload, seed, *record.layout[-1])
        pending.extend(triples[offset : offset + slide] for offset in range(0, chunk_len, slide))
        paced_chunks += 1
        generation_seconds = time.perf_counter() - started

    def drain(wait: bool = False) -> None:
        for solution in session.results(wait=wait):
            due_time = due.get(solution.window_index + completing_offset)
            if due_time is None:
                record.observe(solution)
            else:
                lag_ms = (time.perf_counter() - due_time) * 1000.0
                record.observe(solution, lag_ms)
                result.slice_lags_ms[-1].append(lag_ms)

    for round_index in range(-WARM_UP_ROUNDS, rounds):
        measured = round_index >= 0
        if round_index == 0:
            result.warm_up_windows = len(record.metrics)
            result.warm_up_counters = deployment.counters()
        # -- saturation segment: closed loop --------------------------------
        record.layout.append((streams.SATURATION, round_index + WARM_UP_ROUNDS, segment_len))
        triples = streams.chunk(workload, seed, *record.layout[-1])
        cpu_before, worker_cpu_before = time.process_time(), deployment.worker_cpu_seconds()
        with around_segment() if measured else nullcontext():
            started = time.perf_counter()
            for offset in range(0, segment_len, slide):
                session.push(triples[offset : offset + slide])
                drain()
            drain(wait=True)
            elapsed = time.perf_counter() - started
        if measured:
            result.segment_throughputs.append(segment_len / elapsed)
            result.segment_cpu_seconds += time.process_time() - cpu_before
            result.segment_worker_cpu_seconds += deployment.worker_cpu_seconds() - worker_cpu_before
        batches_pushed += segment_len // slide
        del triples

        # -- paced slice: open loop ------------------------------------------
        if slice_batches and measured:
            result.slice_lags_ms.append([])
            generate()
            t0 = time.perf_counter()
            for batch in range(slice_batches):
                due_time = t0 + (batch + 1) * period
                waited = False
                while True:
                    drain()
                    remaining = due_time - time.perf_counter()
                    if remaining <= 0:
                        break
                    waited = True
                    if len(pending) < min(2, slice_batches - batch) and remaining > 2 * generation_seconds:
                        generate()
                    elif pipelined:
                        time.sleep(min(remaining, POLL_SECONDS))  # the worker daemons need the cores
                    # Otherwise busy-wait: the backend evaluates in this thread, so the core
                    # is free anyway, and on this host a core that went idle runs slowly for
                    # a while after it wakes, which made lag follow the host, not the program.
                if not pending:
                    generate()
                if waited:
                    result.generator_late_ms.append((time.perf_counter() - due_time) * 1000.0)
                due[batches_pushed] = due_time
                batches_pushed += 1
                session.push(pending.pop(0))
            deadline = due_time + LAG_LIMIT_MS / 1000.0
            while session.inflight_count and time.perf_counter() < deadline:
                drain()
                time.sleep(POLL_SECONDS)
            result.backlog += session.inflight_count
            drain(wait=True)

        if count_live_objects and round_index == rounds // 2 - 1:
            result.live_objects_mid = len(gc.get_objects())
    session.finish()
    drain()
    if count_live_objects:
        result.live_objects_end = len(gc.get_objects())
    return result
