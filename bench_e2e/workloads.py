"""The four workloads: their fixed constants and how each one is deployed.

Every constant below is part of the benchmark's definition (README.md says
how each was sized, and ``BENCHMARK.json`` why each workload exists); nothing is
derived from the host at run time.  The
counts and durations are the full-length values for ``run_seconds`` of
``BENCHMARK.json``; ``--seconds`` scales both phases by one factor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.program import Program
from repro.core import DependencyPartitioner, build_input_dependency_graph, decompose
from repro.programs import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program, traffic_program_prime
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.window import CountWindow
from repro.streamrule import StreamSession, TcpBackend, spawn_local_workers
from repro.streamrule.backends import InlineBackend
from repro.streamrule.worker import LocalWorkerProcess

from bench_e2e import streams
from bench_e2e.programs import SEARCH_OUTPUT_PREDICATES, search_program

#: A run is this many rounds of one saturation segment and one paced slice,
ROUNDS = 8
#: after this many saturation segments that are fed and verified but not timed.
WARM_UP_ROUNDS = 2
#: Every n-th window of a phase is compared with the reference reasoner R.
VERIFY_EVERY = 20
#: A paced window yielded later than this after its due time counts as failed.
LAG_LIMIT_MS = 2000.0


@dataclass(frozen=True)
class Workload:
    name: str
    program: Callable[[], Program]
    output_predicates: Tuple[str, ...]
    size: int
    slide: int
    partitioned: bool  # DependencyPartitioner(plan) vs. the single partition (R)
    caches: bool  # GroundingCache() + SolverCache(), i.e. the incremental path
    tcp_workers: int  # 0: InlineBackend; n: TcpBackend over n local daemons
    saturation_triples: int  # over the measured rounds
    paced_rate: int  # triples/s
    paced_seconds: float  # over all rounds

    @property
    def location_count(self) -> int:
        return self.size // 10

    @property
    def car_count(self) -> int:
        return self.size // 8

    def segment_slides(self, scale: float) -> int:
        """Slide-batches per saturation segment at ``scale``."""
        return max(1, round(self.saturation_triples / ROUNDS / self.slide * scale))

    def paced_batches(self, scale: float) -> int:
        return int(self.paced_seconds * scale * self.paced_rate) // self.slide

    def window_count(self, triples: int) -> int:
        """Windows a stream of ``triples`` items yields (``triples`` is a whole number of slides)."""
        return (triples - self.size) // self.slide + 1


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="sliding_inline",
            program=traffic_program,
            output_predicates=EVENT_PREDICATES,
            size=1000,
            slide=125,
            partitioned=True,
            caches=True,
            tcp_workers=0,
            saturation_triples=50_000,
            paced_rate=1800,
            paced_seconds=17.0,
        ),
        Workload(
            name="tumbling_inline",
            program=traffic_program_prime,
            output_predicates=EVENT_PREDICATES,
            size=500,
            slide=500,
            partitioned=True,
            caches=False,
            tcp_workers=0,
            saturation_triples=240_000,
            paced_rate=12_000,
            paced_seconds=17.0,
        ),
        Workload(
            name="search_inline",
            program=search_program,
            output_predicates=SEARCH_OUTPUT_PREDICATES,
            size=400,
            slide=100,
            partitioned=False,
            caches=True,
            tcp_workers=0,
            saturation_triples=17_600,
            paced_rate=1000,
            paced_seconds=21.0,
        ),
        Workload(
            name="tcp_fleet",
            program=traffic_program_prime,
            output_predicates=EVENT_PREDICATES,
            size=400,
            slide=100,
            partitioned=True,
            caches=True,
            tcp_workers=2,
            saturation_triples=12_000,
            paced_rate=1000,
            paced_seconds=21.0,
        ),
    )
}


class Deployment:
    """One workload's program, plan, backend (and daemons) and open session."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.workers: List[LocalWorkerProcess] = []
        program = workload.program()
        partitioner = None
        if workload.partitioned:
            graph = build_input_dependency_graph(program, INPUT_PREDICATES)
            partitioner = DependencyPartitioner(decompose(graph).plan)
        try:
            if workload.tcp_workers:
                self.workers = spawn_local_workers(workload.tcp_workers)
                backend = TcpBackend([worker.endpoint for worker in self.workers])
            else:
                backend = InlineBackend()
            self.query_processor = StreamQueryProcessor(set(INPUT_PREDICATES))
            self.session = StreamSession(
                program,
                window=CountWindow(workload.size, workload.slide),
                partitioner=partitioner,
                backend=backend,
                input_predicates=INPUT_PREDICATES,
                output_predicates=workload.output_predicates,
                grounding_cache=GroundingCache() if workload.caches else None,
                solver_cache=SolverCache() if workload.caches else None,
                query_processor=self.query_processor,
            )
        except BaseException:
            self.stop_workers()
            raise

    def first_answer(self, seed: int) -> None:
        """Push one warm-up window and wait for its result: the end of set-up.

        ``finish`` then resets the window indexes, so the measured stream
        starts at window 0 on warm caches and live connections.
        """
        self.session.push(streams.chunk(self.workload, seed, streams.WARM_UP, 0, self.workload.size))
        solutions = list(self.session.results(wait=True))
        self.session.finish()
        if len(solutions) != 1:
            raise RuntimeError(f"{self.workload.name}: warm-up window yielded {len(solutions)} results")

    def counters(self) -> Dict[str, float]:
        """The public counter surfaces of the session and its backend (read before close)."""
        session = self.session
        return {
            "accepted_items": self.query_processor.accepted_count,
            "inflight_high_water": session.ingestion.inflight_high_water,
            "backpressure_stalls": session.ingestion.backpressure_stalls,
            "fallbacks": session.fallbacks,
            "queue_high_water": session.backend.queue_high_water,
            **{f"wire.{key}": value for key, value in session.backend.transport_statistics().items()},
        }

    def worker_peak_rss_mb(self) -> float:
        """Sum of the daemons' peak resident sets (``VmHWM``), before they stop."""
        total_kb = 0
        for worker in self.workers:
            with open(f"/proc/{worker.process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def worker_cpu_seconds(self) -> float:
        """CPU the daemons have used so far (``utime + stime`` of ``/proc/<pid>/stat``)."""
        ticks = 0
        for worker in self.workers:
            with open(f"/proc/{worker.process.pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()  # after the command name: state is field 0
                ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop_workers(self) -> None:
        for worker in self.workers:
            worker.terminate()
        self.workers = []

    def close(self) -> None:
        try:
            self.session.close()
        finally:
            self.stop_workers()
