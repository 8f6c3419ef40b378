"""Cross-backend equivalence: every execution backend returns the same answer sets.

The backends differ only in *where* the partition reasoners run (inline,
thread pool, shared-memory worker processes, TCP worker servers) and in how
latency is reported; the answer sets must be identical.  This suite locks
that contract in over a matrix of programs:

* the paper's stratified traffic programs ``P`` and ``P'``,
* a non-stratified program with multiple answer sets per partition,
* a program where one partition is inconsistent (skipped by combining),

plus the empty-window and single-partition edge cases.
"""

from __future__ import annotations

import pytest

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import DependencyPartitioner, HashPartitioner, Partitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES
from repro.streamrule.backends import (
    InlineBackend,
    SharedMemoryBackend,
    ThreadPoolBackend,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom
from tests.streamrule.conftest import InThreadTcpBackend

#: The rows of the equivalence matrix (label -> factory), each evaluated
#: through a StreamSession.
BACKEND_FACTORIES = {
    "backend:inline": lambda workers: InlineBackend(),
    "backend:inline-serial": lambda workers: InlineBackend(simulated=False),
    "backend:threads": lambda workers: ThreadPoolBackend(max_workers=workers),
    "backend:shared-memory": lambda workers: SharedMemoryBackend(max_workers=workers),
    "backend:tcp": lambda workers: InThreadTcpBackend(workers),
}


class PredicateSplit(Partitioner):
    """Deterministic test partitioner: an explicit predicate -> partition map.

    Unlike :class:`HashPartitioner` (whose layout depends on Python's
    randomized string hashing) this produces the same split in every run,
    which the inconsistent-partition scenario relies on.
    """

    def __init__(self, groups):
        self._groups = [tuple(group) for group in groups]

    @property
    def partition_count(self):
        return len(self._groups)

    def partition(self, window):
        partitions = [[] for _ in self._groups]
        for atom in window:
            for index, group in enumerate(self._groups):
                if atom.predicate in group:
                    partitions[index].append(atom)
        return partitions


#: The matrix's reference row: serial inline evaluation.
REFERENCE = "backend:inline-serial"


def answers_by_backend(reasoner, partitioner, window, max_workers=2, max_combinations=None):
    """Evaluate ``window`` on every backend; return {label: answers}."""
    collected = {}
    for label, factory in BACKEND_FACTORIES.items():
        with StreamSession(
            reasoner, partitioner=partitioner, backend=factory(max_workers), max_combinations=max_combinations
        ) as session:
            result = session.evaluate_window(window)
        collected[label] = {frozenset(answer) for answer in result.answers}
    return collected


def assert_all_backends_equal(collected):
    reference = collected[REFERENCE]
    for label, answers in collected.items():
        assert answers == reference, f"{label} diverged from {REFERENCE}"


# --------------------------------------------------------------------------- #
# The paper's stratified traffic programs
# --------------------------------------------------------------------------- #
class TestTrafficPrograms:
    pytestmark = pytest.mark.slow  # every test spawns shared-memory workers

    def test_program_p_motivating_window(self, event_reasoner_p, plan_p, motivating_window):
        collected = answers_by_backend(event_reasoner_p, DependencyPartitioner(plan_p), motivating_window)
        assert_all_backends_equal(collected)
        # The motivating example has exactly one answer: the dangan car fire.
        [answer] = collected["backend:shared-memory"]
        assert {str(atom) for atom in answer} == {"car_fire(dangan)", "give_notification(dangan)"}

    def test_program_p_prime_motivating_window(self, program_p_prime, plan_p_prime, motivating_window):
        reasoner = Reasoner(program_p_prime, INPUT_PREDICATES, EVENT_PREDICATES)
        collected = answers_by_backend(reasoner, DependencyPartitioner(plan_p_prime), motivating_window)
        assert_all_backends_equal(collected)
        assert collected[REFERENCE]

    def test_program_p_synthetic_window(self, event_reasoner_p, plan_p, small_traffic_window):
        collected = answers_by_backend(event_reasoner_p, DependencyPartitioner(plan_p), small_traffic_window)
        assert_all_backends_equal(collected)

    def test_program_p_hash_partitioning(self, event_reasoner_p, small_traffic_window):
        # Hash partitioning may split joins (lower accuracy than dependency
        # partitioning) -- but whatever it answers must not depend on the backend.
        collected = answers_by_backend(event_reasoner_p, HashPartitioner(3), small_traffic_window)
        assert_all_backends_equal(collected)


# --------------------------------------------------------------------------- #
# Multiple answer sets and inconsistent partitions
# --------------------------------------------------------------------------- #
CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

CONSTRAINED_PROGRAM = """\
good(X) :- item(X).
:- poison(X).
"""


class TestNonStratifiedPrograms:
    pytestmark = pytest.mark.slow  # every test spawns shared-memory workers

    def test_multiple_answer_sets_per_partition(self):
        reasoner = Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])
        window = [make_atom("item", index) for index in range(3)]
        collected = answers_by_backend(reasoner, HashPartitioner(2), window)
        assert_all_backends_equal(collected)
        # Three two-way choices -> the combining handler unions picks from
        # both partitions; there must be more than one combined answer.
        assert len(collected[REFERENCE]) > 1

    def test_inconsistent_partition_is_skipped_on_every_backend(self):
        reasoner = Reasoner(parse_program(CONSTRAINED_PROGRAM), input_predicates=["item", "poison"])
        window = [make_atom("item", index) for index in range(4)] + [make_atom("poison", 99)]
        # The poison partition is unsatisfiable; the item partition survives.
        partitioner = PredicateSplit([("item",), ("poison",)])
        collected = answers_by_backend(reasoner, partitioner, window)
        assert_all_backends_equal(collected)
        [answer] = collected[REFERENCE]
        assert {str(atom) for atom in answer} == {f"good({index})" for index in range(4)}

    def test_fully_inconsistent_window_unsatisfiable_on_every_backend(self):
        reasoner = Reasoner(parse_program(CONSTRAINED_PROGRAM), input_predicates=["item", "poison"])
        window = [make_atom("poison", index) for index in range(4)]
        collected = answers_by_backend(reasoner, HashPartitioner(2), window)
        assert_all_backends_equal(collected)
        assert collected[REFERENCE] == set()


# --------------------------------------------------------------------------- #
# Edge cases
# --------------------------------------------------------------------------- #
class TestEdgeCases:
    pytestmark = pytest.mark.slow  # every test spawns shared-memory workers

    def test_empty_window(self, event_reasoner_p, plan_p):
        collected = answers_by_backend(event_reasoner_p, DependencyPartitioner(plan_p), [])
        assert_all_backends_equal(collected)
        # An empty window degenerates to the program's own (single, eventless)
        # answer set -- the same thing the unpartitioned reasoner R returns.
        reference = {frozenset(a) for a in event_reasoner_p.reason([]).answers}
        assert collected[REFERENCE] == reference

    def test_single_partition(self, event_reasoner_p, motivating_window):
        collected = answers_by_backend(event_reasoner_p, HashPartitioner(1), motivating_window)
        assert_all_backends_equal(collected)
        # One partition means PR degenerates to R exactly.
        reference = {frozenset(a) for a in event_reasoner_p.reason(motivating_window).answers}
        assert collected[REFERENCE] == reference

    def test_empty_partitions_are_filtered(self, event_reasoner_p, motivating_window):
        # 6 atoms into 12 hash buckets: some partitions are necessarily empty
        # and must not be dispatched to the reasoner pool.
        partitioner = HashPartitioner(12)
        non_empty = sum(1 for part in partitioner.partition(motivating_window) if part)
        assert non_empty < 12
        result = StreamSession(event_reasoner_p, partitioner=partitioner).evaluate_window(motivating_window)
        assert len(result.partition_results) == non_empty
        # The metrics still record the partitioner's full layout.
        assert len(result.metrics.partition_sizes) == 12

    def test_shared_memory_workers_persist_across_windows(self, program_p, plan_p, motivating_window):
        # A *cached* reasoner: each worker inherits its own fresh cache, so
        # the repeated window must be served from worker-side cache hits.
        reasoner = Reasoner(
            program_p, INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
        )
        backend = SharedMemoryBackend(max_workers=1)
        with StreamSession(reasoner, partitioner=DependencyPartitioner(plan_p), backend=backend) as session:
            first = session.evaluate_window(motivating_window)
            slots = backend.slots
            assert slots is not None and len(slots) == 1
            pids = [slot.process.pid for slot in slots]
            second = session.evaluate_window(motivating_window)
            assert backend.slots is slots  # reused, not rebuilt
            assert [slot.process.pid for slot in slots] == pids  # same worker processes
            assert {frozenset(a) for a in first.answers} == {frozenset(a) for a in second.answers}
            # The single worker's grounding cache serves the repeated window.
            assert second.metrics.cache_hits == len(second.partition_results)
        assert backend.slots is None  # context exit shut the workers down

    def test_uncached_reasoner_stays_uncached_in_workers(self, event_reasoner_p, plan_p, motivating_window):
        # Workers inherit the parent's cache *configuration*: no cache on the
        # parent means no hidden caching in worker processes either, keeping
        # cross-backend latency comparisons honest.
        with StreamSession(
            event_reasoner_p, partitioner=DependencyPartitioner(plan_p), backend=SharedMemoryBackend(max_workers=1)
        ) as session:
            session.evaluate_window(motivating_window)
            repeat = session.evaluate_window(motivating_window)
        assert repeat.metrics.cache_hits == 0
        assert repeat.metrics.cache_misses == 0

    def test_close_is_idempotent_and_pool_recreates(self, event_reasoner_p, plan_p, motivating_window):
        session = StreamSession(
            event_reasoner_p, partitioner=DependencyPartitioner(plan_p), backend=SharedMemoryBackend(max_workers=1)
        )
        session.close()  # never started: no-op
        first = session.evaluate_window(motivating_window)
        session.close()
        session.close()
        second = session.evaluate_window(motivating_window)  # lazily recreated workers
        session.close()
        assert {frozenset(a) for a in first.answers} == {frozenset(a) for a in second.answers}


# --------------------------------------------------------------------------- #
# Wall-clock latency reporting (docstring contract)
# --------------------------------------------------------------------------- #
def evaluate_dependency_partitioned(reasoner, plan, backend, window):
    with StreamSession(reasoner, partitioner=DependencyPartitioner(plan), backend=backend) as session:
        return session.evaluate_window(window)


class TestLatencyReporting:
    @pytest.mark.parametrize(
        "make_backend", [lambda: ThreadPoolBackend(max_workers=2), lambda: InThreadTcpBackend(2)], ids=["threads", "tcp"]
    )
    def test_pipelined_latency_is_measured_wall_clock(self, event_reasoner_p, plan_p, motivating_window, make_backend):
        # A pipelined backend reports the stopwatch, never the modelled
        # aggregate of the workers' own latencies.
        result = evaluate_dependency_partitioned(event_reasoner_p, plan_p, make_backend(), motivating_window)
        wall = result.metrics.evaluation_wall_seconds
        assert wall is not None and wall > 0.0
        breakdown = result.metrics.breakdown
        expected = wall + breakdown.partitioning_seconds + breakdown.combining_seconds
        assert result.metrics.latency_seconds == pytest.approx(expected)

    def test_simulated_parallel_latency_is_slowest_partition(self, event_reasoner_p, plan_p, motivating_window):
        result = evaluate_dependency_partitioned(event_reasoner_p, plan_p, InlineBackend(), motivating_window)
        slowest = max(r.metrics.breakdown.total_seconds for r in result.partition_results)
        breakdown = result.metrics.breakdown
        expected = slowest + breakdown.partitioning_seconds + breakdown.combining_seconds
        assert result.metrics.latency_seconds == pytest.approx(expected)

    def test_serial_latency_sums_partitions(self, event_reasoner_p, plan_p, motivating_window):
        result = evaluate_dependency_partitioned(
            event_reasoner_p, plan_p, InlineBackend(simulated=False), motivating_window
        )
        summed = sum(r.metrics.breakdown.total_seconds for r in result.partition_results)
        breakdown = result.metrics.breakdown
        expected = summed + breakdown.partitioning_seconds + breakdown.combining_seconds
        assert result.metrics.latency_seconds == pytest.approx(expected)

    def test_worker_wall_seconds_recorded_per_partition(self, event_reasoner_p, plan_p, motivating_window):
        result = evaluate_dependency_partitioned(
            event_reasoner_p, plan_p, ThreadPoolBackend(max_workers=2), motivating_window
        )
        assert len(result.metrics.worker_wall_seconds) == len(result.partition_results)
        assert all(seconds >= 0.0 for seconds in result.metrics.worker_wall_seconds)
