"""Cross-backend equivalence under delta-grounding.

Acceptance contract of the delta path: for every windowed stream, the
answer sets produced with delta-grounding enabled (sliding-window deltas
threaded down to per-partition incremental grounding) are identical to the
ground-from-scratch answer sets, on every execution backend.  The delta
machinery may change *how* a window is grounded (exact hit or reground on
the partition's track) but never *what* the window answers.  Every
dependency-plan comparison first checks that the reference raises events,
so a backend that loses answers fails; the hash-partitioned ones cannot
(see ``PARTITIONINGS``).
"""

from __future__ import annotations

import pytest

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import DependencyPartitioner, HashPartitioner, RandomPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program, traffic_program_prime
from repro.streaming.window import CountWindow, TimeWindow
from repro.streamrule.backends import (
    InlineBackend,
    ProcessBackend,
    ThreadPoolBackend,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom
from tests.streamrule.conftest import MATRIX_TOKEN, InThreadTcpBackend, eventful_traffic_stream

#: The backends of the delta-equivalence matrix (name -> factory).  ``tcp``
#: and ``tcp-token`` ship the same id-run work frames, the latter behind the
#: shared-token ``AUTH`` handshake; ``processes`` ships them to local worker
#: processes over socket pairs.
BACKEND_FACTORIES = {
    "inline": lambda workers: InlineBackend(),
    "inline-serial": lambda workers: InlineBackend(simulated=False),
    "threads": lambda workers: ThreadPoolBackend(max_workers=workers),
    "processes": lambda workers: ProcessBackend(max_workers=workers),
    "tcp": lambda workers: InThreadTcpBackend(workers),
    "tcp-token": lambda workers: InThreadTcpBackend(workers, auth_token=MATRIX_TOKEN),
}

#: Every row of the matrix: (entry point, backend name).  ``evaluate_window`` hands
#: the session each window together with its delta; ``process`` lets the
#: session cut the windows and thread their deltas itself (dispatching ahead
#: of the gather point on pipelined backends).
RUNNERS = [(entry, name) for entry in ("evaluate_window", "process") for name in BACKEND_FACTORIES]


def runner_id(runner):
    entry, name = runner
    return f"backend:{name}" if entry == "evaluate_window" else f"process:{name}"


def make_session(reasoner, partitioner, name, window=None):
    """A partitioned session on the named backend (two workers where it has any)."""
    return StreamSession(reasoner, window=window, partitioner=partitioner, backend=BACKEND_FACTORIES[name](2))


def answer_sets(answers):
    return {frozenset(answer) for answer in answers}


def cached_reasoner(program=None):
    return Reasoner(
        program or traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
    )


def scratch_answers_per_window(window_policy, stream, partitioner, program=None, expect_events=True):
    """Reference: every window evaluated serially inline without any cache.

    With ``expect_events`` it asserts that the reference raises both kinds
    of event, so the exact match it is compared with is not a match of
    empty answer sets.
    """
    reasoner = Reasoner(program or traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
    with StreamSession(
        reasoner, partitioner=partitioner, backend=InlineBackend(simulated=False)
    ) as session:
        expected = [
            {frozenset(answer) for answer in session.evaluate_window(list(window)).answers}
            for window in window_policy.windows(stream)
        ]
    if expect_events:
        raised = {atom.predicate for answers in expected for answer in answers for atom in answer}
        assert raised >= {"car_fire", "traffic_jam"}, f"the reference raises only {sorted(raised)}"
    return expected


#: The partitioners of the window-kind matrices (name -> factory taking P's
#: plan).  ``HashPartitioner`` places each atom by ``hash(str(atom))``, which
#: follows ``PYTHONHASHSEED``, so whether a traffic join survives it varies
#: between runs: its rows compare answers without the events precondition.
PARTITIONINGS = {
    "plan": DependencyPartitioner,
    "hash": lambda plan: HashPartitioner(3),
}


def delta_answers_per_window(window_policy, stream, partitioner, runner, reasoner=None):
    """Delta path: every window evaluated with its slide delta and a cache."""
    entry, name = runner
    reasoner = reasoner or cached_reasoner()
    if entry == "process":
        with make_session(reasoner, partitioner, name, window=window_policy) as session:
            return [answer_sets(solution.answers) for solution in session.process(stream)]
    with make_session(reasoner, partitioner, name) as session:
        return [
            answer_sets(session.evaluate_window(list(delta.window), delta=delta).answers)
            for delta in window_policy.deltas(stream)
        ]


class TestSlidingWindowEquivalence:
    pytestmark = pytest.mark.slow  # the processes rows spawn worker processes

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_sliding(self, plan_p, runner):
        stream = eventful_traffic_stream(240)
        window_policy = CountWindow(size=80, slide=30)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        actual = delta_answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_overlapping_partitions(self, plan_p_prime, runner):
        # The P' plan copies the atoms rule r7 joins across into both
        # partitions, so one fact rides two tracks' deltas.
        stream = eventful_traffic_stream(180)
        window_policy = CountWindow(size=60, slide=20)
        partitioner = DependencyPartitioner(plan_p_prime)
        program = traffic_program_prime()
        expected = scratch_answers_per_window(window_policy, stream, partitioner, program)
        actual = delta_answers_per_window(window_policy, stream, partitioner, runner, cached_reasoner(program))
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_hash_partitioning(self, runner):
        # Hash placement follows PYTHONHASHSEED (see PARTITIONINGS).
        stream = eventful_traffic_stream(180)
        window_policy = CountWindow(size=60, slide=20)
        partitioner = HashPartitioner(3)
        expected = scratch_answers_per_window(window_policy, stream, partitioner, expect_events=False)
        actual = delta_answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_time_window_sliding(self, plan_p, runner):
        stream = eventful_traffic_stream(150)
        window_policy = TimeWindow(duration=50.0, slide=20.0)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        actual = delta_answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected

    def test_random_partitioner_ignores_delta_hint(self):
        # Random layouts reshuffle between windows; the delta hint must be
        # ignored (no partition-level continuity) yet answers stay equal to
        # the same partitioner's non-delta evaluation under a fixed seed.
        stream = eventful_traffic_stream(120)
        window_policy = CountWindow(size=40, slide=15)
        reasoner = cached_reasoner()
        with make_session(reasoner, RandomPartitioner(3, seed=5), "inline-serial") as session:
            results = [
                session.evaluate_window(list(delta.window), delta=delta) for delta in window_policy.deltas(stream)
            ]
        with_delta = [{frozenset(answer) for answer in result.answers} for result in results]
        assert reasoner.grounding_cache.statistics()["delta_states"] == 0.0  # no track was opened
        plain = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with make_session(plain, RandomPartitioner(3, seed=5), "inline-serial") as session:
            without_delta = [
                {frozenset(answer) for answer in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]
        assert with_delta == without_delta


class TestNonStratifiedDeltaEquivalence:
    pytestmark = pytest.mark.slow

    CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_choice_program_sliding_windows(self, runner):
        stream = [make_atom("item", index % 5) for index in range(24)]
        window_policy = CountWindow(size=8, slide=3)
        program = parse_program(self.CHOICE_PROGRAM)

        reference = Reasoner(program, input_predicates=["item"])
        expected = [
            {frozenset(answer) for answer in reference.reason(list(window)).answers}
            for window in window_policy.windows(stream)
        ]

        cached = Reasoner(program, input_predicates=["item"], grounding_cache=GroundingCache())
        assert all(answers and all(answers) for answers in expected)  # picks in every window
        combined = delta_answers_per_window(window_policy, stream, HashPartitioner(2), runner, reasoner=cached)
        # Partition-combined answers for a single-predicate choice program
        # coincide with the unpartitioned ones (no cross-partition joins).
        assert combined == expected


class TestBackendWindowKindEquivalence:
    """Acceptance matrix: backends x {tumbling, sliding, hopping} x delta on/off.

    Identical answer sets for inline (serial and simulated), threads,
    local worker processes and TCP backends on every window kind, with the
    delta path enabled and disabled, under P's dependency plan and under
    hash partitioning.
    """

    pytestmark = pytest.mark.slow

    WINDOW_SCENARIOS = {
        "tumbling": CountWindow(size=60),
        "sliding": CountWindow(size=60, slide=20),
        "hopping": CountWindow(size=40, slide=60),
    }

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    @pytest.mark.parametrize("window_kind", sorted(WINDOW_SCENARIOS), ids=str)
    @pytest.mark.parametrize("use_delta", [True, False], ids=["delta", "no-delta"])
    @pytest.mark.parametrize("partitioning", sorted(PARTITIONINGS), ids=str)
    def test_backend_equivalence(self, plan_p, partitioning, backend_name, window_kind, use_delta):
        stream = eventful_traffic_stream(200)
        window_policy = self.WINDOW_SCENARIOS[window_kind]
        partitioner = PARTITIONINGS[partitioning](plan_p)
        expected = scratch_answers_per_window(
            window_policy, stream, partitioner, expect_events=partitioning == "plan"
        )
        backend = BACKEND_FACTORIES[backend_name](2)
        with StreamSession(cached_reasoner(), partitioner=partitioner, backend=backend) as session:
            if use_delta:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(delta.window), delta=delta).answers}
                    for delta in window_policy.deltas(stream)
                ]
            else:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                    for window in window_policy.windows(stream)
                ]
        assert actual == expected


class TestDeltaMetricsFlow:
    def test_pipeline_reports_track_rebuilds_and_hits(self):
        stream = eventful_traffic_stream(200)
        cache = GroundingCache()
        reasoner = Reasoner(
            traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=cache
        )
        with StreamSession(reasoner, window=CountWindow(size=80, slide=20)) as session:
            solutions = list(session.process(stream))
        assert len(solutions) >= 5
        rebuilds = sum(solution.metrics.cache_misses for solution in solutions)
        hits = sum(solution.metrics.cache_hits for solution in solutions)
        assert rebuilds + hits == len(solutions)  # one outcome per window
        assert rebuilds >= 2  # sliding windows change, so they are regrounded
        statistics = cache.statistics()
        assert (statistics["misses"], statistics["hits"]) == (rebuilds, hits)
        # The first window has no predecessor and goes through the LRU memo.
        assert statistics["delta_rebuilds"] == rebuilds - 1
        assert statistics["delta_states"] == 1.0
        assert all(solution.metrics.delta_repairs == solution.metrics.repair_size == 0 for solution in solutions)

    def test_tumbling_pipeline_stays_on_exact_cache_path(self):
        stream = eventful_traffic_stream(200)
        cache = GroundingCache()
        reasoner = Reasoner(
            traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=cache
        )
        with StreamSession(reasoner, window=CountWindow(size=50)) as session:
            solutions = list(session.process(stream))
        # Tumbling windows carry nothing over: no track is opened.
        assert all(solution.metrics.cache_misses + solution.metrics.cache_hits == 1 for solution in solutions)
        assert cache.statistics()["delta_states"] == 0.0
        assert cache.statistics()["delta_rebuilds"] == 0.0

    def test_parallel_metrics_aggregate_track_outcomes(self, plan_p):
        stream = eventful_traffic_stream(200)
        window_policy = CountWindow(size=80, slide=20)
        reasoner = cached_reasoner()
        with make_session(reasoner, DependencyPartitioner(plan_p), "inline-serial") as session:
            results = [
                session.evaluate_window(list(delta.window), delta=delta) for delta in window_policy.deltas(stream)
            ]
        for result in results:
            # One outcome per evaluated partition, summed over the window's partitions.
            assert result.metrics.cache_hits + result.metrics.cache_misses == len(result.partition_results)
        statistics = reasoner.grounding_cache.statistics()
        assert statistics["delta_states"] > 1.0  # one track per partition
        assert statistics["delta_rebuilds"] > 0.0
        assert sum(result.metrics.cache_misses for result in results) == statistics["misses"]
