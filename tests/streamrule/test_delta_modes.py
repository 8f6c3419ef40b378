"""Cross-backend equivalence of windowed streams.

Every window is grounded and solved from scratch wherever it runs, but the
backends move it differently: the worker-process and TCP backends ship a
sliding window's partitions as copy runs over the same track's previous
window (delta shipping), the pipelined ones dispatch windows ahead of the
gather point.  Acceptance contract: for every windowed stream, every
backend answers exactly like serial inline evaluation.  Every
dependency-plan comparison first checks that the reference raises events,
so a backend that loses answers fails; the hash-partitioned ones cannot
(see ``PARTITIONINGS``).
"""

from __future__ import annotations

import pytest

from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import DependencyPartitioner, HashPartitioner
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

#: The backends of the equivalence matrix (name -> factory).  ``tcp``
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
#: the session each window, cut by the caller; ``process`` lets the session cut
#: the windows itself (dispatching ahead of the gather point on pipelined
#: backends).
RUNNERS = [(entry, name) for entry in ("evaluate_window", "process") for name in BACKEND_FACTORIES]


def runner_id(runner):
    entry, name = runner
    return f"backend:{name}" if entry == "evaluate_window" else f"process:{name}"


def make_session(reasoner, partitioner, name, window=None):
    """A partitioned session on the named backend (two workers where it has any)."""
    return StreamSession(reasoner, window=window, partitioner=partitioner, backend=BACKEND_FACTORIES[name](2))


def answer_sets(answers):
    return {frozenset(answer) for answer in answers}


def traffic_reasoner(program=None):
    return Reasoner(program or traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)


def scratch_answers_per_window(window_policy, stream, partitioner, program=None, expect_events=True):
    """Reference: every window evaluated serially inline, one at a time.

    With ``expect_events`` it asserts that the reference raises both kinds
    of event, so the exact match it is compared with is not a match of
    empty answer sets.
    """
    with StreamSession(
        traffic_reasoner(program), partitioner=partitioner, backend=InlineBackend(simulated=False)
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


def answers_per_window(window_policy, stream, partitioner, runner, reasoner=None):
    """Every window of the stream through the runner's entry point and backend."""
    entry, name = runner
    reasoner = reasoner or traffic_reasoner()
    if entry == "process":
        with make_session(reasoner, partitioner, name, window=window_policy) as session:
            return [answer_sets(solution.answers) for solution in session.process(stream)]
    with make_session(reasoner, partitioner, name) as session:
        return [answer_sets(session.evaluate_window(list(window)).answers) for window in window_policy.windows(stream)]


class TestSlidingWindowEquivalence:
    pytestmark = pytest.mark.slow  # the processes rows spawn worker processes

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_sliding(self, plan_p, runner):
        stream = eventful_traffic_stream(240)
        window_policy = CountWindow(size=80, slide=30)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        actual = answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_overlapping_partitions(self, plan_p_prime, runner):
        # The P' plan copies the atoms rule r7 joins across into both
        # partitions, so one fact rides two tracks' copy runs.
        stream = eventful_traffic_stream(180)
        window_policy = CountWindow(size=60, slide=20)
        partitioner = DependencyPartitioner(plan_p_prime)
        program = traffic_program_prime()
        expected = scratch_answers_per_window(window_policy, stream, partitioner, program)
        actual = answers_per_window(window_policy, stream, partitioner, runner, traffic_reasoner(program))
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_count_window_hash_partitioning(self, runner):
        # Hash placement follows PYTHONHASHSEED (see PARTITIONINGS).
        stream = eventful_traffic_stream(180)
        window_policy = CountWindow(size=60, slide=20)
        partitioner = HashPartitioner(3)
        expected = scratch_answers_per_window(window_policy, stream, partitioner, expect_events=False)
        actual = answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected

    @pytest.mark.parametrize("runner", RUNNERS, ids=runner_id)
    def test_time_window_sliding(self, plan_p, runner):
        stream = eventful_traffic_stream(150)
        window_policy = TimeWindow(duration=50.0, slide=20.0)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        actual = answers_per_window(window_policy, stream, partitioner, runner)
        assert actual == expected


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

        reasoner = Reasoner(program, input_predicates=["item"])
        assert all(answers and all(answers) for answers in expected)  # picks in every window
        combined = answers_per_window(window_policy, stream, HashPartitioner(2), runner, reasoner=reasoner)
        # Partition-combined answers for a single-predicate choice program
        # coincide with the unpartitioned ones (no cross-partition joins).
        assert combined == expected


class TestBackendWindowKindEquivalence:
    """Acceptance matrix: backends x {tumbling, sliding, hopping} x {caller-cut, pushed}.

    Identical answer sets for inline (serial and simulated), threads,
    local worker processes and TCP backends on every window kind, whether
    the caller cuts the windows (``evaluate_window``) or the session cuts a
    pushed stream (``push``, dispatching ahead on pipelined backends), under
    P's dependency plan and under hash partitioning.
    """

    pytestmark = pytest.mark.slow

    WINDOW_SCENARIOS = {
        "tumbling": CountWindow(size=60),
        "sliding": CountWindow(size=60, slide=20),
        "hopping": CountWindow(size=40, slide=60),
    }

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    @pytest.mark.parametrize("window_kind", sorted(WINDOW_SCENARIOS), ids=str)
    @pytest.mark.parametrize("entry", ["push", "evaluate_window"], ids=str)
    @pytest.mark.parametrize("partitioning", sorted(PARTITIONINGS), ids=str)
    def test_backend_equivalence(self, plan_p, partitioning, backend_name, window_kind, entry):
        stream = eventful_traffic_stream(200)
        window_policy = self.WINDOW_SCENARIOS[window_kind]
        partitioner = PARTITIONINGS[partitioning](plan_p)
        expected = scratch_answers_per_window(
            window_policy, stream, partitioner, expect_events=partitioning == "plan"
        )
        backend = BACKEND_FACTORIES[backend_name](2)
        window = window_policy if entry == "push" else None
        with StreamSession(traffic_reasoner(), window=window, partitioner=partitioner, backend=backend) as session:
            if entry == "push":
                session.push(stream)
                session.finish()
                actual = [answer_sets(solution.answers) for solution in session.results()]
            else:
                actual = [answer_sets(session.evaluate_window(list(cut)).answers) for cut in window_policy.windows(stream)]
        assert actual == expected


class TestMetricsFlow:
    pytestmark = pytest.mark.slow  # the processes row spawns worker processes

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    def test_every_partition_of_every_window_is_grounded(self, plan_p, backend_name):
        """No window is served from anything kept: each evaluated partition is
        grounded and solved wherever it runs (a worker's times travel back in
        its result), and the retired counters read 0."""
        stream = eventful_traffic_stream(200)
        window_policy = CountWindow(size=80, slide=20)
        with make_session(traffic_reasoner(), DependencyPartitioner(plan_p), backend_name) as session:
            results = [session.evaluate_window(list(window)) for window in window_policy.windows(stream)]
        assert len(results) >= 5
        for result in results:
            assert len(result.metrics.worker_wall_seconds) == len(result.partition_results) >= 2
            for partition in result.partition_results:
                assert partition.metrics.breakdown.grounding_seconds > 0.0
                assert partition.metrics.breakdown.solving_seconds > 0.0
            assert result.metrics.cache_hits == result.metrics.delta_repairs == result.metrics.repair_size == 0
