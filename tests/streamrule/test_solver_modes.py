"""Cross-mode equivalence with the retired caches passed in.

Every window is grounded and solved from scratch.
``StreamSession(grounding_cache=, solver_cache=)`` are retired: the session
drops both before the reasoner is built, so a session that still passes a
:class:`GroundingCache` and a :class:`SolverCache` (the repository benchmark
does) must answer exactly like serial from-scratch evaluation, in every
execution backend and for every window kind, and report the retired
counters as 0.
"""

from __future__ import annotations

import pytest

from repro.asp.control import Control
from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import DependencyPartitioner, HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.server import QueryServer
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom
from tests.streamrule.conftest import eventful_traffic_stream
from tests.streamrule.test_delta_modes import BACKEND_FACTORIES, PARTITIONINGS, scratch_answers_per_window


def solver_cached_session(partitioner, backend):
    """A session built the way the repository benchmark builds its cached ones."""
    return StreamSession(
        traffic_program(),
        partitioner=partitioner,
        backend=backend,
        input_predicates=INPUT_PREDICATES,
        output_predicates=EVENT_PREDICATES,
        grounding_cache=GroundingCache(),
        solver_cache=SolverCache(),
    )


class TestBackendWindowKindSolverEquivalence:
    """Acceptance matrix: backends x {tumbling, sliding, hopping}.

    Every cell must answer exactly like serial from-scratch evaluation with
    the retired caches passed in.
    """

    pytestmark = pytest.mark.slow

    WINDOW_SCENARIOS = {
        "tumbling": CountWindow(size=60),
        "sliding": CountWindow(size=60, slide=20),
        "hopping": CountWindow(size=40, slide=60),
    }

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    @pytest.mark.parametrize("window_kind", sorted(WINDOW_SCENARIOS), ids=str)
    @pytest.mark.parametrize("partitioning", sorted(PARTITIONINGS), ids=str)
    def test_backend_equivalence(self, plan_p, partitioning, backend_name, window_kind):
        stream = eventful_traffic_stream(200)
        window_policy = self.WINDOW_SCENARIOS[window_kind]
        partitioner = PARTITIONINGS[partitioning](plan_p)
        expected = scratch_answers_per_window(
            window_policy, stream, partitioner, expect_events=partitioning == "plan"
        )
        backend = BACKEND_FACTORIES[backend_name](2)
        with solver_cached_session(partitioner, backend) as session:
            actual = [
                {frozenset(a) for a in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]
        assert actual == expected


class TestNonStratifiedSolverEquivalence:
    pytestmark = pytest.mark.slow

    CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""

    @pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES), ids=str)
    def test_choice_program_sliding_windows(self, backend_name):
        stream = [make_atom("item", index % 5) for index in range(24)]
        window_policy = CountWindow(size=8, slide=3)
        program = parse_program(self.CHOICE_PROGRAM)

        reference = Reasoner(program, input_predicates=["item"])
        expected = [
            {frozenset(answer) for answer in reference.reason(list(window)).answers}
            for window in window_policy.windows(stream)
        ]

        backend = BACKEND_FACTORIES[backend_name](2)
        with StreamSession(
            program,
            partitioner=HashPartitioner(2),
            backend=backend,
            input_predicates=["item"],
            grounding_cache=GroundingCache(),
            solver_cache=SolverCache(),
        ) as session:
            combined = [
                {frozenset(answer) for answer in session.evaluate_window(list(window)).answers}
                for window in window_policy.windows(stream)
            ]
        assert combined == expected


class TestRetiredSolverCache:
    def test_the_cache_is_dropped_before_the_reasoner_is_built(self, plan_p):
        with solver_cached_session(DependencyPartitioner(plan_p), InlineBackend()) as session:
            assert not hasattr(session.reasoner, "solver_cache")

    def test_sliding_answers_match_and_retired_counters_read_zero(self, plan_p):
        stream = eventful_traffic_stream(200)
        window_policy = CountWindow(size=80, slide=20)
        partitioner = DependencyPartitioner(plan_p)
        expected = scratch_answers_per_window(window_policy, stream, partitioner)
        with solver_cached_session(partitioner, InlineBackend()) as session:
            results = [session.evaluate_window(list(window)) for window in window_policy.windows(stream)]
        assert len(results) >= 5
        assert [{frozenset(answer) for answer in result.answers} for result in results] == expected
        for result in results:
            assert result.metrics.assumption_resolves == 0
            assert result.metrics.solver_full_solves == 0
            assert result.metrics.cache_hits == 0

    def test_only_the_session_still_takes_the_keyword(self):
        with pytest.raises(TypeError):
            Reasoner(traffic_program(), solver_cache=SolverCache())
        with pytest.raises(TypeError):
            QueryServer(solver_cache=SolverCache())
        with pytest.raises(TypeError):
            Control(traffic_program(), solver_cache=SolverCache(), solver_track=0)

    def test_a_session_given_a_reasoner_accepts_the_retired_cache(self):
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(reasoner, solver_cache=SolverCache()) as session:
            assert session.reasoner is reasoner


class TestRetiredGroundingCache:
    def test_the_cache_is_dropped_before_the_reasoner_is_built(self, plan_p):
        with solver_cached_session(DependencyPartitioner(plan_p), InlineBackend()) as session:
            assert not hasattr(session.reasoner, "grounding_cache")

    def test_only_the_session_still_takes_the_keyword(self):
        with pytest.raises(TypeError):
            Reasoner(traffic_program(), grounding_cache=GroundingCache())
        with pytest.raises(TypeError):
            QueryServer(grounding_cache=GroundingCache())
        with pytest.raises(TypeError):
            Control(traffic_program(), grounding_cache=GroundingCache(), delta_track=0)
        with pytest.raises(TypeError):
            Reasoner(traffic_program()).reason([], delta=None)
        with StreamSession(traffic_program()) as session, pytest.raises(TypeError):
            session.push_window([], delta=None)

    def test_a_session_given_a_reasoner_accepts_the_retired_cache(self):
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(reasoner, grounding_cache=GroundingCache()) as session:
            assert session.reasoner is reasoner
