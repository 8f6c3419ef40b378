"""Cross-mode equivalence under incremental solving.

Acceptance contract of the solver cache: for every windowed stream, the
answer sets produced with a :class:`SolverCache` attached (persistent
per-track solver state repaired across slides and re-solved under
assumptions) are identical to the solve-from-scratch answer sets, in every
execution backend and for every window kind.  The cache may change *how* a
window is solved (stratum reuse, encoding repair, disjunctive fallback) but
never *what* the window answers.
"""

from __future__ import annotations

import pytest

from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.window import CountWindow
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.conftest import make_atom
from tests.streamrule.conftest import eventful_traffic_stream
from tests.streamrule.test_delta_modes import BACKEND_FACTORIES, PARTITIONINGS, scratch_answers_per_window


def solver_cached_reasoner():
    return Reasoner(
        traffic_program(),
        INPUT_PREDICATES,
        EVENT_PREDICATES,
        grounding_cache=GroundingCache(),
        solver_cache=SolverCache(),
    )


class TestBackendWindowKindSolverEquivalence:
    """Acceptance matrix: backends x {tumbling, sliding, hopping} x delta.

    Every cell must answer exactly like serial from-scratch evaluation even
    though the solver cache repairs persistent state between windows.
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
        with StreamSession(solver_cached_reasoner(), partitioner=partitioner, backend=backend) as session:
            actual = [
                {frozenset(a) for a in session.evaluate_window(list(delta.window), delta=delta).answers}
                for delta in window_policy.deltas(stream)
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

        cached = Reasoner(
            program,
            input_predicates=["item"],
            grounding_cache=GroundingCache(),
            solver_cache=SolverCache(),
        )
        backend = BACKEND_FACTORIES[backend_name](2)
        with StreamSession(cached, partitioner=HashPartitioner(2), backend=backend) as session:
            combined = [
                {
                    frozenset(answer)
                    for answer in session.evaluate_window(list(delta.window), delta=delta).answers
                }
                for delta in window_policy.deltas(stream)
            ]
        assert combined == expected


class TestSolverMetricsFlow:
    def test_session_reports_assumption_resolves(self):
        stream = eventful_traffic_stream(200)
        solver_cache = SolverCache()
        reasoner = Reasoner(
            traffic_program(),
            INPUT_PREDICATES,
            EVENT_PREDICATES,
            grounding_cache=GroundingCache(),
            solver_cache=solver_cache,
        )
        window_policy = CountWindow(size=80, slide=20)
        with StreamSession(reasoner, partitioner=HashPartitioner(2)) as session:
            results = [
                session.evaluate_window(list(delta.window), delta=delta)
                for delta in window_policy.deltas(stream)
            ]
        assert len(results) >= 5
        resolves = sum(result.metrics.assumption_resolves for result in results)
        fulls = sum(result.metrics.solver_full_solves for result in results)
        # Each partition track pays one full solve on its first window;
        # everything after re-solves incrementally.
        assert fulls >= 1
        assert resolves > fulls
        stats = solver_cache.statistics()
        assert stats["incremental_solves"] == float(resolves)
        assert stats["full_solves"] == float(fulls)
        assert stats["solver_states"] >= 1.0

    def test_tumbling_windows_keep_no_solver_state(self):
        stream = eventful_traffic_stream(200)
        solver_cache = SolverCache()
        reasoner = Reasoner(
            traffic_program(),
            INPUT_PREDICATES,
            EVENT_PREDICATES,
            grounding_cache=GroundingCache(),
            solver_cache=solver_cache,
        )
        with StreamSession(reasoner, partitioner=HashPartitioner(2)) as session:
            results = [
                session.evaluate_window(list(window))
                for window in CountWindow(size=50).windows(stream)
            ]
        # Tumbling windows carry nothing over: the work items never want
        # incremental evaluation, so no solver state is created.
        assert all(result.metrics.assumption_resolves == 0 for result in results)
        assert solver_cache.statistics()["solver_states"] == 0.0

    def test_metrics_flow_without_solver_cache_stays_zero(self):
        stream = eventful_traffic_stream(120)
        reasoner = Reasoner(
            traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES, grounding_cache=GroundingCache()
        )
        window_policy = CountWindow(size=60, slide=20)
        with StreamSession(reasoner, partitioner=HashPartitioner(2)) as session:
            results = [
                session.evaluate_window(list(delta.window), delta=delta)
                for delta in window_policy.deltas(stream)
            ]
        for result in results:
            assert result.metrics.assumption_resolves == 0
            assert result.metrics.solver_full_solves == 0
            assert result.metrics.encoding_repairs == 0
