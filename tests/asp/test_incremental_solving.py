"""Equivalence and state-management tests for incremental solving.

The contract under test: across any sequence of windows, an
:class:`IncrementalSolver` fed each window's ground program returns exactly
the answer sets of from-scratch :func:`stable_models` on the same program --
while its :class:`SolveStats` show that prior state actually got reused.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.grounding.grounder import ground_program
from repro.asp.solving.incremental import _COMPACTION_THRESHOLD, IncrementalSolver, SolverCache
from repro.asp.solving.solver import stable_models
from repro.asp.syntax.parser import parse_program


def ground_window(rules_text, facts_text):
    return ground_program(parse_program(rules_text + "\n" + facts_text))


def assert_window_sequence_matches(rules_text, fact_windows, limit=None):
    """Drive one solver through the windows; compare each against scratch.

    Without a limit the model sets must be identical.  With a limit, *which*
    models a truncated enumeration returns depends on search order, so only
    the count and membership in the full model set are guaranteed.
    """
    solver = IncrementalSolver()
    stats_seq = []
    for facts_text in fact_windows:
        ground = ground_window(rules_text, facts_text)
        models, stats = solver.solve(ground, limit=limit)
        got = {frozenset(model) for model in models}
        full = {frozenset(model) for model in stable_models(ground)}
        if limit is None:
            assert got == full
            assert len(models) == len(full)
        else:
            assert got <= full
            assert len(models) == min(limit, len(full))
        stats_seq.append(stats)
    return stats_seq


class TestSlidingEquivalence:
    def test_stratified_sliding_facts(self):
        rules = "q(X) :- p(X), not r(X)."
        stats = assert_window_sequence_matches(
            rules,
            ["p(1). p(2). r(1).", "p(2). p(3). r(1).", "p(3). p(4).", "p(3). p(4)."],
        )
        assert stats[0].outcome == "full"
        assert all(s.outcome == "incremental" for s in stats[1:])

    def test_even_loop_with_constraint_window(self):
        rules = "a :- not b. b :- not a."
        stats = assert_window_sequence_matches(
            rules,
            ["", ":- a.", "", ":- b. :- a."],
        )
        # The constraint windows change the rule set: encoding repairs happen.
        assert any(s.encoding_repairs for s in stats[1:])

    def test_odd_loop_windows(self):
        rules = "a :- not a."
        assert_window_sequence_matches(rules, ["", "a :- b. b.", ""])

    def test_positive_loop_windows(self):
        rules = "a :- b. b :- a."
        assert_window_sequence_matches(rules, ["", "b :- c. c.", ""])

    def test_choice_program_with_changing_domain(self):
        rules = "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X)."
        stats = assert_window_sequence_matches(
            rules,
            ["p(1). p(2).", "p(2).", "p(2). p(3). p(4).", "p(2). p(3). p(4)."],
        )
        # The domain changes drop the retracted rules' clauses.
        assert any(s.clauses_dropped for s in stats[1:])

    def test_mixed_loop_and_negation_cycle(self):
        # Enumerating window 0 visits the completion model with {a, b}
        # unfounded and learns its loop clause; the identical window 1 then
        # retains that clause instead of re-deriving it.
        rules = "a :- b. b :- a. p :- not q. q :- not p. a :- p."
        stats = assert_window_sequence_matches(rules, ["", "", "b.", ""])
        assert stats[1].clauses_retained > 0

    def test_new_support_for_a_learned_loop_drops_its_clause(self):
        # Window 0 learns that {a, b} is unfounded unless p holds; window 1
        # adds a :- q, under which {q, a, b} is stable.  Keeping the learned
        # clause would lose that answer set.
        rules = "a :- b. b :- a. p :- not q. q :- not p. a :- p."
        stats = assert_window_sequence_matches(rules, ["", "a :- q."])
        assert stats[1].clauses_dropped > 0

    def test_disjunctive_program_falls_back(self):
        solver = IncrementalSolver()
        ground = ground_window("a | b.", "")
        models, stats = solver.solve(ground)
        assert stats.outcome == "fallback"
        assert {frozenset(model) for model in models} == {
            frozenset(model) for model in stable_models(ground)
        }
        # A later non-disjunctive window still works (and is not "full":
        # the track has already seen a window).
        models, stats = solver.solve(ground_window("p :- q.", "q."))
        assert stats.outcome == "incremental"
        assert len(models) == 1

    def test_limit_is_respected_across_windows(self):
        rules = "a :- not b. b :- not a."
        assert_window_sequence_matches(rules, ["", "c.", ""], limit=1)

    def test_zero_limit_returns_no_models(self):
        solver = IncrementalSolver()
        models, _ = solver.solve(ground_window("a :- not b. b :- not a.", ""), limit=0)
        assert models == []

    def test_unsat_window_then_sat_window(self):
        rules = "a :- not b. b :- not a."
        assert_window_sequence_matches(rules, [":- a. :- b.", ""])


class TestCompaction:
    def test_compaction_keeps_only_live_variables_and_answers(self):
        # The domain slides by one constant per window, so every window
        # retracts the clauses of two rules and the window's 8 blocking
        # clauses: the tombstones pass the threshold within ~20 windows.
        rules = "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X)."
        solver = IncrementalSolver()
        compacted = False
        for start in range(40):
            ground = ground_window(rules, " ".join(f"p({start + offset})." for offset in range(3)))
            models, _ = solver.solve(ground)
            assert {frozenset(model) for model in models} == {
                frozenset(model) for model in stable_models(ground)
            }
            sat = solver._encoding.solver
            if start == 0:
                first_sat = sat
            elif sat is not first_sat and not compacted:
                compacted = True
                live = set()
                for index in range(sat.clause_count + sat.removed_clause_count):
                    live.update(abs(literal) for literal in sat.clause_literals(index) or ())
                assert sat.variable_count == len(live)
        assert compacted, f"no compaction within 40 windows (threshold {_COMPACTION_THRESHOLD})"


def _program_strategy():
    """Small normal programs: fixed rule pool, per-window fact subsets."""
    rule_pool = [
        "q(X) :- p(X), not r(X).",
        "r(X) :- p(X), not q(X).",
        "s(X) :- q(X).",
        "t(X) :- s(X), r(X).",
        "u :- not w.",
        "w :- not u.",
    ]
    rules = st.lists(st.sampled_from(rule_pool), min_size=1, max_size=6, unique=True)
    fact_pool = ["p(1).", "p(2).", "p(3).", "r(1).", "q(2)."]
    window = st.lists(st.sampled_from(fact_pool), min_size=0, max_size=5, unique=True)
    windows = st.lists(window, min_size=2, max_size=4)
    return st.tuples(rules, windows)


class TestRandomisedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(_program_strategy())
    def test_window_sequences_match_from_scratch_solving(self, case):
        rule_lines, windows = case
        assert_window_sequence_matches(
            "\n".join(rule_lines), [" ".join(window) for window in windows]
        )


class TestSolverCache:
    def test_tracks_keep_independent_state(self):
        cache = SolverCache()
        ground = ground_window("q(X) :- p(X).", "p(1).")
        _, stats_a = cache.solve_incremental(ground, track=0)
        _, stats_b = cache.solve_incremental(ground, track=1)
        assert stats_a.outcome == "full"
        assert stats_b.outcome == "full"  # separate track: no prior state
        _, stats_a2 = cache.solve_incremental(ground, track=0)
        assert stats_a2.outcome == "incremental"

    def test_eviction_beyond_max_states(self):
        cache = SolverCache(max_states=2)
        ground = ground_window("q(X) :- p(X).", "p(1).")
        for track in range(3):
            cache.solve_incremental(ground, track=track)
        stats = cache.statistics()
        assert stats["solver_states"] == 2.0
        assert stats["evictions"] == 1.0
        # Track 0 was evicted (LRU): solving it again is a full solve.
        _, solve_stats = cache.solve_incremental(ground, track=0)
        assert solve_stats.outcome == "full"

    def test_statistics_aggregate_outcomes(self):
        cache = SolverCache()
        normal = ground_window("q(X) :- p(X).", "p(1).")
        disjunctive = ground_window("a | b.", "")
        cache.solve_incremental(normal, track=0)
        cache.solve_incremental(normal, track=0)
        cache.solve_incremental(disjunctive, track=1)
        stats = cache.statistics()
        assert stats["full_solves"] == 1.0
        assert stats["incremental_solves"] == 1.0
        assert stats["fallback_solves"] == 1.0

    def test_clear_resets_states(self):
        cache = SolverCache()
        ground = ground_window("q(X) :- p(X).", "p(1).")
        cache.solve_incremental(ground, track=0)
        cache.clear()
        assert cache.statistics()["solver_states"] == 0.0
        _, stats = cache.solve_incremental(ground, track=0)
        assert stats.outcome == "full"

    def test_rejects_nonpositive_max_states(self):
        import pytest

        with pytest.raises(ValueError):
            SolverCache(max_states=0)
