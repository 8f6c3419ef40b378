"""Window sequences against the brute-force stable-model oracle.

A stream solves one window after another over the same rules, and only the
grounding track (:meth:`GroundingCache.ground_incremental`) carries anything
from one window to the next; solving always starts from scratch.  Each
scenario drives one track through a sequence of windows -- facts that come
and go, constraints and rules that appear for one window -- and every
window must answer exactly what the oracle of ``test_stable_models.py``
computes from the definition.
"""

from hypothesis import given, settings, strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import GroundingCache, ground_program
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from tests.asp.test_stable_models import stable_models as oracle_models


def split_window(rules_text, window_text):
    """The window's rule set and its facts, as a stream reasoner sees them."""
    parsed = parse_program(rules_text + "\n" + window_text)
    facts = [rule.head[0] for rule in parsed.rules if rule.is_fact]
    return Program([rule for rule in parsed.rules if not rule.is_fact]), facts


def assert_window_sequence_matches(rules_text, windows, limit=None):
    """Solve the windows on one grounding track; compare each with the oracle.

    Without a limit the model sets must be identical.  With a limit, *which*
    models a truncated enumeration returns depends on search order, so only
    the count and membership in the full model set are guaranteed.
    Returns the oracle's model count per window.
    """
    cache = GroundingCache()
    counts = []
    for window_text in windows:
        program, facts = split_window(rules_text, window_text)
        expected = oracle_models(program, facts)
        assert expected is not None
        control = Control(program, grounding_cache=cache, delta_track=0)
        control.add_facts(facts)
        found = [frozenset(model.atoms) for model in control.solve(models=limit).models]
        if limit is None:
            assert set(found) == expected
            assert len(found) == len(expected)
        else:
            assert set(found) <= expected
            assert len(found) == min(limit, len(expected))
        counts.append(len(expected))
    return counts


class TestSlidingEquivalence:
    def test_stratified_sliding_facts(self):
        counts = assert_window_sequence_matches(
            "q(X) :- p(X), not r(X).",
            ["p(1). p(2). r(1).", "p(2). p(3). r(1).", "p(3). p(4).", "p(3). p(4)."],
        )
        assert counts == [1, 1, 1, 1]

    def test_even_loop_with_constraint_window(self):
        counts = assert_window_sequence_matches("a :- not b. b :- not a.", ["", ":- a.", "", ":- b. :- a."])
        assert counts == [2, 1, 2, 0]

    def test_odd_loop_windows(self):
        counts = assert_window_sequence_matches("a :- not a.", ["", "a :- b. b.", ""])
        assert counts == [0, 1, 0]

    def test_positive_loop_windows(self):
        counts = assert_window_sequence_matches("a :- b. b :- a.", ["", "b :- c. c.", ""])
        assert counts == [1, 1, 1]

    def test_choice_program_with_changing_domain(self):
        counts = assert_window_sequence_matches(
            "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X).",
            ["p(1). p(2).", "p(2).", "p(2). p(3). p(4).", "p(2). p(3). p(4)."],
        )
        assert counts == [4, 2, 8, 8]

    def test_mixed_loop_and_negation_cycle(self):
        # {a, b} is a completion model's unfounded loop unless p holds or
        # b is a fact.
        counts = assert_window_sequence_matches(
            "a :- b. b :- a. p :- not q. q :- not p. a :- p.", ["", "", "b.", ""]
        )
        assert counts == [2, 2, 2, 2]

    def test_new_support_for_a_loop(self):
        # Window 1 adds a :- q, under which {q, a, b} becomes stable.
        counts = assert_window_sequence_matches(
            "a :- b. b :- a. p :- not q. q :- not p. a :- p.", ["", "a :- q."]
        )
        assert counts == [2, 2]

    def test_constraint_appears_and_disappears(self):
        counts = assert_window_sequence_matches(
            "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X).",
            ["p(1).", "p(1). :- q(1).", "p(1).", "p(1). :- q(1). :- r(1)."],
        )
        assert counts == [2, 1, 2, 0]

    def test_disjunctive_window_between_normal_windows(self):
        counts = assert_window_sequence_matches("p :- q.", ["q.", "a | b.", "q."])
        assert counts == [1, 2, 1]

    def test_disjunctive_program_with_changing_domain(self):
        counts = assert_window_sequence_matches(
            "p(X) | q(X) :- r(X). s :- p(1), not q(2).", ["r(1).", "r(1). r(2).", "r(2).", "r(1). r(2)."]
        )
        assert counts == [2, 4, 2, 4]

    def test_limit_is_respected_across_windows(self):
        counts = assert_window_sequence_matches("a :- not b. b :- not a.", ["", "c.", ""], limit=1)
        assert counts == [2, 2, 2]

    def test_zero_limit_returns_no_models(self):
        ground = ground_program(parse_program("a :- not b. b :- not a."))
        assert list(StableModelSolver(ground).models(limit=0)) == []
        # Control follows clingo's --models=0: a zero limit means "all".
        assert len(Control(parse_program("a :- not b. b :- not a.")).solve(models=0).models) == 2

    def test_unsat_window_then_sat_window(self):
        counts = assert_window_sequence_matches("a :- not b. b :- not a.", [":- a. :- b.", ""])
        assert counts == [0, 2]

    def test_repeated_window_is_a_grounding_hit_with_the_same_answers(self):
        rules = "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X)."
        program, facts = split_window(rules, "p(1). p(2).")
        cache = GroundingCache()
        answers, outcomes = [], []
        for _ in range(2):
            control = Control(program, grounding_cache=cache, delta_track=0)
            control.add_facts(facts)
            answers.append({frozenset(model.atoms) for model in control.solve().models})
            outcomes.append(control.ground_outcome)
        assert outcomes == ["full", "hit"]
        assert answers[0] == answers[1] == oracle_models(program, facts)


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
    def test_window_sequences_match_the_oracle(self, case):
        rule_lines, windows = case
        assert_window_sequence_matches("\n".join(rule_lines), [" ".join(window) for window in windows])
