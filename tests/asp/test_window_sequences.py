"""Window sequences against the brute-force stable-model oracle.

A stream solves one window after another over the same rules.  Nothing but
the rules' compiled plan carries from one window to the next: every window
is grounded and solved from scratch by a fresh
:class:`~repro.asp.control.Control`.  Each scenario drives a sequence of
windows over one program -- facts that come and go, constraints and rules
that appear for one window, including the slides that trip naive
incremental maintenance (a retracted fact whose absence enables a rule, a
positive cycle losing its support) -- and every window must answer exactly
what the oracle of ``test_stable_models.py`` computes from the definition.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import Grounder, RulePlan, ground_program
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streamrule.reasoner import Reasoner
from tests.asp.test_stable_models import stable_models as oracle_models
from tests.conftest import make_atom


def split_window(rules_text, window_text):
    """The window's rule set and its facts, as a stream reasoner sees them."""
    parsed = parse_program(rules_text + "\n" + window_text)
    facts = [rule.head[0] for rule in parsed.rules if rule.is_fact]
    return Program([rule for rule in parsed.rules if not rule.is_fact]), facts


def control_answers(program, facts, limit=None):
    """The answer sets a fresh control finds for one window."""
    control = Control(program)
    control.add_facts(facts)
    return [frozenset(model.atoms) for model in control.solve(models=limit).models]


def assert_window_sequence_matches(rules_text, windows, limit=None):
    """Solve the windows one after another; compare each with the oracle.

    Without a limit the model sets must be identical.  With a limit, *which*
    models a truncated enumeration returns depends on search order, so only
    the count and membership in the full model set are guaranteed.
    Returns the oracle's model count per window.
    """
    counts = []
    for window_text in windows:
        program, facts = split_window(rules_text, window_text)
        expected = oracle_models(program, facts)
        assert expected is not None
        found = control_answers(program, facts, limit)
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

    def test_repeated_window_is_grounded_again_with_the_same_answers(self):
        rules = "q(X) :- p(X), not r(X). r(X) :- p(X), not q(X)."
        program, facts = split_window(rules, "p(1). p(2).")
        controls = [Control(program) for _ in range(2)]
        for control in controls:
            control.add_facts(facts)
        grounds = [control.ground() for control in controls]
        assert grounds[0] == grounds[1] and grounds[0] is not grounds[1]
        answers = [{frozenset(model.atoms) for model in control.solve().models} for control in controls]
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


# --------------------------------------------------------------------------- #
# Slides that trip naive incremental maintenance
# --------------------------------------------------------------------------- #
MIXED_RULES = """
reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
blocked(X) :- node(X), not open(X).
pick(X) :- cand(X), not drop(X).
drop(X) :- cand(X), not pick(X).
:- pick(X), bad(X).
"""

#: name -> (rules, the fact sets of consecutive windows over one program).
SLIDES = {
    # h is blocked while f is a fact; retracting f enables it, asserting it again blocks it.
    "negative-literal": ("h(X) :- b(X), not f(X).", [[("b", 1), ("f", 1)], [("b", 1)], [("b", 1), ("f", 1)]]),
    # The a<->b cycle survives losing f through g's support, then dies with g.
    "cyclic-support": ("a :- b.\nb :- a.\na :- f.\nb :- g.", [[("f",), ("g",)], [("g",)], []]),
    "constraint-toggles": (
        "good(X) :- item(X).\n:- item(X), poison(X).",
        [[("item", 1), ("item", 2)], [("item", 1), ("item", 2), ("poison", 1)], [("item", 1), ("item", 2)]],
    ),
    "empty-and-back": ("h(X) :- b(X).", [[("b", 1)], [], [("b", 2)], [("b", 2)]]),
}


@pytest.mark.parametrize("name", sorted(SLIDES))
def test_every_slide_window_matches_the_oracle(name):
    text, windows = SLIDES[name]
    program = parse_program(text)
    for window in windows:
        facts = [make_atom(*fact) for fact in window]
        answers = control_answers(program, facts)
        assert set(answers) == oracle_models(program, facts)
        assert len(answers) == len(set(answers))


@pytest.mark.parametrize("name", sorted(SLIDES))
def test_every_slide_window_through_the_reasoner_matches_the_oracle(name):
    """The same slides through ``Reasoner.reason``, the reference ``R``: one
    reasoner, one program, every window projected onto the derived predicates."""
    text, windows = SLIDES[name]
    program = parse_program(text)
    reasoner = Reasoner(program)
    derived = set(program.idb_predicates())
    for window in windows:
        facts = [make_atom(*fact) for fact in window]
        models = oracle_models(program, facts)
        expected = {frozenset(atom for atom in model if atom.predicate in derived) for model in models}
        result = reasoner.reason(facts)
        assert set(result.answers) == expected
        assert result.metrics.cache_hits == 0


class TestSlidesAgainstTheOracle:
    """Consecutive windows over one program answer what the oracle computes."""

    def test_negative_literal_resurrection(self):
        # h is blocked while f is a fact; retracting f must enable it.
        program = parse_program("h(X) :- b(X), not f(X).")
        blocked = [make_atom("b", 1), make_atom("f", 1)]
        assert set(control_answers(program, blocked)) == oracle_models(program, blocked)
        [answer] = control_answers(program, [make_atom("b", 1)])
        assert {str(atom) for atom in answer} == {"b(1)", "h(1)"}
        assert {answer} == oracle_models(program, [make_atom("b", 1)])

    def test_constraint_appears_and_disappears(self):
        program = parse_program("good(X) :- item(X).\n:- item(X), poison(X).")
        items = [make_atom("item", 1), make_atom("item", 2)]
        poisoned = items + [make_atom("poison", 1)]
        assert len(control_answers(program, items)) == 1
        assert control_answers(program, poisoned) == [] and oracle_models(program, poisoned) == set()
        assert set(control_answers(program, items)) == oracle_models(program, items)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=12), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_randomized_slides_match_the_oracle(self, sizes, rng):
        program = parse_program(MIXED_RULES)
        universe = (
            [make_atom("edge", i, j) for i in range(4) for j in range(4)]
            + [make_atom(p, i) for p in ("node", "open", "cand", "bad") for i in range(4)]
        )
        for size in sizes:
            facts = rng.sample(universe, min(size, len(universe)))
            expected = oracle_models(program, facts)
            assert expected is not None
            assert set(control_answers(program, facts)) == expected


# --------------------------------------------------------------------------- #
# Facts travel next to the program, never inside it
# --------------------------------------------------------------------------- #
OWN_FACT_RULES = """
mode(peak).
busy(X) :- load(X, Y), Y > 5.
alert(X) :- busy(X), mode(peak), not muted(X).
busy(X) :- alert(Y), near(Y, X).
"""


class TestFactsBesideTheProgram:
    def test_program_facts_join_every_window(self):
        """The program's own ``mode(peak).`` must survive every slide, and an atom
        that is both derived (``busy(2)`` via ``near``) and pushed as a window
        fact must neither die with its derivation nor outlive its fact."""
        program = parse_program(OWN_FACT_RULES)
        windows = [
            [make_atom("load", 1, 9), make_atom("near", 1, 2)],
            [make_atom("load", 1, 9), make_atom("near", 1, 2), make_atom("busy", 2)],  # derived *and* a fact
            [make_atom("near", 1, 2), make_atom("busy", 2)],  # derivation gone, fact stays
            [make_atom("load", 1, 9), make_atom("near", 1, 2)],  # fact gone, derivation back
            [make_atom("load", 1, 9), make_atom("muted", 1), make_atom("busy", 2)],
            [make_atom("load", 3, 7)],
            [make_atom("load", 3, 7)],  # unchanged
        ]
        for window in windows:
            answers = control_answers(program, window)
            assert set(answers) == oracle_models(program, window)
            assert all(make_atom("mode", "peak") in answer for answer in answers)
        assert len(program) == 4  # the shared program never absorbed a window's facts

    def test_facts_given_beside_or_inside_the_program_are_the_same_window(self):
        program = parse_program(OWN_FACT_RULES)
        facts = [make_atom("load", 1, 9), make_atom("near", 1, 2)]
        beside = Grounder(program, facts).ground()
        inside = Grounder(program.with_facts(facts)).ground()
        assert beside == inside
        assert make_atom("mode", "peak") in beside.facts

    @given(st.lists(st.sampled_from(["edge", "node", "open", "cand"]), min_size=1, max_size=8), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_fact_order_and_duplicates_do_not_change_the_window(self, predicates, rng):
        program = parse_program(MIXED_RULES)
        facts = [make_atom(p, i, i + 1) if p == "edge" else make_atom(p, i) for i, p in enumerate(predicates)]
        shuffled = rng.sample(facts, len(facts)) + facts[:1]
        one, other = Grounder(program, facts).ground(), Grounder(program, shuffled).ground()
        assert (one.facts, one.possible_atoms, set(one.rules)) == (other.facts, other.possible_atoms, set(other.rules))
        assert set(control_answers(program, facts)) == set(control_answers(program, shuffled))

    def test_rule_analysis_is_shared_until_the_rules_change(self):
        program = parse_program(OWN_FACT_RULES)
        plan = program.derived(RulePlan)
        Grounder(program, [make_atom("load", 1, 9)]).ground()
        control_answers(program, [make_atom("load", 2, 9)])
        assert program.derived(RulePlan) is plan
        program.add_rule(parse_program("quiet(X) :- muted(X).").rules[0])
        assert program.derived(RulePlan) is not plan

    def test_control_adds_rules_to_a_private_copy(self):
        program = parse_program(OWN_FACT_RULES)
        control = Control(program)
        control.add("quiet(X) :- muted(X).")
        control.add_facts([make_atom("muted", 4)])
        assert len(program) == 4
        assert len(control.program) == 6  # the view: rules + added rule + added fact
        [answer] = {frozenset(model.atoms) for model in control.solve().models}
        assert make_atom("quiet", 4) in answer


# --------------------------------------------------------------------------- #
# Grounding the same window again
# --------------------------------------------------------------------------- #
RULES = """\
reach(X) :- edge(X).
reach(Y) :- reach(X), link(X, Y).
blocked(X) :- reach(X), not open(X).
"""

edge_atoms = st.builds(make_atom, st.just("edge"), st.integers(min_value=0, max_value=5))
link_atoms = st.builds(
    make_atom, st.just("link"), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
open_atoms = st.builds(make_atom, st.just("open"), st.integers(min_value=0, max_value=5))
fact_lists = st.lists(st.one_of(edge_atoms, link_atoms, open_atoms), max_size=10)


class TestGroundingAgain:
    """Nothing from one grounding reaches the next: a window grounded again is
    grounded from scratch, equal to the first program and sharing no container."""

    @given(fact_lists)
    @settings(max_examples=60, deadline=None)
    def test_grounding_a_window_twice_gives_equal_unaliased_programs(self, facts):
        program = parse_program(RULES)
        first, second = Grounder(program, facts).ground(), Grounder(program, facts).ground()
        assert first == second
        assert first.facts is not second.facts and first.rules is not second.rules
        assert first.possible_atoms is not second.possible_atoms
        assert set(control_answers(program, facts)) == oracle_models(program, facts)

    @given(fact_lists)
    @settings(max_examples=60, deadline=None)
    def test_mutating_a_returned_ground_program_does_not_leak_into_the_next_window(self, facts):
        program = parse_program(RULES)
        expected = Grounder(parse_program(RULES), facts).ground()
        first = Grounder(program, facts).ground()
        first.facts.add(make_atom("edge", 999))
        first.possible_atoms.clear()
        first.rules.clear()
        assert Grounder(program, facts).ground() == expected

    @given(fact_lists, fact_lists)
    @settings(max_examples=60, deadline=None)
    def test_mutating_the_callers_fact_list_after_add_facts_changes_nothing(self, facts, other_facts):
        program = parse_program(RULES)
        window = list(facts)
        control = Control(program)
        control.add_facts(window)
        window.clear()
        window.extend(other_facts)  # the caller reuses its list for the next window
        assert control.ground() == Grounder(program, facts).ground()

    def test_separately_parsed_programs_ground_alike(self):
        facts = [make_atom("edge", 1), make_atom("link", 1, 2)]
        one, other = parse_program(RULES), parse_program(RULES)
        assert one.derived(RulePlan) is not other.derived(RulePlan)
        assert Grounder(one, facts).ground() == Grounder(other, facts).ground()

    def test_threads_grounding_alternating_windows_of_one_program(self):
        """Threads sharing one program (one compiled plan) and alternating two
        windows each get the program of their own window."""
        program = parse_program("h(X) :- b(X), not blocked(X).\nblocked(X) :- c(X).")
        windows = [[make_atom("b", value) for value in values] for values in ((1, 2, 3), (2, 3, 4))]
        expected = [Grounder(program, window).ground() for window in windows]

        def ground(call):
            return Grounder(program, windows[call % 2]).ground() == expected[call % 2]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(ground, call) for call in range(400)]
                assert all(future.result(timeout=60) for future in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_a_repeated_window_through_the_reasoner_answers_the_same(self, motivating_window):
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        first, second = reasoner.reason(motivating_window), reasoner.reason(motivating_window)
        assert first.answers == second.answers and any(first.answers)
        assert first.metrics.cache_hits == second.metrics.cache_hits == 0
