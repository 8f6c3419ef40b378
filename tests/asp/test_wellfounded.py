"""Unit tests for the well-founded semantics."""

import pytest

from repro.asp.grounding.grounder import GroundProgram, GroundRule, ground_program
from repro.asp.solving.completion import build_completion
from repro.asp.solving.solver import stable_models
from repro.asp.solving.unfounded import greatest_unfounded_set
from repro.asp.solving.wellfounded import residual_program, well_founded_model
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Constant


def wf(text):
    return well_founded_model(ground_program(parse_program(text)))


def atom(predicate, *arguments):
    return Atom(predicate, tuple(Constant(argument) for argument in arguments))


class TestWellFoundedModel:
    def test_facts_are_true(self):
        model = wf("p(1). q(X) :- p(X).")
        assert atom("p", 1) in model.true
        assert atom("q", 1) in model.true
        assert model.is_total

    def test_stratified_negation_is_total(self):
        model = wf("p(1). q(X) :- p(X), not r(X).")
        assert atom("q", 1) in model.true
        assert model.is_total

    def test_blocked_rule_atom_is_pruned(self):
        # r(1) is certainly true, so the grounder never even registers q(1).
        model = wf("p(1). r(1). q(X) :- p(X), not r(X).")
        assert atom("q", 1) not in model.true
        assert atom("q", 1) not in model.undefined
        assert model.is_total

    def test_blocked_by_non_certain_atom_is_false(self):
        # r and s share a component through negation, so r(1) is derivable
        # but not certain while grounding: q(1) survives grounding and the
        # well-founded model classifies it as false.
        model = wf("p(1). r(X) :- p(X), not s(X). s(X) :- r(X), not p(X). q(X) :- p(X), not r(X).")
        assert atom("r", 1) in model.true
        assert atom("q", 1) in model.false
        assert model.is_total

    def test_blocked_by_a_decided_atom_is_never_grounded(self):
        # A stratified program: r(1) is decided true while grounding, so
        # q(1)'s only instance is blocked and q(1) is not even possible.
        model = wf("p(1). r(X) :- p(X), not s(X). q(X) :- p(X), not r(X).")
        assert atom("r", 1) in model.true
        assert atom("q", 1) not in model.true | model.undefined
        assert model.is_total

    def test_even_loop_is_undefined(self):
        model = wf("a :- not b. b :- not a.")
        assert atom("a") in model.undefined
        assert atom("b") in model.undefined
        assert not model.is_total

    def test_odd_loop_is_undefined(self):
        model = wf("a :- not a.")
        assert atom("a") in model.undefined

    def test_positive_loop_atoms_are_never_true(self):
        model = wf("c. d. a :- b. b :- a. b :- c, not d.")
        assert atom("a") not in model.true
        assert atom("b") not in model.true
        assert model.is_total

    def test_unreachable_positive_loop_is_pruned_before_solving(self):
        model = wf("a :- b. b :- a.")
        assert model.is_total
        assert atom("a") not in model.true
        assert atom("a") not in model.undefined

    def test_relevant_subprogram_decides_undefined_elsewhere(self):
        # c depends on the even loop, so it is undefined; d is independent.
        model = wf("a :- not b. b :- not a. c :- a. d.")
        assert atom("c") in model.undefined
        assert atom("d") in model.true

    def test_traffic_program_window_is_total(self, program_p, motivating_window):
        ground = ground_program(program_p.with_facts(motivating_window))
        model = well_founded_model(ground)
        assert model.is_total
        assert atom("car_fire", "dangan") in model.true
        assert atom("give_notification", "dangan") in model.true
        assert atom("traffic_jam", "newcastle") not in model.true

    def test_disjunctive_rule_rejected(self):
        ground = ground_program(parse_program("a | b."))
        with pytest.raises(ValueError):
            well_founded_model(ground)

    def test_partition_sets_are_disjoint_and_cover_universe(self):
        model = wf("p(1). q(X) :- p(X), not r(X). r(X) :- p(X), not q(X). s :- q(1).")
        assert not (set(model.true) & set(model.false))
        assert not (set(model.true) & set(model.undefined))
        assert not (set(model.false) & set(model.undefined))


def rule(head=None, positive=(), negative=()):
    return GroundRule((head,) if head is not None else (), tuple(positive), tuple(negative))


A, B, C, X = atom("a"), atom("b"), atom("c"), atom("x")
#: The well-founded model the table reduces by: c true, a and b undefined,
#: x (like every other atom) false.
TRUE, UNDEFINED = frozenset({C}), frozenset({A, B})

RESIDUAL_TABLE = {
    "undefined_rule_is_kept": (rule(A, negative=[B]), rule(A, negative=[B])),
    "true_head_is_dropped": (rule(C, negative=[A]), None),
    "false_positive_body_is_dropped": (rule(A, positive=[X]), None),
    "true_negative_body_is_dropped": (rule(B, negative=[C]), None),
    "false_head_with_false_body_is_dropped": (rule(X, positive=[A, X]), None),
    "true_positive_literal_is_stripped": (rule(B, positive=[C, A]), rule(B, positive=[A])),
    "false_negative_literal_is_stripped": (rule(B, negative=[X, A]), rule(B, negative=[A])),
    "decided_false_constraint_is_dropped": (rule(positive=[A, X]), None),
    "constraint_keeps_its_undefined_literals": (rule(positive=[C, A], negative=[X]), rule(positive=[A])),
}


class TestResidualProgram:
    @pytest.mark.parametrize("name", sorted(RESIDUAL_TABLE))
    def test_rule_reduction(self, name):
        given, expected = RESIDUAL_TABLE[name]
        residual = residual_program([given], TRUE, UNDEFINED)
        assert residual.rules == ([] if expected is None else [expected])
        assert not residual.facts

    def test_decided_atoms_never_enter_the_completion(self):
        ground = ground_program(parse_program(
            "p(1). p(2). s. u :- s. q(X) :- p(X), s, not r(X). r(X) :- p(X), not q(X)."
        ))
        model = well_founded_model(ground)
        residual = residual_program(ground.rules, model.true, model.undefined)
        assert {str(rule) for rule in residual.rules} == {
            "q(1) :- not r(1).", "q(2) :- not r(2).", "r(1) :- not q(1).", "r(2) :- not q(2).",
        }
        assert set(build_completion(residual).atom_to_variable) == set(model.undefined)

    def test_constraint_left_with_an_empty_body_means_no_model(self):
        ground = GroundProgram(
            facts={C}, rules=[rule(A, negative=[B]), rule(B, negative=[A]), rule(positive=[C])]
        )
        assert residual_program(ground.rules, {C}, UNDEFINED) is None
        assert stable_models(ground) == []

    def test_positive_loop_behind_an_undefined_choice_is_unfounded(self):
        # {b, c, d} is a model of the residual's completion (c and d support
        # each other), but not a stable one: the loop has no external support.
        ground = ground_program(parse_program(
            "p. a :- p, not b. b :- not a. c :- a. c :- d, p. d :- c."
        ))
        model = well_founded_model(ground)
        residual = residual_program(ground.rules, model.true, model.undefined)
        assert all(atom("p") not in rule.atoms() for rule in residual.rules)
        assert greatest_unfounded_set(residual, {B, C, atom("d")}) == {C, atom("d")}
        expected = {frozenset({atom("p"), A, C, atom("d")}), frozenset({atom("p"), B})}
        assert {frozenset(found) for found in stable_models(ground)} == expected
