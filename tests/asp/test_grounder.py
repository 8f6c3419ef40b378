"""Unit tests for the semi-naive grounder."""

import pytest

from repro.asp.errors import GroundingError, SafetyError
from repro.asp.grounding.grounder import GroundRule, ground_program
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Constant
from repro.programs.traffic import motivating_example_window, traffic_program


def atoms_of(ground, predicate):
    return {atom for atom in ground.possible_atoms if atom.predicate == predicate}


class TestBasicGrounding:
    def test_facts_become_certain(self):
        ground = ground_program(parse_program("p(1). p(2)."))
        assert len(ground.facts) == 2
        assert not ground.rules

    def test_simple_rule_instantiation(self):
        ground = ground_program(parse_program("p(1). p(2). q(X) :- p(X)."))
        assert atoms_of(ground, "q") == {Atom("q", (Constant(1),)), Atom("q", (Constant(2),))}
        # q atoms are definite consequences, so they are certain facts.
        assert Atom("q", (Constant(1),)) in ground.facts

    def test_comparison_filters_instances(self):
        ground = ground_program(parse_program("p(1). p(5). q(X) :- p(X), X < 3."))
        assert atoms_of(ground, "q") == {Atom("q", (Constant(1),))}

    def test_join_on_shared_variable(self):
        program = parse_program(
            "car_in_smoke(car1, high). car_speed(car1, 0). car_location(car1, dangan)."
            "car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X)."
        )
        ground = ground_program(program)
        assert atoms_of(ground, "car_fire") == {Atom("car_fire", (Constant("dangan"),))}

    def test_unsafe_program_rejected(self):
        with pytest.raises(SafetyError):
            ground_program(parse_program("p(X) :- q(Y)."))

    def test_non_ground_fact_rejected(self):
        # A non-ground fact is rejected: it is unsafe (head variable without a
        # positive body) and could not be finitely instantiated anyway.
        with pytest.raises((GroundingError, SafetyError)):
            ground_program(parse_program("p(X)."))

    def test_extra_facts_parameter(self):
        program = parse_program("q(X) :- p(X).")
        ground = ground_program(program, facts=[Atom("p", (Constant(7),))])
        assert Atom("q", (Constant(7),)) in ground.possible_atoms


class TestNegationAndSimplification:
    def test_negative_literal_over_underivable_atom_is_dropped(self):
        ground = ground_program(parse_program("p(1). q(X) :- p(X), not r(X)."))
        # r(1) can never be derived, so q(1) is a definite consequence.
        [rule] = [rule for rule in ground.rules if rule.head and rule.head[0].predicate == "q"] or [None]
        assert Atom("q", (Constant(1),)) in ground.possible_atoms
        if rule is not None:
            assert not rule.negative_body

    def test_negative_literal_over_certain_atom_kills_rule(self):
        ground = ground_program(parse_program("p(1). r(1). q(X) :- p(X), not r(X)."))
        assert Atom("q", (Constant(1),)) not in ground.possible_atoms

    def test_negative_literal_over_possible_atom_is_kept(self):
        program = parse_program("p(1). r(X) :- p(X), not s(X). s(X) :- p(X), not r(X).")
        ground = ground_program(program)
        kept = [rule for rule in ground.rules if rule.negative_body]
        assert kept, "choice-like rules must keep their negative bodies"

    def test_certain_positive_body_atoms_are_removed(self):
        # q and r negate each other, so neither is decided and q(1)'s rule
        # reaches the solver -- without its certain body atom p(1).
        ground = ground_program(parse_program("p(1). s(1). q(1) :- p(1), not r(1). r(1) :- s(1), not q(1)."))
        [rule] = [rule for rule in ground.rules if rule.head[0].predicate == "q"]
        assert rule.positive_body == ()
        assert rule.negative_body == (Atom("r", (Constant(1),)),)

    def test_a_stratified_program_grounds_to_facts_only(self):
        # q's negative literal names r, a lower decided stratum: r(1) is not
        # derived, so q(1) is decided true while grounding.
        ground = ground_program(parse_program("p(1). q(1) :- p(1), not r(1). r(1) :- s(1)."))
        assert ground.rules == []
        assert ground.facts == ground.possible_atoms == {Atom("p", (Constant(1),)), Atom("q", (Constant(1),))}


class TestRecursionAndConstraints:
    def test_transitive_closure(self):
        program = parse_program(
            "edge(1,2). edge(2,3). edge(3,4)."
            "path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
        )
        ground = ground_program(program)
        paths = atoms_of(ground, "path")
        assert len(paths) == 6  # all ordered pairs i<j over 1..4

    def test_cyclic_edges(self):
        program = parse_program(
            "edge(1,2). edge(2,1). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z)."
        )
        ground = ground_program(program)
        assert len(atoms_of(ground, "path")) == 4  # (1,2) (2,1) (1,1) (2,2)

    def test_constraint_instantiation_over_derived_atoms(self):
        # q and s negate each other, so q(2) is possible but not certain.
        ground = ground_program(
            parse_program("p(1). p(2). q(X) :- p(X), not s(X). s(X) :- p(X), not q(X). :- q(X), X > 1.")
        )
        constraints = [rule for rule in ground.rules if rule.is_constraint]
        assert len(constraints) == 1
        assert constraints[0].positive_body == (Atom("q", (Constant(2),)),)

    def test_constraint_over_decided_atoms_is_decided(self):
        from repro.asp.solving.solver import stable_models

        # Nothing defines s, so q is decided and q(2) is certain: the
        # constraint keeps an empty body and the program has no answer set.
        ground = ground_program(parse_program("p(1). p(2). q(X) :- p(X), not s(X). :- q(X), X > 1."))
        assert ground.rules == [GroundRule((), (), ())]
        assert stable_models(ground) == []

    def test_constraint_with_certainly_true_body_makes_program_inconsistent(self):
        from repro.asp.solving.solver import stable_models

        ground = ground_program(parse_program("p(1). p(2). :- p(X), X > 1."))
        constraints = [rule for rule in ground.rules if rule.is_constraint]
        assert len(constraints) == 1
        # The certainly-true body atom is simplified away, leaving an always
        # violated constraint -- the program has no answer set.
        assert stable_models(ground) == []

    def test_consumer_of_one_disjunct_is_instantiated_after_the_disjunctive_rule(self):
        # a and b share no component; the disjunctive rule has to run before
        # the consumer of *either* head, whichever component sorts first.
        for text in ("a(1) | b(1) :- not e(1). c :- a(X).", "a(1) | b(1) :- not e(1). c :- b(X)."):
            ground = ground_program(parse_program(text))
            assert Atom("c") in ground.possible_atoms, text

    def test_disjunctive_heads_are_possible_not_certain(self):
        ground = ground_program(parse_program("p(1). a(X) | b(X) :- p(X)."))
        assert Atom("a", (Constant(1),)) in ground.possible_atoms
        assert Atom("a", (Constant(1),)) not in ground.facts


class TestMotivatingExample:
    def test_grounding_of_motivating_window(self):
        program = traffic_program().with_facts(motivating_example_window())
        ground = ground_program(program)
        # car_fire(dangan) is a definite consequence of the window.
        assert Atom("car_fire", (Constant("dangan"),)) in ground.facts
        # traffic_jam(newcastle) can never be derived because of the traffic light.
        assert Atom("traffic_jam", (Constant("newcastle"),)) not in ground.possible_atoms

    def test_statistics(self):
        program = traffic_program().with_facts(motivating_example_window())
        stats = ground_program(program).statistics()
        assert stats["facts"] >= 6
        assert stats["possible_atoms"] >= stats["facts"]


class TestGroundRuleDataclass:
    def test_str_rendering(self):
        rule = GroundRule(
            head=(Atom("a", (Constant(1),)),),
            positive_body=(Atom("b", (Constant(1),)),),
            negative_body=(Atom("c", (Constant(1),)),),
        )
        assert str(rule) == "a(1) :- b(1), not c(1)."

    def test_flags(self):
        fact = GroundRule(head=(Atom("a"),), positive_body=(), negative_body=())
        assert fact.is_fact and not fact.is_constraint
        constraint = GroundRule(head=(), positive_body=(Atom("a"),), negative_body=())
        assert constraint.is_constraint
        disjunctive = GroundRule(head=(Atom("a"), Atom("b")), positive_body=(), negative_body=())
        assert disjunctive.is_disjunctive
