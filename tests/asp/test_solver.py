"""Unit tests for stable-model computation (the solver layer)."""


from repro.asp.grounding.grounder import ground_program
from repro.asp.solving.solver import StableModelSolver, stable_models
from repro.asp.syntax.parser import parse_program


def models_of(text, limit=None):
    ground = ground_program(parse_program(text))
    return [frozenset(str(atom) for atom in model) for model in stable_models(ground, limit=limit)]


class TestStratifiedPrograms:
    def test_facts_only(self):
        assert models_of("p(1). p(2).") == [frozenset({"p(1)", "p(2)"})]

    def test_definite_rules(self):
        assert models_of("p(1). q(X) :- p(X).") == [frozenset({"p(1)", "q(1)"})]

    def test_stratified_negation_single_model(self):
        assert models_of("p(1). p(2). r(1). q(X) :- p(X), not r(X).") == [
            frozenset({"p(1)", "p(2)", "r(1)", "q(2)"})
        ]

    def test_violated_constraint_gives_no_model(self):
        assert models_of("a. :- a.") == []

    def test_satisfied_constraint_keeps_model(self):
        assert models_of("a. :- b.") == [frozenset({"a"})]

    def test_transitive_closure(self):
        [model] = models_of("edge(1,2). edge(2,3). path(X,Y) :- edge(X,Y). path(X,Z) :- path(X,Y), edge(Y,Z).")
        assert "path(1,3)" in model


class TestNonStratifiedPrograms:
    def test_even_loop_has_two_models(self):
        assert sorted(models_of("a :- not b. b :- not a.")) == [frozenset({"a"}), frozenset({"b"})]

    def test_odd_loop_has_no_model(self):
        assert models_of("a :- not a.") == []

    def test_odd_loop_with_escape(self):
        # a :- not a is satisfiable when a has independent support.
        assert models_of("a :- not a. a :- b. b.") == [frozenset({"a", "b"})]

    def test_positive_loop_is_not_self_supporting(self):
        assert models_of("a :- b. b :- a.") == [frozenset()]

    def test_choice_like_program_has_four_models(self):
        models = models_of("p(1). p(2). q(X) :- p(X), not r(X). r(X) :- p(X), not q(X).")
        assert len(models) == 4

    def test_constraint_prunes_choice_models(self):
        models = models_of(
            "p(1). p(2). q(X) :- p(X), not r(X). r(X) :- p(X), not q(X). :- r(1)."
        )
        assert len(models) == 2
        assert all("q(1)" in model for model in models)

    def test_limit_parameter(self):
        assert len(models_of("a :- not b. b :- not a.", limit=1)) == 1

    def test_first_model_helper(self):
        ground = ground_program(parse_program("a :- not b. b :- not a."))
        assert StableModelSolver(ground).first_model() is not None
        ground_unsat = ground_program(parse_program("a :- not a."))
        assert StableModelSolver(ground_unsat).first_model() is None


class TestDisjunctivePrograms:
    def test_plain_disjunction_has_two_minimal_models(self):
        assert set(models_of("a | b.")) == {frozenset({"a"}), frozenset({"b"})}

    def test_non_minimal_model_is_rejected(self):
        # {a, b} satisfies a | b classically but is not minimal.
        models = models_of("a | b.")
        assert frozenset({"a", "b"}) not in models

    def test_disjunction_with_constraint(self):
        assert models_of("a | b. :- a.") == [frozenset({"b"})]

    def test_head_shared_with_definite_support(self):
        models = set(models_of("a | b. a :- b."))
        # {b} is not a model: rule a :- b forces a, so the minimal models are {a}.
        assert models == {frozenset({"a"})}

    def test_disjunctive_rule_with_body(self):
        models = set(models_of("c. a | b :- c."))
        assert models == {frozenset({"a", "c"}), frozenset({"b", "c"})}

    def test_ground_disjunction_over_variables(self):
        models = models_of("p(1). p(2). in(X) | out(X) :- p(X).")
        assert len(models) == 4


class TestTrafficPrograms:
    def test_motivating_example(self, program_p, motivating_window):
        ground = ground_program(program_p.with_facts(motivating_window))
        [model] = stable_models(ground)
        rendered = {str(atom) for atom in model}
        assert "car_fire(dangan)" in rendered
        assert "give_notification(dangan)" in rendered
        assert "traffic_jam(newcastle)" not in rendered
        assert "give_notification(newcastle)" not in rendered

    def test_p_prime_r7_fires_when_fire_on_crowded_segment(self, program_p_prime):
        window_text = (
            "car_number(dangan, 50). car_in_smoke(car1, high). car_speed(car1, 0). car_location(car1, dangan)."
        )
        facts = [rule.head[0] for rule in parse_program(window_text).rules]
        ground = ground_program(program_p_prime.with_facts(facts))
        [model] = stable_models(ground)
        rendered = {str(atom) for atom in model}
        assert "car_fire(dangan)" in rendered
        assert "traffic_jam(dangan)" in rendered  # via rule r7
