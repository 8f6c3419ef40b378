"""Unit tests for the DPLL SAT core."""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro.asp.solving.sat import DPLLSolver, Satisfiability


class TestBasicSolving:
    def test_single_unit_clause(self):
        solver = DPLLSolver()
        solver.add_clause([1])
        status, model = solver.solve()
        assert status is Satisfiability.SATISFIABLE
        assert model[1] is True

    def test_contradictory_units(self):
        solver = DPLLSolver()
        solver.add_clauses([[1], [-1]])
        status, _ = solver.solve()
        assert status is Satisfiability.UNSATISFIABLE

    def test_empty_clause_is_unsat(self):
        solver = DPLLSolver()
        solver.add_clause([])
        assert solver.solve()[0] is Satisfiability.UNSATISFIABLE

    def test_empty_problem_is_sat(self):
        assert DPLLSolver().solve()[0] is Satisfiability.SATISFIABLE

    def test_tautological_clause_is_ignored(self):
        solver = DPLLSolver()
        solver.add_clause([1, -1])
        assert solver.clause_count == 0
        assert solver.solve()[0] is Satisfiability.SATISFIABLE

    def test_implication_chain_propagates(self):
        solver = DPLLSolver()
        solver.add_clauses([[1], [-1, 2], [-2, 3], [-3, 4]])
        status, model = solver.solve()
        assert status is Satisfiability.SATISFIABLE
        assert all(model[variable] for variable in (1, 2, 3, 4))

    def test_requires_backtracking(self):
        # (x1 | x2) & (x1 | -x2) & (-x1 | x2) & (-x1 | -x2) is UNSAT.
        solver = DPLLSolver()
        solver.add_clauses([[1, 2], [1, -2], [-1, 2], [-1, -2]])
        assert solver.solve()[0] is Satisfiability.UNSATISFIABLE

    def test_satisfiable_3sat_instance(self):
        solver = DPLLSolver()
        solver.add_clauses([[1, 2, 3], [-1, -2, 3], [1, -2, -3], [-1, 2, -3], [1, 2, -3]])
        status, model = solver.solve()
        assert status is Satisfiability.SATISFIABLE
        # Verify the model against the clauses by hand.
        clauses = [[1, 2, 3], [-1, -2, 3], [1, -2, -3], [-1, 2, -3], [1, 2, -3]]
        for clause in clauses:
            assert any((literal > 0) == model[abs(literal)] for literal in clause)


class TestWatchBookkeeping:
    def test_unit_clause_registers_a_single_watch_entry(self):
        solver = DPLLSolver()
        index = solver.add_clause([1])
        # A unit clause watches its only literal exactly once (the old code
        # registered the same entry twice).
        assert solver._watches[1] == [index]

    def test_binary_clause_watches_both_literals(self):
        solver = DPLLSolver()
        index = solver.add_clause([1, -2])
        assert index in solver._watches[1]
        assert index in solver._watches[-2]

    def test_propagation_moves_watches_off_falsified_literals(self):
        solver = DPLLSolver()
        index = solver.add_clause([1, 2, 3])
        solver.add_clause([-1])
        solver.add_clause([-2])
        status, model = solver.solve()
        assert status is Satisfiability.SATISFIABLE
        assert model[3] is True
        # After solving, the ternary clause no longer watches two falsified
        # literals: at most one of its watch entries sits on a false literal.
        watch_literals = [
            literal for literal, indices in solver._watches.items() if index in indices
        ]
        assert len(watch_literals) == 2


def _clauses_strategy():
    literal = st.integers(min_value=1, max_value=6).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(literal, min_size=1, max_size=4)
    return st.lists(clause, min_size=0, max_size=14)


def _brute_force_models(clauses, variables=6):
    """Every assignment of variables ``1..variables`` that satisfies ``clauses``."""
    return [
        values
        for values in product((False, True), repeat=variables)
        if all(any((literal > 0) == values[abs(literal) - 1] for literal in clause) for clause in clauses)
    ]


class TestAgainstBruteForce:
    """The watch-driven search against exhaustive enumeration of 6 variables."""

    @settings(max_examples=200, deadline=None)
    @given(clauses=_clauses_strategy())
    def test_solve_agrees_with_exhaustive_search(self, clauses):
        solver = DPLLSolver()
        solver.add_clauses(clauses)
        status, model = solver.solve()
        satisfiable = bool(_brute_force_models(clauses))
        assert status is (Satisfiability.SATISFIABLE if satisfiable else Satisfiability.UNSATISFIABLE)
        if satisfiable:
            # Tautological clauses are never stored, so their variables may
            # stay unassigned: treat an absent variable as false (the
            # tautology is then satisfied through its negative literal).
            for clause in clauses:
                assert any((literal > 0) == model.get(abs(literal), False) for literal in clause)

    @settings(max_examples=100, deadline=None)
    @given(clauses=_clauses_strategy())
    def test_a_solve_leaves_the_clause_set_as_it_was(self, clauses):
        """Propagation moves watched literals inside clauses; solving again
        must see the same clause set, which :meth:`iterate_models` relies on."""
        solver = DPLLSolver()
        solver.add_clauses(clauses)
        before = sorted(sorted(clause) for clause in solver._clauses)
        status, _ = solver.solve()
        assert sorted(sorted(clause) for clause in solver._clauses) == before
        assert solver.solve()[0] is status

    @settings(max_examples=100, deadline=None)
    @given(clauses=_clauses_strategy())
    def test_enumeration_finds_every_model_once(self, clauses):
        solver = DPLLSolver(variable_count=6)
        solver.add_clauses(clauses)
        found = [
            tuple(model[variable] for variable in range(1, 7))
            for model in solver.iterate_models(relevant_variables=range(1, 7))
        ]
        assert sorted(found) == sorted(_brute_force_models(clauses))


class TestModelEnumeration:
    def test_enumerate_all_models_of_free_variables(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        models = list(solver.iterate_models(relevant_variables=[1, 2]))
        assert len(models) == 3  # all assignments except (F, F)

    def test_limit_is_respected(self):
        solver = DPLLSolver()
        solver.add_clause([1, 2])
        assert len(list(solver.iterate_models(relevant_variables=[1, 2], limit=2))) == 2

    def test_new_variable_allocates_increasing_ids(self):
        solver = DPLLSolver()
        assert solver.new_variable() == 1
        assert solver.new_variable() == 2
        assert solver.variable_count == 2
