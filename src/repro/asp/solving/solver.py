"""Stable-model computation for ground programs.

The solver layers three techniques, mirroring the architecture of modern ASP
systems (and of Clingo, which the paper uses):

1. **Rule-free and well-founded fast paths** -- a ground program without
   rules has its facts as its only stable model: the grounder settles
   stratified, disjunction-free programs (the traffic programs of the
   paper) down to facts, so those windows stop here.  Otherwise, for normal
   (non-disjunctive) programs the well-founded model is computed first.
   When it is total, it *is* the unique stable-model candidate and only
   the integrity constraints remain to be checked.
2. **Completion + DPLL search over the residual, with unfounded-set
   checking** -- for normal programs with cycles through negation, the
   program is first reduced by its well-founded model
   (:func:`~repro.asp.solving.wellfounded.residual_program`): decided atoms
   leave it, so the search covers the undefined atoms only.  Classical
   models of the residual's Clark completion are enumerated and filtered by
   the unfounded-set (loop) check, and each survivor joined with the
   well-founded-true atoms is a stable model.
3. **Guess-and-check minimality** -- for disjunctive programs, classical
   models are checked for minimality of the reduct (the canonical
   Sigma^p_2-complete test), implemented with a secondary SAT query.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set

from repro.asp.grounding.grounder import GroundProgram
from repro.asp.solving.completion import build_completion
from repro.asp.solving.sat import DPLLSolver, Satisfiability
from repro.asp.solving.unfounded import greatest_unfounded_set
from repro.asp.solving.wellfounded import residual_program, well_founded_model
from repro.asp.syntax.atoms import Atom

__all__ = [
    "StableModelSolver",
    "constraints_satisfied",
    "stable_models",
]


def constraints_satisfied(constraints, model: Set[Atom]) -> bool:
    """True when ``model`` violates none of the integrity constraints."""
    for rule in constraints:
        if all(atom in model for atom in rule.positive_body) and not any(
            atom in model for atom in rule.negative_body
        ):
            return False
    return True


class StableModelSolver:
    """Enumerates the stable models (answer sets) of a ground program."""

    def __init__(self, ground: GroundProgram):
        self.ground = ground
        self._constraints = [rule for rule in ground.rules if rule.is_constraint]
        self._has_disjunction = any(rule.is_disjunctive for rule in ground.rules)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def models(self, limit: Optional[int] = None) -> Iterator[Set[Atom]]:
        """Yield stable models as sets of true atoms."""
        if limit is not None and limit <= 0:
            return
        if self._has_disjunction:
            yield from self._disjunctive_models(limit)
            return
        yield from self._normal_models(limit)

    def first_model(self) -> Optional[Set[Atom]]:
        """Return one stable model, or ``None`` when the program is inconsistent."""
        for model in self.models(limit=1):
            return model
        return None

    # ------------------------------------------------------------------ #
    # Normal programs
    # ------------------------------------------------------------------ #
    def _normal_models(self, limit: Optional[int]) -> Iterator[Set[Atom]]:
        if not self.ground.rules:
            # Grounding decided every atom: the facts are the only model.
            yield set(self.ground.facts)
            return
        wf_model = well_founded_model(self.ground)
        if wf_model.is_total:
            candidate = set(wf_model.true) | set(self.ground.facts)
            if self._constraints_satisfied(candidate):
                yield candidate
            return
        # Residual search: completion models of the program reduced by its
        # well-founded model, filtered by the unfounded check.
        residual = residual_program(self.ground.rules, wf_model.true, wf_model.undefined)
        if residual is None:
            return
        constraints = [rule for rule in residual.rules if rule.is_constraint]
        encoding = build_completion(residual)
        produced = 0
        while limit is None or produced < limit:
            status, assignment = encoding.solver.solve()
            if status is Satisfiability.UNSATISFIABLE or assignment is None:
                return
            candidate = encoding.atoms_of_model(assignment)
            encoding.block_model(candidate)
            if not constraints_satisfied(constraints, candidate):
                continue
            if greatest_unfounded_set(residual, candidate):
                continue
            produced += 1
            yield candidate | wf_model.true

    # ------------------------------------------------------------------ #
    # Disjunctive programs
    # ------------------------------------------------------------------ #
    def _disjunctive_models(self, limit: Optional[int]) -> Iterator[Set[Atom]]:
        encoding = build_completion(self.ground)
        produced = 0
        while limit is None or produced < limit:
            status, assignment = encoding.solver.solve()
            if status is Satisfiability.UNSATISFIABLE or assignment is None:
                return
            candidate = encoding.atoms_of_model(assignment)
            encoding.block_model(candidate)
            if not self._constraints_satisfied(candidate):
                continue
            if not self._is_minimal_model_of_reduct(candidate):
                continue
            if greatest_unfounded_set(self.ground, candidate):
                continue
            produced += 1
            yield candidate

    def _is_minimal_model_of_reduct(self, candidate: Set[Atom]) -> bool:
        """Check that no proper subset of ``candidate`` satisfies the reduct."""
        atoms = sorted(candidate, key=str)
        if not atoms:
            return True
        index_of: Dict[Atom, int] = {atom: index + 1 for index, atom in enumerate(atoms)}
        checker = DPLLSolver(variable_count=len(atoms))

        # Facts must stay true.
        for atom in self.ground.facts:
            if atom in index_of:
                checker.add_clause([index_of[atom]])

        for rule in self.ground.rules:
            if rule.is_constraint:
                continue
            if any(atom in candidate for atom in rule.negative_body):
                continue  # rule removed by the reduct
            if any(atom not in candidate for atom in rule.positive_body):
                continue  # body can never hold within subsets of the candidate
            clause = [-index_of[atom] for atom in rule.positive_body]
            clause += [index_of[atom] for atom in rule.head if atom in candidate]
            checker.add_clause(clause)

        # Require a *proper* subset: at least one candidate atom is false.
        checker.add_clause([-index_of[atom] for atom in atoms])

        status, _ = checker.solve()
        return status is Satisfiability.UNSATISFIABLE

    # ------------------------------------------------------------------ #
    # Constraints
    # ------------------------------------------------------------------ #
    def _constraints_satisfied(self, model: Set[Atom]) -> bool:
        return constraints_satisfied(self._constraints, model)


def stable_models(ground: GroundProgram, limit: Optional[int] = None) -> List[Set[Atom]]:
    """Compute (up to ``limit``) stable models of a ground program."""
    return list(StableModelSolver(ground).models(limit=limit))
