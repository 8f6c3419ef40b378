"""Clark completion of a ground normal program.

The completion turns a ground program into a propositional formula whose
models coincide with the stable models *for tight programs* (programs
without cycles through positive literals).  For non-tight programs the
solver additionally applies unfounded-set (loop formula) checks -- see
:mod:`repro.asp.solving.unfounded`.

Encoding
--------
* every atom gets a propositional variable,
* every rule body gets an auxiliary variable ``b`` with
  ``b <-> conjunction of body literals``,
* every atom ``a`` with defining bodies ``b1..bk`` gets
  ``a <-> b1 | ... | bk`` (atoms with no defining rule are forced false),
* facts are forced true,
* constraints contribute the clause "some body literal is false".

Disjunctive rules are encoded by their classical clause
``body -> head1 | ... | headn`` (head support and minimality are then the
solver's responsibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.asp.grounding.grounder import GroundProgram
from repro.asp.solving.sat import DPLLSolver
from repro.asp.syntax.atoms import Atom

__all__ = ["CompletionEncoding", "build_completion"]


@dataclass
class CompletionEncoding:
    """Mapping between ground atoms and propositional variables plus clauses."""

    solver: DPLLSolver
    atom_to_variable: Dict[Atom, int]
    variable_to_atom: Dict[int, Atom]

    def atoms_of_model(self, model: Dict[int, bool]) -> Set[Atom]:
        """Extract the set of true atoms from a SAT assignment."""
        return {
            atom
            for atom, variable in self.atom_to_variable.items()
            if model.get(variable, False)
        }

    def block_model(self, true_atoms: Set[Atom]) -> None:
        """Add a blocking clause excluding exactly this atom assignment."""
        clause = []
        for atom, variable in self.atom_to_variable.items():
            clause.append(-variable if atom in true_atoms else variable)
        self.solver.add_clause(clause)


def build_completion(ground: GroundProgram) -> CompletionEncoding:
    """Build the Clark completion encoding of ``ground``."""
    solver = DPLLSolver()
    atom_to_variable: Dict[Atom, int] = {}
    variable_to_atom: Dict[int, Atom] = {}

    def variable_of(atom: Atom) -> int:
        existing = atom_to_variable.get(atom)
        if existing is not None:
            return existing
        fresh = solver.new_variable()
        atom_to_variable[atom] = fresh
        variable_to_atom[fresh] = atom
        return fresh

    # Register every atom that can occur anywhere.
    for atom in ground.possible_atoms:
        variable_of(atom)
    for rule in ground.rules:
        for atom in rule.atoms():
            variable_of(atom)
    for atom in ground.facts:
        variable_of(atom)

    # Facts are unconditionally true.
    for atom in ground.facts:
        solver.add_clause([variable_of(atom)])

    # Group defining rules per (non-disjunctive) head atom.
    bodies_by_head: Dict[Atom, List[int]] = {atom: [] for atom in atom_to_variable}
    for atom in ground.facts:
        # A fact supports itself; give it a trivially true body variable.
        body_variable = solver.new_variable()
        solver.add_clause([body_variable])
        bodies_by_head[atom].append(body_variable)

    for rule in ground.rules:
        if rule.is_constraint:
            clause = [-variable_of(atom) for atom in rule.positive_body]
            clause += [variable_of(atom) for atom in rule.negative_body]
            solver.add_clause(clause)
            continue

        body_literals = [variable_of(atom) for atom in rule.positive_body]
        body_literals += [-variable_of(atom) for atom in rule.negative_body]

        if not body_literals:
            body_variable: Optional[int] = None
        else:
            body_variable = solver.new_variable()
            # body_variable -> each literal
            for literal in body_literals:
                solver.add_clause([-body_variable, literal])
            # all literals -> body_variable
            solver.add_clause([body_variable] + [-literal for literal in body_literals])

        if rule.is_disjunctive:
            # Classical satisfaction only; stability handled by minimality check.
            head_clause = [variable_of(atom) for atom in rule.head]
            if body_variable is None:
                solver.add_clause(head_clause)
            else:
                solver.add_clause([-body_variable] + head_clause)
            continue

        head_atom = rule.head[0]
        if body_variable is None:
            solver.add_clause([variable_of(head_atom)])
            always_true = solver.new_variable()
            solver.add_clause([always_true])
            bodies_by_head[head_atom].append(always_true)
        else:
            solver.add_clause([-body_variable, variable_of(head_atom)])
            bodies_by_head[head_atom].append(body_variable)

    # Completion "only if" direction: an atom needs at least one true body.
    # Atoms heading disjunctive rules are exempt (their support is checked by
    # the minimality test instead).
    disjunctive_heads: Set[Atom] = set()
    for rule in ground.rules:
        if rule.is_disjunctive:
            disjunctive_heads.update(rule.head)

    for atom, body_variables in bodies_by_head.items():
        if atom in disjunctive_heads:
            continue
        clause = [-atom_to_variable[atom]] + body_variables
        solver.add_clause(clause)

    return CompletionEncoding(
        solver=solver,
        atom_to_variable=atom_to_variable,
        variable_to_atom=variable_to_atom,
    )
