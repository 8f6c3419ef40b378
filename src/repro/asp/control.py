"""Clingo-like facade over the grounder and solver.

The paper drives Clingo 4.3.0 as an external solver; this module offers the
same three-step workflow (``add`` rules, ``ground``, ``solve``) so the StreamRule
reimplementation can treat the engine as a drop-in component::

    control = Control()
    control.add("traffic_jam(X) :- very_slow_speed(X), many_cars(X), not traffic_light(X).")
    control.add_facts([Atom("very_slow_speed", (Constant("newcastle"),)), ...])
    control.ground()
    result = control.solve()
    for model in result.models:
        print(model.atoms)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.asp.grounding.grounder import GroundProgram, Grounder
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import Rule

__all__ = ["Control", "Model", "SolveResult", "solve", "solve_program"]


@dataclass(frozen=True)
class Model:
    """One answer set."""

    atoms: FrozenSet[Atom]

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def atoms_of(self, predicate: str) -> Set[Atom]:
        """Atoms of the model over a single predicate."""
        return {atom for atom in self.atoms if atom.predicate == predicate}

    def project(self, predicates: Iterable[str]) -> "Model":
        """Restrict the model to the given predicates."""
        wanted = set(predicates)
        return Model(frozenset(atom for atom in self.atoms if atom.predicate in wanted))

    def __str__(self) -> str:
        return " ".join(str(atom) for atom in sorted(self.atoms, key=str))


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solve call: models plus timing breakdown."""

    models: Tuple[Model, ...]
    grounding_seconds: float
    solving_seconds: float

    @property
    def satisfiable(self) -> bool:
        return bool(self.models)

    @property
    def total_seconds(self) -> float:
        return self.grounding_seconds + self.solving_seconds


class Control:
    """Incrementally assembled ASP run: add rules and facts, ground, solve.

    Rules and facts are kept apart.  The rule set is ``program`` itself --
    shared, not copied, so the per-rule-set analysis
    (:class:`~repro.asp.grounding.grounder.RulePlan`) done for one window
    serves every later control over the same program; the first ``add`` /
    ``add_rule(s)`` call switches to a private copy, so the caller's program
    is never mutated.  Facts given to :meth:`add_facts` stay a plain list of
    atoms and reach the grounder as such.  :attr:`program` is a *view* that
    merges the two on demand.

    :meth:`ground` grounds the program from scratch with
    :class:`~repro.asp.grounding.grounder.Grounder` and :meth:`solve` solves
    the result from scratch with
    :class:`~repro.asp.solving.solver.StableModelSolver`: no grounding or
    solver state survives from one control to the next.
    """

    def __init__(self, program: Optional[Program] = None):
        self._rules = program if program is not None else Program()
        self._owns_rules = program is None
        self._facts: List[Atom] = []
        self._ground_program: Optional[GroundProgram] = None
        self._grounding_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def add(self, text: str) -> None:
        """Parse and add ASP source text (rules and/or facts)."""
        self.add_rules(parse_program(text).rules)

    def add_rule(self, rule: Rule) -> None:
        self.add_rules((rule,))

    def add_rules(self, rules: Iterable[Rule]) -> None:
        if not self._owns_rules:
            self._rules = self._rules.copy()
            self._owns_rules = True
        self._rules.add_rules(rules)
        self._ground_program = None

    def add_facts(self, atoms: Iterable[Atom]) -> None:
        self._facts.extend(atoms)
        self._ground_program = None

    @property
    def program(self) -> Program:
        """The assembled program: the rule set plus the added facts (a fresh copy)."""
        return self._rules.with_facts(self._facts)

    # ------------------------------------------------------------------ #
    # Grounding and solving
    # ------------------------------------------------------------------ #
    def ground(self) -> GroundProgram:
        """Instantiate the program; idempotent until new rules or facts are added."""
        if self._ground_program is None:
            started = time.perf_counter()
            self._ground_program = Grounder(self._rules, self._facts).ground()
            self._grounding_seconds = time.perf_counter() - started
        return self._ground_program

    def solve(self, models: Optional[int] = None) -> SolveResult:
        """Ground (if needed) and enumerate up to ``models`` answer sets.

        ``models=None`` (or 0) enumerates all answer sets, matching clingo's
        ``--models=0`` convention.
        """
        limit = None if not models else models
        ground = self.ground()
        started = time.perf_counter()
        found = [Model(frozenset(model)) for model in StableModelSolver(ground).models(limit=limit)]
        solving_seconds = time.perf_counter() - started
        return SolveResult(
            models=tuple(found),
            grounding_seconds=self._grounding_seconds,
            solving_seconds=solving_seconds,
        )


def solve_program(program: Program, facts: Optional[Iterable[Atom]] = None, models: Optional[int] = None) -> SolveResult:
    """Solve a :class:`Program` (optionally extended with extra facts)."""
    control = Control(program)
    if facts is not None:
        control.add_facts(facts)
    return control.solve(models=models)


def solve(text: str, models: Optional[int] = None) -> SolveResult:
    """Parse and solve ASP source text in one call."""
    return solve_program(parse_program(text), models=models)
