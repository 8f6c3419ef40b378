"""A compact DPLL satisfiability solver.

The stable-model search only needs a propositional backend for programs that
are not solved outright by the well-founded fast path (i.e. programs with
cycles through negation or with disjunctive heads).  Those residual problems
are small in this reproduction, so a clean DPLL with watch-driven unit
propagation and chronological backtracking is sufficient and keeps the
engine dependency-free.

Variables are positive integers ``1..n``; a literal is ``+v`` or ``-v``.
Clauses are lists of literals.  The per-solve assignment is a flat
int-indexed array over the dense variable ids (slot ``v`` holds 1/-1/0),
so evaluating a literal is two array reads rather than a dict probe --
the ids are dense because the completion encoding numbers atoms and body
variables consecutively before they ever reach the solver.  Unit
propagation is driven by a two-literal watch index: each clause watches
two of its literals (one for a unit clause),
and an assignment only visits the clauses watching the falsified literal
instead of re-scanning the whole clause database.  The branching
heuristic (:meth:`_pick_branch`) still scans for an unsatisfied clause --
watching accelerates *propagation*, not decision picking.

Model enumeration is supported by adding blocking clauses between calls.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


__all__ = ["DPLLSolver", "Satisfiability"]


class Satisfiability(enum.Enum):
    """Result of a satisfiability call."""

    SATISFIABLE = "satisfiable"
    UNSATISFIABLE = "unsatisfiable"


class DPLLSolver:
    """DPLL with two-literal watches, unit propagation and model enumeration."""

    def __init__(self, variable_count: int = 0):
        self._variable_count = variable_count
        #: Clause database.
        self._clauses: List[List[int]] = []
        #: literal -> indices of clauses currently watching that literal.
        #: Positions 0 and 1 of each clause hold its watched literals (a
        #: unit clause watches its single literal once, at position 0).
        self._watches: Dict[int, List[int]] = {}
        #: Indices of unit clauses: their literals seed every solve call.
        self._unit_clauses: List[int] = []
        self._empty_clause = False

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #
    def new_variable(self) -> int:
        self._variable_count += 1
        return self._variable_count

    @property
    def variable_count(self) -> int:
        return self._variable_count

    @property
    def clause_count(self) -> int:
        return len(self._clauses)

    def add_clause(self, literals: Iterable[int]) -> Optional[int]:
        """Add a clause; duplicate literals are removed, tautologies skipped.

        Returns the clause's index in the database, or ``None`` when the
        clause was dropped as a tautology or recorded as the empty clause.
        """
        clause = sorted(set(literals), key=abs)
        if not clause:
            self._empty_clause = True
            return None
        seen: Set[int] = set(clause)
        if any(-literal in seen for literal in clause):
            return None  # tautology
        for literal in clause:
            if abs(literal) > self._variable_count:
                self._variable_count = abs(literal)
        clause_index = len(self._clauses)
        self._clauses.append(clause)
        # Watch the first two literals; a unit clause registers its single
        # literal exactly once.
        self._watches.setdefault(clause[0], []).append(clause_index)
        if len(clause) == 1:
            self._unit_clauses.append(clause_index)
        else:
            self._watches.setdefault(clause[1], []).append(clause_index)
        return clause_index

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve(self) -> Tuple[Satisfiability, Optional[Dict[int, bool]]]:
        """Search for a model; returns (status, assignment or None).

        The call leaves the clause set as it was (propagation only moves
        watched literals within a clause), so :meth:`iterate_models` can add
        a blocking clause and solve again.
        """
        if self._empty_clause:
            return Satisfiability.UNSATISFIABLE, None
        # Int-indexed assignment array over interned variable ids: slot v
        # holds 1 (true), -1 (false) or 0 (unassigned).  Propagation is the
        # hash-heaviest loop of the solver; indexing a flat array beats a
        # dict probe per literal visit.
        values: List[int] = [0] * (self._variable_count + 1)
        trail: List[Tuple[int, bool]] = []  # (literal, is_decision)
        queue: List[int] = []  # literals assigned true, pending watch visits

        def literal_value(literal: int) -> int:
            """Truth of a literal under the current assignment: 1/-1/0."""
            return values[literal] if literal > 0 else -values[-literal]

        def assign(literal: int, is_decision: bool) -> bool:
            variable = literal if literal > 0 else -literal
            current = values[variable]
            if current != 0:
                return (current > 0) == (literal > 0)
            values[variable] = 1 if literal > 0 else -1
            trail.append((literal, is_decision))
            queue.append(literal)
            return True

        def propagate() -> bool:
            """Watch-driven unit propagation from the queued assignments."""
            while queue:
                falsified = -queue.pop()
                watchers = self._watches.get(falsified)
                if not watchers:
                    continue
                kept: List[int] = []
                conflict = False
                for clause_index in watchers:
                    clause = self._clauses[clause_index]
                    if conflict:
                        kept.append(clause_index)
                        continue
                    if len(clause) == 1:
                        # A falsified unit clause is an immediate conflict.
                        kept.append(clause_index)
                        conflict = True
                        continue
                    # Normalize: the falsified watch sits at position 1.
                    if clause[0] == falsified:
                        clause[0], clause[1] = clause[1], clause[0]
                    other = clause[0]
                    other_value = literal_value(other)
                    if other_value > 0:
                        kept.append(clause_index)
                        continue
                    # Look for a replacement watch among the tail literals.
                    moved = False
                    for position in range(2, len(clause)):
                        if literal_value(clause[position]) >= 0:
                            clause[1], clause[position] = clause[position], clause[1]
                            self._watches.setdefault(clause[1], []).append(clause_index)
                            moved = True
                            break
                    if moved:
                        continue
                    # No replacement: the clause is unit on `other` (or
                    # conflicting when `other` is already false).
                    kept.append(clause_index)
                    if other_value < 0:
                        conflict = True
                        continue
                    assign(other, is_decision=False)
                if len(kept) != len(watchers):
                    if kept:
                        self._watches[falsified] = kept
                    else:
                        del self._watches[falsified]
                else:
                    self._watches[falsified] = kept
                if conflict:
                    queue.clear()
                    return False
            return True

        def backtrack() -> Optional[int]:
            """Undo up to and including the last decision; return its literal."""
            queue.clear()
            while trail:
                literal, is_decision = trail.pop()
                values[abs(literal)] = 0
                if is_decision:
                    return literal
            return None

        # Unit clauses seed the assignment (watches only fire on changes).
        for clause_index in self._unit_clauses:
            if not assign(self._clauses[clause_index][0], is_decision=False):
                return Satisfiability.UNSATISFIABLE, None

        if not propagate():
            return Satisfiability.UNSATISFIABLE, None

        while True:
            decision = self._pick_branch(values)
            if decision is None:
                # Complete assignment for all mentioned variables
                # (unassigned variables default to false).
                model = {
                    variable: values[variable] > 0
                    for variable in range(1, self._variable_count + 1)
                }
                return Satisfiability.SATISFIABLE, model
            if not assign(decision, is_decision=True) or not propagate():
                # Conflict: flip the most recent decision that has not been
                # tried both ways; exhausting the decisions means UNSAT.
                while True:
                    flipped = backtrack()
                    if flipped is None:
                        return Satisfiability.UNSATISFIABLE, None
                    if not assign(-flipped, is_decision=False):
                        continue
                    if propagate():
                        break
            # loop continues with further decisions

    def _pick_branch(self, values: List[int]) -> Optional[int]:
        """Pick the next unassigned variable appearing in an unsatisfied clause."""
        for clause in self._clauses:
            clause_satisfied = False
            candidate: Optional[int] = None
            for literal in clause:
                variable_value = values[literal if literal > 0 else -literal]
                if variable_value == 0:
                    if candidate is None:
                        candidate = literal
                elif (variable_value > 0) == (literal > 0):
                    clause_satisfied = True
                    break
            if not clause_satisfied and candidate is not None:
                return candidate
        # All clauses satisfied; any remaining free variable defaults later.
        return None

    # ------------------------------------------------------------------ #
    # Model enumeration
    # ------------------------------------------------------------------ #
    def iterate_models(
        self,
        relevant_variables: Optional[Sequence[int]] = None,
        limit: Optional[int] = None,
    ) -> Iterator[Dict[int, bool]]:
        """Enumerate models, blocking each found model on the relevant variables."""
        produced = 0
        while limit is None or produced < limit:
            status, model = self.solve()
            if status is Satisfiability.UNSATISFIABLE or model is None:
                return
            yield model
            produced += 1
            variables = relevant_variables if relevant_variables is not None else sorted(model)
            blocking = [(-variable if model.get(variable, False) else variable) for variable in variables]
            if not blocking:
                return
            self.add_clause(blocking)
