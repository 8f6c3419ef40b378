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
from typing import TYPE_CHECKING, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only import, avoids a layering cycle
    from repro.streamrule.work import WorkItem

from repro.asp.grounding.grounder import GroundProgram, Grounder, GroundingCache, RepairStats
from repro.asp.solving.incremental import SolveStats, SolverCache
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

    ``delta_track`` opts into incremental (delta-) grounding: when set
    together with a ``grounding_cache``, :meth:`ground` goes through
    :meth:`GroundingCache.ground_incremental` so an overlapping window
    repairs the track's cached instantiation instead of regrounding.

    Alternatively a typed :class:`~repro.streamrule.work.WorkItem` can be
    passed as ``work``: its track/epoch/incremental intent then drive the
    same delta path (``delta_track = work.track`` when the item wants
    incremental grounding and a cache is attached), and the item stays
    available as :attr:`work` / :attr:`epoch` for downstream bookkeeping.

    ``solver_track`` (with a ``solver_cache``) does for solving what
    ``delta_track`` does for grounding: :meth:`solve` then repairs the
    track's persistent solver state -- cached well-founded strata plus a
    selector-guarded completion encoding -- and re-solves under assumptions
    instead of solving from scratch.  The track is derived from ``work`` the
    same way as ``delta_track`` when not given explicitly.
    """

    def __init__(
        self,
        program: Optional[Program] = None,
        grounding_cache: Optional[GroundingCache] = None,
        delta_track: Optional[int] = None,
        work: Optional["WorkItem"] = None,
        solver_cache: Optional[SolverCache] = None,
        solver_track: Optional[int] = None,
    ):
        self._rules = program if program is not None else Program()
        self._owns_rules = program is None
        self._facts: List[Atom] = []
        self._grounding_cache = grounding_cache
        self._work = work
        if (
            delta_track is None
            and work is not None
            and grounding_cache is not None
            and work.wants_incremental
        ):
            delta_track = work.track
        self._delta_track = delta_track
        self._solver_cache = solver_cache
        if (
            solver_track is None
            and work is not None
            and solver_cache is not None
            and work.wants_incremental
        ):
            solver_track = work.track
        self._solver_track = solver_track
        self._ground_program: Optional[GroundProgram] = None
        self._ground_from_cache: Optional[bool] = None
        self._ground_outcome: Optional[str] = None
        self._repair_stats: Optional[RepairStats] = None
        self._solve_stats: Optional[SolveStats] = None
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
        self._invalidate_grounding()

    def add_facts(self, atoms: Iterable[Atom]) -> None:
        self._facts.extend(atoms)
        self._invalidate_grounding()

    def _invalidate_grounding(self) -> None:
        self._ground_program = None
        self._ground_from_cache = None
        self._ground_outcome = None
        self._repair_stats = None

    @property
    def program(self) -> Program:
        """The assembled program: the rule set plus the added facts (a fresh copy)."""
        return self._rules.with_facts(self._facts)

    @property
    def work(self) -> Optional["WorkItem"]:
        """The typed work item this control evaluates (``None`` for ad-hoc runs)."""
        return self._work

    @property
    def epoch(self) -> Optional[int]:
        """Window epoch of the attached work item (``None`` without one)."""
        return self._work.epoch if self._work is not None else None

    # ------------------------------------------------------------------ #
    # Grounding and solving
    # ------------------------------------------------------------------ #
    def ground(self) -> GroundProgram:
        """Instantiate the program; idempotent until new rules are added.

        When a :class:`GroundingCache` was supplied, the instantiation goes
        through it (the LRU memo, or the track's repairable state when
        ``delta_track`` is set); :attr:`ground_outcome` reports which path
        was taken.
        """
        if self._ground_program is None:
            started = time.perf_counter()
            if self._grounding_cache is not None:
                if self._delta_track is not None:
                    self._ground_program, outcome, stats = self._grounding_cache.ground_incremental(
                        self._rules, self._facts, track=self._delta_track
                    )
                    self._ground_from_cache = outcome == "hit"
                    self._ground_outcome = outcome
                    self._repair_stats = stats
                else:
                    self._ground_program, from_cache = self._grounding_cache.ground(self._rules, self._facts)
                    self._ground_from_cache = from_cache
                    self._ground_outcome = "hit" if from_cache else "full"
            else:
                self._ground_program = Grounder(self._rules, self._facts).ground()
            self._grounding_seconds = time.perf_counter() - started
        return self._ground_program

    @property
    def ground_from_cache(self) -> Optional[bool]:
        """Whether the last grounding was a cache hit (``None``: no cache or not grounded)."""
        return self._ground_from_cache

    @property
    def ground_outcome(self) -> Optional[str]:
        """How the last grounding was obtained: ``"hit"``, ``"repair"``, or
        ``"full"`` (``None``: no cache or not grounded yet)."""
        return self._ground_outcome

    @property
    def repair_stats(self) -> Optional[RepairStats]:
        """Size record of the last delta repair (``None`` unless the last
        grounding outcome was ``"repair"``)."""
        return self._repair_stats

    @property
    def solve_stats(self) -> Optional[SolveStats]:
        """Record of the last incremental solve (``None`` without a
        ``solver_cache``-backed track or before :meth:`solve`)."""
        return self._solve_stats

    def solve(self, models: Optional[int] = None) -> SolveResult:
        """Ground (if needed) and enumerate up to ``models`` answer sets.

        ``models=None`` (or 0) enumerates all answer sets, matching clingo's
        ``--models=0`` convention.
        """
        limit = None if not models else models
        ground = self.ground()
        started = time.perf_counter()
        if self._solver_cache is not None and self._solver_track is not None:
            model_sets, self._solve_stats = self._solver_cache.solve_incremental(
                ground, track=self._solver_track, limit=limit
            )
            found = [Model(frozenset(model)) for model in model_sets]
        else:
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
