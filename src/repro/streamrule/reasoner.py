"""The reasoner ``R``: data format processor + ASP solver.

"We use ... reasoner R to refer to the subprocess in StreamRule which
includes the solver and the data format processor" (Section I).  One call to
:meth:`Reasoner.reason` therefore measures, for one input window:

1. translating the filtered RDF triples into ASP facts (transformation),
2. grounding the program together with the window's facts,
3. enumerating the answer sets,
4. projecting the answers onto the program's derived (output) predicates --
   the knowledge StreamRule streams back out as "solutions".

A reasoner may carry a :class:`~repro.asp.grounding.grounder.GroundingCache`
so recurring window content skips the instantiation phase entirely
(window-to-window grounding reuse); the per-window hit/miss outcome is
recorded in the returned metrics.

Every execution backend evaluates a
:class:`~repro.streamrule.work.WorkItem` through :meth:`Reasoner.reason_item`;
the worker-process backends rebuild the reasoner once per worker from its
text spec (:mod:`repro.streamrule.codec`) and call it there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.asp.control import Control
from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.program import Program
from repro.streaming.format import DataFormatProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import WindowDelta
from repro.streamrule.metrics import LatencyBreakdown, ReasonerMetrics, Timer
from repro.streamrule.work import WorkItem

__all__ = ["Reasoner", "ReasonerResult"]

AnswerSet = FrozenSet[Atom]
WindowInput = Sequence[Union[Triple, Atom]]


@dataclass(frozen=True)
class ReasonerResult:
    """Answer sets of one window plus the evaluation record."""

    answers: Tuple[AnswerSet, ...]
    metrics: ReasonerMetrics

    @property
    def satisfiable(self) -> bool:
        return bool(self.answers)

    def atoms_of(self, predicate: str) -> Set[Atom]:
        """Union of the atoms of ``predicate`` across all answers."""
        found: Set[Atom] = set()
        for answer in self.answers:
            found.update(atom for atom in answer if atom.predicate == predicate)
        return found


class Reasoner:
    """The non-monotonic reasoner ``R`` of StreamRule."""

    def __init__(
        self,
        program: Program,
        input_predicates: Optional[Iterable[str]] = None,
        output_predicates: Optional[Iterable[str]] = None,
        format_processor: Optional[DataFormatProcessor] = None,
        max_models: Optional[int] = None,
        grounding_cache: Optional[GroundingCache] = None,
        solver_cache: Optional[SolverCache] = None,
    ):
        """Create a reasoner for ``program``.

        Parameters
        ----------
        program:
            The logic program ``P`` in ASP syntax.
        input_predicates:
            ``inpre(P)``.  Defaults to the EDB predicates of the program.
        output_predicates:
            Predicates reported in the answers.  Defaults to the program's
            IDB (derived) predicates, i.e. the new knowledge inferred from
            the window, which is what StreamRule streams out as solutions.
        format_processor:
            RDF <-> ASP translator; a default instance is created if omitted.
        max_models:
            Optional cap on the number of answer sets enumerated per window
            (``None`` enumerates all of them, clingo's ``--models=0``).
        grounding_cache:
            Optional window-to-window grounding memo; recurring window
            content (same fact set) then skips regrounding.  The cache is
            thread-safe, so one instance may be shared by concurrent
            threads; worker processes each hold their own.
        solver_cache:
            Optional window-to-window solver state (the solving-layer
            counterpart of ``grounding_cache``): sliding windows then repair
            the track's persistent solver state -- cached well-founded
            strata and a selector-guarded completion encoding -- and
            re-solve under assumptions instead of solving from scratch.
            Thread-safe with per-track locks; worker processes each warm
            their own.
        """
        self.program = program
        self.input_predicates: Set[str] = (
            set(input_predicates) if input_predicates is not None else set(program.edb_predicates())
        )
        self.output_predicates: Set[str] = (
            set(output_predicates) if output_predicates is not None else set(program.idb_predicates())
        )
        self.format_processor = format_processor or DataFormatProcessor()
        self.max_models = max_models
        self.grounding_cache = grounding_cache
        self.solver_cache = solver_cache

    # ------------------------------------------------------------------ #
    def to_atoms(self, window: WindowInput) -> List[Atom]:
        """Translate a window of triples (or ready-made atoms) into ASP facts.

        A :class:`~repro.streamrule.session.StreamSession` converts every
        item once, when it is pushed, so the work items it dispatches carry
        atoms and this is an identity pass for them; triples are still
        converted here for direct :meth:`reason` callers and for work items
        from coordinators that ship triples.
        """
        return self.format_processor.to_atoms(window)

    def reason_item(self, item: WorkItem) -> ReasonerResult:
        """Evaluate one :class:`~repro.streamrule.work.WorkItem`.

        This is the core evaluation path every execution backend dispatches
        to.  The item's ``incremental`` flag selects the grounding
        route: when a grounding cache is attached and the flag is set,
        the window goes through the item's track -- free
        when its fact set equals the track's last one, a reground otherwise
        (see :meth:`GroundingCache.ground_incremental`) -- and a solver
        cache re-solves on the track's persistent state.  An item that
        carries nothing over (tumbling/hopping windows, the first window of
        a stream) takes the plain path, the LRU memo of whole ground
        programs.  Without a cache the flag is inert.
        """
        with Timer() as transformation_timer:
            facts = self.to_atoms(item.facts)

        control = Control(
            self.program,
            grounding_cache=self.grounding_cache,
            solver_cache=self.solver_cache,
            work=item,
        )
        control.add_facts(facts)
        result = control.solve(models=self.max_models)

        answers = tuple(
            frozenset(model.project(self.output_predicates).atoms) if self.output_predicates else frozenset(model.atoms)
            for model in result.models
        )
        breakdown = LatencyBreakdown(
            transformation_seconds=transformation_timer.seconds,
            grounding_seconds=result.grounding_seconds,
            solving_seconds=result.solving_seconds,
        )
        outcome = control.ground_outcome
        solve_stats = control.solve_stats
        metrics = ReasonerMetrics(
            window_size=len(item.facts),
            latency_seconds=breakdown.total_seconds,
            breakdown=breakdown,
            partition_sizes=[len(item.facts)],
            answer_count=len(answers),
            cache_hits=1 if outcome == "hit" else 0,
            cache_misses=1 if outcome == "full" else 0,
            assumption_resolves=1 if solve_stats is not None and solve_stats.is_incremental else 0,
            solver_full_solves=1 if solve_stats is not None and not solve_stats.is_incremental else 0,
            encoding_repairs=solve_stats.encoding_repairs if solve_stats is not None else 0,
            solver_clauses_retained=solve_stats.clauses_retained if solve_stats is not None else 0,
            solver_clauses_dropped=solve_stats.clauses_dropped if solve_stats is not None else 0,
            solver_strata_reused=solve_stats.strata_reused if solve_stats is not None else 0,
        )
        return ReasonerResult(answers=answers, metrics=metrics)

    def reason(self, window: WindowInput, *, delta: Optional[WindowDelta] = None) -> ReasonerResult:
        """Evaluate one input window as a single work item on track 0.

        The unpartitioned reference ``R``: the whole window, one reasoner
        call.  ``delta`` is the window's slide record; when the window
        continues its predecessor, it takes the per-track path (with a
        grounding cache attached).
        """
        return self.reason_item(WorkItem(facts=tuple(window), incremental=delta is not None and delta.carries_over))

