"""Incremental solving across window slides.

The grounder grounds every changed window from scratch; what carries over
between overlapping windows is the *solving* state.  An
:class:`IncrementalSolver` holds per-track state that survives from one
window to the next and is repaired from the content delta between the two
ground programs -- the rule/fact diff tells it *what* changed, whichever
way the grounder produced them:

* **Well-founded strata reuse** -- the ground rules are sliced into
  strongly-connected predicate components, evaluated bottom-up with the
  alternating fixpoint.  Each stratum's consequences are cached keyed on its
  rules, its facts and the truth of its input atoms; strata untouched by the
  window's diff are reused verbatim.  Crucially the fixpoint only ever
  sees the *relevant subprogram* (ground rules plus the facts their
  bodies mention), never the full window of facts -- from-scratch solving
  re-derives every fact through the fixpoint queue on every window, which
  is where its per-window cost goes.
* **Persistent completion encoding** -- when the well-founded model is not
  total, the window's program is reduced by it
  (:func:`~repro.asp.solving.wellfounded.residual_program`) and a
  selector-guarded Clark completion of that residual -- rules over
  undefined atoms only, no facts -- is kept alive inside one
  :class:`DPLLSolver`.  Every rule clause carries a selector literal; a
  solve assumes the selectors of the *current* residual rules and
  enumerates its answer sets under those assumptions, each joined with the
  window's facts and well-founded-true atoms.  Rules that leave the
  residual have their clauses removed and the affected support clauses
  rebuilt; learned unfounded-set clauses are retained across windows while
  their source rules survive the slide and dropped as soon as a new rule
  head could give the unfounded atoms fresh external support.  Blocking
  clauses are window-scoped and removed after each enumeration.

Disjunctive programs fall back to the from-scratch
:class:`StableModelSolver` (their guess-and-check minimality test keeps no
reusable state).  The contract in all cases: answer sets are identical to
from-scratch solving of the same ground program.

:class:`SolverCache` wraps one :class:`IncrementalSolver` per delta track,
mirroring how `GroundingCache` keys its per-track pairs: LRU eviction
beyond ``max_states`` and per-track locks for thread backends.  Worker
processes build their own empty cache and warm their own solver state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.asp.grounding.dependency import strongly_connected_components
from repro.asp.grounding.grounder import GroundProgram, GroundRule
from repro.asp.solving.sat import DPLLSolver, Satisfiability
from repro.asp.solving.solver import StableModelSolver, constraints_satisfied
from repro.asp.solving.unfounded import greatest_unfounded_set
from repro.asp.solving.wellfounded import alternating_fixpoint, residual_program
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.symbols import SymbolTable

__all__ = ["IncrementalSolver", "SolveStats", "SolverCache"]

#: Compact the persistent SAT clause database once this many tombstones
#: accumulate (and they outnumber the live clauses).
_COMPACTION_THRESHOLD = 256


@dataclass(frozen=True)
class SolveStats:
    """Outcome of one :meth:`IncrementalSolver.solve` call.

    ``outcome`` is ``"incremental"`` when prior track state was repaired and
    re-solved under assumptions, ``"full"`` for the first window of a track,
    and ``"fallback"`` when a disjunctive program forced from-scratch
    solving.
    """

    outcome: str
    encoding_repairs: int = 0
    clauses_retained: int = 0
    clauses_dropped: int = 0
    strata_reused: int = 0
    strata_recomputed: int = 0

    @property
    def is_incremental(self) -> bool:
        return self.outcome == "incremental"


class _Counters:
    """Mutable accumulator threaded through one solve call."""

    __slots__ = ("encoding_repairs", "clauses_retained", "clauses_dropped", "strata_reused", "strata_recomputed")

    def __init__(self) -> None:
        self.encoding_repairs = 0
        self.clauses_retained = 0
        self.clauses_dropped = 0
        self.strata_reused = 0
        self.strata_recomputed = 0


@dataclass
class _StratumResult:
    """Cached well-founded consequences of one predicate component."""

    rules: FrozenSet[GroundRule]
    facts: FrozenSet[Atom]
    inputs: FrozenSet[Tuple[Atom, bool]]
    true: Set[Atom]
    undefined: Set[Atom]


class _RuleEntry:
    __slots__ = ("selector", "body_variable", "clause_ids", "head")

    def __init__(self, selector: int, body_variable: Optional[int], clause_ids: List[int], head: Optional[Atom]):
        self.selector = selector
        self.body_variable = body_variable
        self.clause_ids = clause_ids
        self.head = head


class _Support:
    __slots__ = ("clause_id", "bodies")

    def __init__(self) -> None:
        self.clause_id: Optional[int] = None
        self.bodies: List[int] = []


class _LearnedClause:
    __slots__ = ("clause_id", "atoms", "sources")

    def __init__(self, clause_id: int, atoms: FrozenSet[Atom], sources: FrozenSet[GroundRule]):
        self.clause_id = clause_id
        self.atoms = atoms
        self.sources = sources


class _PersistentEncoding:
    """A selector-guarded Clark completion kept alive across windows.

    Each non-disjunctive rule contributes a selector ``s`` and (for
    non-empty bodies) a body variable ``b`` with ``b <-> s & body``.  The
    support ("only if") clause of an atom disjoins the body variables
    currently defining it and is rebuilt whenever that set changes.
    Assuming all active selectors true makes the encoding logically
    identical to the from-scratch completion of the synced rules.
    """

    def __init__(self) -> None:
        self.solver = DPLLSolver()
        #: Interner of the atoms this encoding has ever seen; the mapping
        #: to solver variables below keys on its dense ids, so the hot
        #: atom->variable lookups of enumeration hash each atom once for
        #: the lifetime of the encoding.
        self.symbols = SymbolTable()
        self.atom_to_variable: Dict[int, int] = {}
        self.rule_entries: Dict[GroundRule, _RuleEntry] = {}
        #: Active atoms and their support state; membership here defines
        #: which atoms participate in model extraction and blocking.
        self.supports: Dict[Atom, _Support] = {}
        self.learned: List[_LearnedClause] = []
        self._learned_keys: Set[Tuple[FrozenSet[Atom], FrozenSet[GroundRule]]] = set()
        self._atom_refs: Dict[Atom, int] = {}

    # -- atom bookkeeping ---------------------------------------------- #
    def variable_of(self, atom: Atom) -> int:
        """Solver variable of an atom already registered via _variable_of."""
        return self.atom_to_variable[self.symbols.intern(atom)]

    def _variable_of(self, atom: Atom) -> int:
        atom_id = self.symbols.intern(atom)
        variable = self.atom_to_variable.get(atom_id)
        if variable is None:
            variable = self.solver.new_variable()
            self.atom_to_variable[atom_id] = variable
        return variable

    def _retain_atoms(self, atoms: Iterable[Atom], dirty: Set[Atom]) -> None:
        for atom in atoms:
            count = self._atom_refs.get(atom, 0)
            self._atom_refs[atom] = count + 1
            if count == 0:
                self._variable_of(atom)
                self.supports[atom] = _Support()
                # A freshly active atom starts with no support: the rebuild
                # pass emits its "forced false unless supported" clause.
                dirty.add(atom)

    def _release_atoms(self, atoms: Iterable[Atom], dirty: Set[Atom], counters: _Counters) -> None:
        for atom in atoms:
            count = self._atom_refs[atom] - 1
            if count:
                self._atom_refs[atom] = count
                continue
            del self._atom_refs[atom]
            support = self.supports.pop(atom)
            if support.clause_id is not None:
                self.solver.remove_clause(support.clause_id)
                counters.clauses_dropped += 1
            dirty.discard(atom)

    # -- synchronisation ------------------------------------------------ #
    def sync(self, rules: Set[GroundRule], counters: _Counters) -> bool:
        """Repair the encoding to match the given rules.

        Returns True when anything changed.  ``rules`` must contain no
        disjunctive rule (the caller falls back before reaching here).
        """
        removed_rules = [rule for rule in self.rule_entries if rule not in rules]
        added_rules = [rule for rule in rules if rule not in self.rule_entries]
        if not (removed_rules or added_rules):
            counters.clauses_retained += len(self.learned)
            return False

        dirty: Set[Atom] = set()
        invalidating_atoms: Set[Atom] = set()

        for rule in removed_rules:
            entry = self.rule_entries.pop(rule)
            for clause_id in entry.clause_ids:
                self.solver.remove_clause(clause_id)
                counters.clauses_dropped += 1
            if entry.head is not None:
                support = self.supports[entry.head]
                support.bodies.remove(entry.body_variable)
                dirty.add(entry.head)
            self._release_atoms(set(rule.atoms()), dirty, counters)

        for rule in added_rules:
            self._retain_atoms(set(rule.atoms()), dirty)
            selector = self.solver.new_variable()
            clause_ids: List[int] = []

            def emit(literals: List[int]) -> None:
                clause_id = self.solver.add_clause(literals)
                if clause_id is not None:
                    clause_ids.append(clause_id)

            body_literals = [self._variable_of(atom) for atom in rule.positive_body]
            body_literals += [-self._variable_of(atom) for atom in rule.negative_body]

            if rule.is_constraint:
                emit([-selector] + [-literal for literal in body_literals])
                self.rule_entries[rule] = _RuleEntry(selector, None, clause_ids, None)
                continue

            head = rule.head[0]
            if not body_literals:
                # An active empty-body rule supports its head outright: the
                # selector doubles as the body variable.
                body_variable = selector
                emit([-selector, self._variable_of(head)])
            else:
                body_variable = self.solver.new_variable()
                emit([-body_variable, selector])
                for literal in body_literals:
                    emit([-body_variable, literal])
                emit([body_variable, -selector] + [-literal for literal in body_literals])
                emit([-body_variable, self._variable_of(head)])
            self.rule_entries[rule] = _RuleEntry(selector, body_variable, clause_ids, head)
            self.supports[head].bodies.append(body_variable)
            dirty.add(head)
            invalidating_atoms.add(head)

        # Learned unfounded-set clauses survive while all their source rules
        # survive and nothing could lend the unfounded atoms new external
        # support (a new rule head inside the set).
        retained: List[_LearnedClause] = []
        self._learned_keys.clear()
        for learned in self.learned:
            if learned.atoms & invalidating_atoms or any(
                source not in self.rule_entries for source in learned.sources
            ):
                self.solver.remove_clause(learned.clause_id)
                counters.clauses_dropped += 1
            else:
                retained.append(learned)
                self._learned_keys.add((learned.atoms, learned.sources))
        counters.clauses_retained += len(retained)
        self.learned = retained

        for atom in dirty:
            support = self.supports.get(atom)
            if support is None:
                continue
            if support.clause_id is not None:
                self.solver.remove_clause(support.clause_id)
                counters.clauses_dropped += 1
            support.clause_id = self.solver.add_clause([-self.variable_of(atom)] + support.bodies)

        if self.solver.removed_clause_count > _COMPACTION_THRESHOLD and (
            self.solver.removed_clause_count > self.solver.clause_count
        ):
            self._compact()
        return True

    def _compact(self) -> None:
        """Rebuild the SAT solver without tombstoned clauses or dead variables."""
        old = self.solver
        fresh = DPLLSolver()
        variable_map: Dict[int, int] = {}

        def fresh_variable(variable: int) -> int:
            mapped = variable_map.get(variable)
            if mapped is None:
                mapped = variable_map[variable] = fresh.new_variable()
            return mapped

        def remap(literals: List[int]) -> List[int]:
            return [fresh_variable(literal) if literal > 0 else -fresh_variable(-literal) for literal in literals]

        def migrate(clause_ids: List[int]) -> List[int]:
            migrated = []
            for clause_id in clause_ids:
                literals = old.clause_literals(clause_id)
                if literals is None:
                    continue
                fresh_id = fresh.add_clause(remap(literals))
                if fresh_id is not None:
                    migrated.append(fresh_id)
            return migrated

        for entry in self.rule_entries.values():
            entry.clause_ids = migrate(entry.clause_ids)
        for support in self.supports.values():
            if support.clause_id is not None:
                [support.clause_id] = migrate([support.clause_id]) or [None]
            support.bodies = [fresh_variable(body) for body in support.bodies]
        for learned in self.learned:
            [learned.clause_id] = migrate([learned.clause_id]) or [None]
        self.learned = [learned for learned in self.learned if learned.clause_id is not None]
        for entry in self.rule_entries.values():
            entry.selector = fresh_variable(entry.selector)
            if entry.body_variable is not None:
                entry.body_variable = fresh_variable(entry.body_variable)
        self.atom_to_variable = {
            atom: variable_map[variable]
            for atom, variable in self.atom_to_variable.items()
            if variable in variable_map
        }
        self.solver = fresh


class IncrementalSolver:
    """Per-track solver state repaired window-to-window.

    Stateless from the caller's perspective: :meth:`solve` takes the current
    window's ground program and returns its answer sets (identical to
    from-scratch solving) plus a :class:`SolveStats` describing how much
    prior state was reused.
    """

    def __init__(self) -> None:
        self._stratum_cache: Dict[FrozenSet[str], _StratumResult] = {}
        self._encoding: Optional[_PersistentEncoding] = None
        self._windows_solved = 0

    def solve(self, ground: GroundProgram, limit: Optional[int] = None) -> Tuple[List[Set[Atom]], SolveStats]:
        first_window = self._windows_solved == 0
        self._windows_solved += 1
        counters = _Counters()

        if any(rule.is_disjunctive for rule in ground.rules):
            # Guess-and-check minimality keeps no reusable state: fall back.
            models = [] if limit is not None and limit <= 0 else list(StableModelSolver(ground).models(limit=limit))
            return models, SolveStats(outcome="fallback")

        outcome = "full" if first_window else "incremental"
        if limit is not None and limit <= 0:
            return [], self._finish(outcome, counters)

        rules = [rule for rule in ground.rules if not rule.is_constraint]
        constraints = [rule for rule in ground.rules if rule.is_constraint]
        facts = set(ground.facts)

        true_atoms, undefined = self._well_founded(rules, facts, counters)
        decided = facts | true_atoms
        if not undefined:
            models = [decided] if constraints_satisfied(constraints, decided) else []
            return models, self._finish(outcome, counters)

        residual = residual_program(ground.rules, decided, undefined)
        if residual is None:
            return [], self._finish(outcome, counters)
        models = [decided | model for model in self._enumerate(residual, limit, counters)]
        return models, self._finish(outcome, counters)

    @staticmethod
    def _finish(outcome: str, counters: _Counters) -> SolveStats:
        return SolveStats(
            outcome=outcome,
            encoding_repairs=counters.encoding_repairs,
            clauses_retained=counters.clauses_retained,
            clauses_dropped=counters.clauses_dropped,
            strata_reused=counters.strata_reused,
            strata_recomputed=counters.strata_recomputed,
        )

    # -- well-founded evaluation over the relevant subprogram ------------ #
    def _well_founded(
        self, rules: List[GroundRule], facts: Set[Atom], counters: _Counters
    ) -> Tuple[Set[Atom], Set[Atom]]:
        """Well-founded (true, undefined) atoms of the ground rules.

        Facts outside the rules' atoms are trivially true and are
        *not* included in the returned true set; the caller unions the full
        fact set back in.  This is what keeps the incremental path off the
        O(window) fixpoint: only the relevant subprogram is evaluated.
        """
        if not rules:
            return set(), set()

        rules_by_head_predicate: Dict[str, List[GroundRule]] = {}
        adjacency: Dict[str, Set[str]] = {}
        for rule in rules:
            head_predicate = rule.head[0].predicate
            rules_by_head_predicate.setdefault(head_predicate, []).append(rule)
            adjacency.setdefault(head_predicate, set())
            for atom in rule.positive_body:
                adjacency.setdefault(atom.predicate, set()).add(head_predicate)
            for atom in rule.negative_body:
                adjacency.setdefault(atom.predicate, set()).add(head_predicate)

        facts_by_predicate: Dict[str, Set[Atom]] = {}
        for atom in facts:
            if atom.predicate in adjacency:
                facts_by_predicate.setdefault(atom.predicate, set()).add(atom)

        derived_true: Set[Atom] = set()
        undefined: Set[Atom] = set()
        # Tarjan emits sink components first; reverse for dependencies-first.
        for component in reversed(strongly_connected_components(adjacency)):
            component_rules = [
                rule for predicate in component for rule in rules_by_head_predicate.get(predicate, ())
            ]
            if not component_rules:
                continue
            component_facts: Set[Atom] = set()
            for predicate in component:
                component_facts |= facts_by_predicate.get(predicate, set())

            inputs: Dict[Atom, bool] = {}
            deferred = False
            for rule in component_rules:
                for atom in rule.positive_body:
                    if atom.predicate not in component and atom not in inputs:
                        if atom in undefined:
                            deferred = True
                            break
                        inputs[atom] = atom in facts or atom in derived_true
                for atom in rule.negative_body:
                    if atom.predicate not in component and atom not in inputs:
                        if atom in undefined:
                            deferred = True
                            break
                        inputs[atom] = atom in facts or atom in derived_true
                if deferred:
                    break
            if deferred:
                # An input is three-valued: stratum-wise evaluation no longer
                # applies cleanly, so evaluate the whole relevant subprogram
                # jointly (still never the full window of facts).
                counters.strata_recomputed += 1
                return self._joint_well_founded(rules, facts)

            key_rules = frozenset(component_rules)
            key_facts = frozenset(component_facts)
            key_inputs = frozenset(inputs.items())
            component_key = frozenset(component)
            cached = self._stratum_cache.get(component_key)
            if (
                cached is not None
                and cached.rules == key_rules
                and cached.facts == key_facts
                and cached.inputs == key_inputs
            ):
                counters.strata_reused += 1
                derived_true |= cached.true
                undefined |= cached.undefined
                continue

            counters.strata_recomputed += 1
            simplified: List[GroundRule] = []
            for rule in component_rules:
                alive = True
                positive: List[Atom] = []
                negative: List[Atom] = []
                for atom in rule.positive_body:
                    if atom.predicate in component:
                        positive.append(atom)
                    elif not inputs[atom]:
                        alive = False
                        break
                if not alive:
                    continue
                for atom in rule.negative_body:
                    if atom.predicate in component:
                        negative.append(atom)
                    elif inputs[atom]:
                        alive = False
                        break
                if not alive:
                    continue
                simplified.append(GroundRule(rule.head, tuple(positive), tuple(negative)))

            universe: Set[Atom] = set(component_facts)
            for rule in simplified:
                universe.update(rule.atoms())
            stratum_true, stratum_possible = alternating_fixpoint(simplified, component_facts, universe)
            stratum_undefined = stratum_possible - stratum_true
            self._stratum_cache[component_key] = _StratumResult(
                rules=key_rules,
                facts=key_facts,
                inputs=key_inputs,
                true=stratum_true,
                undefined=stratum_undefined,
            )
            derived_true |= stratum_true
            undefined |= stratum_undefined
        return derived_true, undefined

    @staticmethod
    def _joint_well_founded(rules: List[GroundRule], facts: Set[Atom]) -> Tuple[Set[Atom], Set[Atom]]:
        universe: Set[Atom] = set()
        for rule in rules:
            universe.update(rule.atoms())
        relevant_facts = {atom for atom in universe if atom in facts}
        true_atoms, possible = alternating_fixpoint(rules, relevant_facts, universe)
        return true_atoms, possible - true_atoms

    # -- assumption-based enumeration over the persistent encoding ------- #
    def _enumerate(self, residual: GroundProgram, limit: Optional[int], counters: _Counters) -> List[Set[Atom]]:
        """Stable models of the well-founded residual, under the persistent encoding."""
        encoding = self._encoding
        freshly_built = encoding is None
        if encoding is None:
            encoding = self._encoding = _PersistentEncoding()
        changed = encoding.sync(set(residual.rules), counters)
        if changed and not freshly_built:
            counters.encoding_repairs += 1

        assumptions = [entry.selector for entry in encoding.rule_entries.values()]
        constraints = [rule for rule in residual.rules if rule.is_constraint]
        active_atoms = list(encoding.supports)
        models: List[Set[Atom]] = []
        blocking_ids: List[int] = []
        try:
            while limit is None or len(models) < limit:
                status, assignment = encoding.solver.solve(assumptions)
                if status is Satisfiability.UNSATISFIABLE or assignment is None:
                    break
                candidate = {
                    atom for atom in active_atoms if assignment.get(encoding.variable_of(atom), False)
                }
                blocking = [
                    (-encoding.variable_of(atom) if atom in candidate else encoding.variable_of(atom))
                    for atom in active_atoms
                ]
                if blocking:
                    blocking_id = encoding.solver.add_clause(blocking)
                    if blocking_id is not None:
                        blocking_ids.append(blocking_id)
                if constraints_satisfied(constraints, candidate):
                    unfounded = greatest_unfounded_set(residual, candidate)
                    if unfounded:
                        self._learn_unfounded(encoding, unfounded)
                    else:
                        models.append(candidate)
                if not blocking:
                    break  # degenerate: nothing to block, a single model exists
        finally:
            # Blocking clauses are meaningful only for this window's
            # enumeration: retract them so the next re-solve starts clean.
            for blocking_id in blocking_ids:
                encoding.solver.remove_clause(blocking_id)
        return models

    @staticmethod
    def _learn_unfounded(encoding: _PersistentEncoding, unfounded: Set[Atom]) -> None:
        """Learn the unfounded-set clause: not all of the set without support.

        Sound for any window in which no rule head inside the set appears
        beyond the recorded sources -- `sync` drops the clause the
        moment that could happen.
        """
        sources: List[GroundRule] = []
        clause = [-encoding.variable_of(atom) for atom in unfounded]
        for rule, entry in encoding.rule_entries.items():
            if entry.head is None or entry.head not in unfounded:
                continue
            if any(atom in unfounded for atom in rule.positive_body):
                continue  # internal support does not found the set
            sources.append(rule)
            clause.append(entry.body_variable)
        key = (frozenset(unfounded), frozenset(sources))
        if key in encoding._learned_keys:
            return
        clause_id = encoding.solver.add_clause(clause)
        if clause_id is not None:
            encoding.learned.append(_LearnedClause(clause_id, key[0], key[1]))
            encoding._learned_keys.add(key)


class SolverCache:
    """Per-track incremental solver states with LRU eviction.

    The streaming layer attaches one of these next to its `GroundingCache`;
    each delta track gets an :class:`IncrementalSolver` whose state survives
    across the track's windows.  Evicting a track (beyond ``max_states``)
    just costs the next window a full solve.
    """

    def __init__(self, max_states: int = 16):
        if max_states < 1:
            raise ValueError("max_states must be at least 1")
        self.max_states = max_states
        self._states: "OrderedDict[int, IncrementalSolver]" = OrderedDict()
        self._state_locks: Dict[int, threading.Lock] = {}
        self._lock = threading.Lock()
        self._incremental_solves = 0
        self._full_solves = 0
        self._fallback_solves = 0
        self._encoding_repairs = 0
        self._clauses_retained = 0
        self._clauses_dropped = 0
        self._strata_reused = 0
        self._strata_recomputed = 0
        self._evictions = 0
        # Track -> human-readable name, attached by multiplexing owners
        # (see GroundingCache.label_track); observability only.
        self._track_labels: Dict[int, str] = {}

    def solve_incremental(
        self, ground: GroundProgram, track: int, limit: Optional[int] = None
    ) -> Tuple[List[Set[Atom]], SolveStats]:
        """Solve ``ground`` with (and updating) the state of ``track``."""
        with self._lock:
            state = self._states.get(track)
            if state is None:
                state = IncrementalSolver()
                self._states[track] = state
            self._states.move_to_end(track)
            while len(self._states) > self.max_states:
                evicted_track, _ = self._states.popitem(last=False)
                self._state_locks.pop(evicted_track, None)
                self._evictions += 1
            state_lock = self._state_locks.setdefault(track, threading.Lock())
        with state_lock:
            models, stats = state.solve(ground, limit=limit)
        with self._lock:
            if stats.outcome == "incremental":
                self._incremental_solves += 1
            elif stats.outcome == "fallback":
                self._fallback_solves += 1
            else:
                self._full_solves += 1
            self._encoding_repairs += stats.encoding_repairs
            self._clauses_retained += stats.clauses_retained
            self._clauses_dropped += stats.clauses_dropped
            self._strata_reused += stats.strata_reused
            self._strata_recomputed += stats.strata_recomputed
        return models, stats

    def label_track(self, track: int, label: str) -> None:
        """Name a solver track (observability only; solving ignores it)."""
        with self._lock:
            self._track_labels[track] = label

    def track_labels(self) -> Dict[int, str]:
        """The labels attached via :meth:`label_track` (a copy)."""
        with self._lock:
            return dict(self._track_labels)

    def statistics(self) -> Dict[str, float]:
        with self._lock:
            return {
                "incremental_solves": float(self._incremental_solves),
                "full_solves": float(self._full_solves),
                "fallback_solves": float(self._fallback_solves),
                "encoding_repairs": float(self._encoding_repairs),
                "clauses_retained": float(self._clauses_retained),
                "clauses_dropped": float(self._clauses_dropped),
                "strata_reused": float(self._strata_reused),
                "strata_recomputed": float(self._strata_recomputed),
                "solver_states": float(len(self._states)),
                "evictions": float(self._evictions),
                "labeled_tracks": float(len(self._track_labels)),
            }

    def clear(self) -> None:
        with self._lock:
            self._states.clear()
            self._state_locks.clear()
