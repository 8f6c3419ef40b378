"""Semi-naive grounder (instantiation phase).

The grounder turns a safe program plus input facts into a ground program
whose stable models coincide with those of the original program.  It follows
the standard intelligent-grounding recipe used by DLV and gringo:

1. build the predicate dependency graph and evaluate its strongly connected
   components bottom-up,
2. within a component, iterate semi-naively (re-evaluating recursive rules
   only against newly derived atoms),
3. instantiate rule bodies by indexed joins over the *possible atoms*
   derived so far, evaluating builtin comparisons as soon as their variables
   are bound -- the join of a rule is not interpreted but *run*: literal
   order, index keys, comparison placement and the head/body templates are
   fixed once per rule set (:mod:`repro.asp.grounding.joinplan`), one
   generated function per rule and seed position,
4. simplify ground rules: positive body atoms that are certainly true are
   removed, negative literals over atoms that can never be derived are
   removed, and rules whose body is certainly false are dropped.

Atoms derived by non-disjunctive rules whose body contains no negation and
only certain atoms are tracked as *certain facts*; for stratified programs
without disjunction (such as the paper's traffic programs ``P`` and ``P'``)
this is not the complete answer set because rules with default negation are
deliberately left to the solving phase.

For streaming workloads the same window content recurs (overlapping sliding
windows, periodic sensor readings): :class:`GroundingCache` memoizes the
SCC-stratified instantiation keyed on the program's *fact signature* so a
recurring window skips the whole instantiation.

Delta-grounding
---------------
Exact recurrence is rare under *overlapping* sliding windows: window
``W_{i+1}`` is ``W_i`` minus the expired facts plus the arrived ones, so the
signature changes on every slide even though most of the instantiation is
unchanged.  :class:`DeltaGrounding` keeps a repairable instantiation state
(unsimplified ground instances plus reverse body/head indexes) and moves it
from one fact set to the next with a delete-and-rederive (DRed) repair:
overdelete everything transitively supported by a retracted fact, rescue
atoms that keep an untouched alternative derivation, then run the
semi-naive join seeded only with the rescued and newly asserted atoms.
:meth:`GroundingCache.ground_incremental` wires the two layers together per
*track* (one track per consecutive window stream, e.g. a partition index):
a fact set equal to the track state's is a free ``"hit"``, an overlapping
one is delta-repaired, and anything else falls back to a full
instantiation.  Repairs re-simplify against a freshly computed definite
closure, so the emitted :class:`GroundProgram` always has the same answer
sets as grounding the current window from scratch.

Rules versus facts
------------------
A stream evaluates one fixed rule set against ever-changing facts, so the
two never travel together: everything derived from the rules alone -- the
safety check, the evaluation order of the strata, and every rule's compiled
join plans -- lives in a :class:`RulePlan`, built once per rule set
(:meth:`Program.derived <repro.asp.syntax.program.Program.derived>`) and
shared by :class:`Grounder`, :class:`DeltaGrounding` and
:class:`GroundingCache`, while a window's facts are passed next to the
program as a plain collection of ground atoms and enter the atom store in
bulk.  A window therefore pays for running the plans over its facts (full
evaluation when grounding from scratch, the seeded plans in semi-naive
rounds and in a repair) and for nothing that could have been known before
it arrived.  Facts written in the program itself (``mode(peak).``) belong
to the plan and join every window's fact set.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import Collection, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.asp.grounding.dependency import (
    PredicateDependencyGraph,
    strongly_connected_components,
)
from repro.asp.grounding.joinplan import RuleJoins, _AtomStore, group_by_signature
from repro.asp.grounding.safety import check_safety
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import Rule
from repro.asp.syntax.symbols import SymbolTable

__all__ = [
    "DeltaGrounding",
    "GroundProgram",
    "GroundRule",
    "Grounder",
    "GroundingCache",
    "RepairStats",
    "RulePlan",
    "ground_program",
]


def _rebuild_cache(max_entries: int, max_delta_states: int, max_repair_fraction: float) -> "GroundingCache":
    """Unpickle helper: rebuild an (empty) cache from its configuration."""
    return GroundingCache(
        max_entries,
        max_delta_states=max_delta_states,
        max_repair_fraction=max_repair_fraction,
    )


# --------------------------------------------------------------------------- #
# Ground program representation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, slots=True)
class GroundRule:
    """A variable-free rule with comparisons already evaluated away."""

    head: Tuple[Atom, ...]
    positive_body: Tuple[Atom, ...]
    negative_body: Tuple[Atom, ...]

    @property
    def is_fact(self) -> bool:
        return len(self.head) == 1 and not self.positive_body and not self.negative_body

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_disjunctive(self) -> bool:
        return len(self.head) > 1

    def atoms(self) -> Iterable[Atom]:
        yield from self.head
        yield from self.positive_body
        yield from self.negative_body

    def __str__(self) -> str:
        head_text = " | ".join(str(atom) for atom in self.head)
        body_parts = [str(atom) for atom in self.positive_body]
        body_parts += [f"not {atom}" for atom in self.negative_body]
        if not body_parts:
            return f"{head_text}."
        body_text = ", ".join(body_parts)
        if head_text:
            return f"{head_text} :- {body_text}."
        return f":- {body_text}."


@dataclass
class GroundProgram:
    """Result of grounding: certain facts plus residual ground rules."""

    facts: Set[Atom] = field(default_factory=set)
    rules: List[GroundRule] = field(default_factory=list)
    possible_atoms: Set[Atom] = field(default_factory=set)

    @property
    def atoms(self) -> Set[Atom]:
        """All atoms that may appear in some answer set."""
        return set(self.possible_atoms)

    def statistics(self) -> Dict[str, int]:
        return {
            "facts": len(self.facts),
            "rules": len(self.rules),
            "possible_atoms": len(self.possible_atoms),
        }

    def copy(self) -> "GroundProgram":
        """Equal ground program with fresh containers.

        The contained :class:`GroundRule` and :class:`Atom` objects are
        immutable and shared; only the top-level sets and list are copied, so
        mutating the copy never affects the original (used by
        :class:`GroundingCache` to keep cached entries isolated).
        """
        return GroundProgram(
            facts=set(self.facts),
            rules=list(self.rules),
            possible_atoms=set(self.possible_atoms),
        )

    def __str__(self) -> str:
        lines = [f"{atom}." for atom in sorted(self.facts, key=str)]
        lines += [str(rule) for rule in self.rules]
        return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# The compiled rule set
# --------------------------------------------------------------------------- #
class RulePlan:
    """Everything the grounding layer derives from a rule set alone.

    Obtained through ``program.derived(RulePlan)``, so it is computed once
    per rule set -- on first use, never per window -- and rebuilt only when
    the program's rules change.  Building it checks safety, so holding a
    plan means the rules are safe, and compiles every proper rule and
    constraint into its join plans (:mod:`repro.asp.grounding.joinplan`):
    what a window pays for is running them.  Instances are immutable after
    construction and may be shared between threads.
    """

    __slots__ = (
        "facts",
        "rules_key",
        "strata",
        "constraints",
        "rules_by_predicate",
        "stratum_joins",
        "constraint_joins",
        "joins_by_predicate",
    )

    def __init__(self, program: Program):
        check_safety(program)
        proper_rules = [rule for rule in program.rules if not rule.is_fact]
        #: The program's own facts: part of every fact set grounded under it.
        self.facts: Tuple[Atom, ...] = tuple(rule.head[0] for rule in program.rules if rule.is_fact)
        #: Rendered proper rules: identifies the rule set in cache keys.
        self.rules_key: Tuple[str, ...] = tuple(str(rule) for rule in proper_rules)

        # Component evaluation order.  Tarjan emits sink components first;
        # reverse for bottom-up evaluation (predicates a rule depends on must
        # be instantiated before the rule).
        graph = PredicateDependencyGraph.from_program(program)
        components = list(reversed(strongly_connected_components(graph.adjacency())))
        component_of: Dict[str, int] = {}
        for component_index, component in enumerate(components):
            for predicate in component:
                component_of[predicate] = component_index
        rules_by_component: Dict[int, List[Rule]] = {}
        #: Constraints are instantiated last, over all possible atoms.
        self.constraints: List[Rule] = []
        for rule in proper_rules:
            if rule.is_constraint:
                self.constraints.append(rule)
                continue
            # A rule is evaluated with the lowest component among its head
            # predicates: every body predicate sits at or below each of them,
            # and whatever consumes one of a disjunctive rule's head atoms sits
            # above that head, hence above the lowest.
            component_index = min(component_of.get(predicate, 0) for predicate in rule.head_predicates())
            rules_by_component.setdefault(component_index, []).append(rule)
        #: Bottom-up evaluation order: (component, its non-recursive rules,
        #: its recursive rules), for the components that define anything.
        self.strata: List[Tuple[Set[str], List[Rule], List[Rule]]] = []
        for component_index in sorted(rules_by_component):
            component = components[component_index]
            rules = rules_by_component[component_index]
            recursive = [
                rule for rule in rules if any(literal.predicate in component for literal in rule.positive_body)
            ]
            self.strata.append((component, [rule for rule in rules if rule not in recursive], recursive))

        #: Positive-body predicate -> rules, for delta-restricted instantiation.
        self.rules_by_predicate: Dict[str, List[Rule]] = {}
        for rule in proper_rules:
            for literal in rule.positive_body:
                bucket = self.rules_by_predicate.setdefault(literal.predicate, [])
                if rule not in bucket:
                    bucket.append(rule)

        # The same three views over the compiled rules -- what a window runs.
        joins = {rule: RuleJoins(rule, GroundRule) for rule in proper_rules}
        #: Per stratum: the joins of its non-recursive rules, and those of its
        #: recursive rules with the literal positions a semi-naive round seeds.
        self.stratum_joins: List[Tuple[List[RuleJoins], List[Tuple[RuleJoins, List[int]]]]] = [
            (
                [joins[rule] for rule in non_recursive],
                [
                    (
                        joins[rule],
                        [seed for seed, predicate in enumerate(joins[rule].positive_predicates) if predicate in component],
                    )
                    for rule in recursive
                ],
            )
            for component, non_recursive, recursive in self.strata
        ]
        self.constraint_joins: List[RuleJoins] = [joins[rule] for rule in self.constraints]
        self.joins_by_predicate: Dict[str, List[RuleJoins]] = {
            predicate: [joins[rule] for rule in rules] for predicate, rules in self.rules_by_predicate.items()
        }

    def fact_set(self, facts: Iterable[Atom]) -> FrozenSet[Atom]:
        """The fact set grounded for a window: its ``facts`` plus the program's own."""
        window = frozenset(facts)
        return window.union(self.facts) if self.facts else window


# --------------------------------------------------------------------------- #
# Grounding cache
# --------------------------------------------------------------------------- #
#: Cache key: (rendered proper rules, frozenset of ground fact atoms).
CacheKey = Tuple[Tuple[str, ...], FrozenSet[Atom]]


class GroundingCache:
    """Window-to-window reuse of grounding work, keyed on the *fact signature*.

    In the streaming setting the rule part of the program is fixed while the
    facts change window by window, so every entry point takes the two
    separately -- ``program`` (whose :class:`RulePlan` identifies the rule
    set) and the window's ``facts`` -- and keys on the rendered proper rules
    plus the *set* of ground fact atoms (order-insensitive,
    duplicate-insensitive -- exactly the granularity at which grounding
    results coincide).  Two layers:

    * :meth:`ground` -- an LRU memo of whole ground programs for windows
      with no predecessor to repair (tumbling windows, recurring content);
    * :meth:`ground_incremental` -- one repairable :class:`DeltaGrounding`
      per *track*; it holds no ground programs at all, only the tracks'
      instantiation states.

    Isolation guarantees:

    * the key snapshots the facts at call time, so mutating the caller's
      fact list (or the program) afterwards can never corrupt an entry;
    * :meth:`store` keeps a :meth:`GroundProgram.copy` and :meth:`lookup`
      returns a fresh copy, so cached entries are object-equal to -- but
      never aliased with -- what callers see, and caller-side mutation of a
      returned ground program cannot leak back into the cache.

    The cache is thread-safe (one lock around the LRU book-keeping, one per
    track state) so a single instance can back a thread pool; every worker
    process holds its own instance.
    """

    def __init__(
        self,
        max_entries: int = 128,
        *,
        max_delta_states: int = 16,
        max_repair_fraction: float = 1.0,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_delta_states < 1:
            raise ValueError("max_delta_states must be at least 1")
        if not 0.0 < max_repair_fraction <= 1.0:
            raise ValueError("max_repair_fraction must be in (0, 1]")
        self.max_entries = max_entries
        self.max_delta_states = max_delta_states
        self.max_repair_fraction = max_repair_fraction
        self._entries: "OrderedDict[CacheKey, GroundProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        # Delta-grounding layer: (rules key, track) -> repairable state.  A
        # *track* identifies one stream of consecutive windows (partition
        # index, worker slot); consecutive windows of the same track repair
        # the same state instead of regrounding.
        self._delta_states: "OrderedDict[Tuple[Tuple[str, ...], int], DeltaGrounding]" = OrderedDict()
        self._delta_locks: Dict[Tuple[Tuple[str, ...], int], threading.Lock] = {}
        self.delta_repairs = 0
        self.delta_rebuilds = 0
        self.repaired_atoms = 0
        self.repaired_rules = 0
        # Human-readable track names (track -> label), attached by owners
        # that multiplex many logical streams over one cache -- the query
        # server labels each tenant lane's track range so the per-track
        # delta states stay attributable in the ops metrics export.
        self._track_labels: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(program: Program, facts: Collection[Atom] = ()) -> CacheKey:
        """Cache key of ``program`` evaluated over ``facts``."""
        plan = program.derived(RulePlan)
        return (plan.rules_key, plan.fact_set(facts))

    def lookup(self, key: CacheKey) -> Optional[GroundProgram]:
        """Return a fresh copy of the entry for ``key``, or ``None``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        # Stored entries are never mutated in place, so the (potentially
        # large) copy can happen outside the lock without serializing
        # concurrent thread-pool readers through it.
        return entry.copy()

    def store(self, key: CacheKey, ground: GroundProgram) -> None:
        """Record a grounding result (a snapshot copy) under ``key``."""
        snapshot = ground.copy()
        with self._lock:
            self._entries[key] = snapshot
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    # ------------------------------------------------------------------ #
    def ground(self, program: Program, facts: Collection[Atom] = ()) -> Tuple[GroundProgram, bool]:
        """Ground ``program`` over ``facts`` through the LRU memo.

        Returns ``(ground_program, from_cache)``.
        """
        key = self.key_for(program, facts)
        cached = self.lookup(key)
        if cached is not None:
            return cached, True
        ground = Grounder(program, facts).ground()
        self.store(key, ground)
        return ground, False

    def ground_incremental(
        self, program: Program, facts: Collection[Atom] = (), track: int = 0
    ) -> Tuple[GroundProgram, str, Optional["RepairStats"]]:
        """Ground ``program`` over ``facts`` against the ``track``'s last state.

        Returns ``(ground_program, outcome, repair_stats)`` with outcome one
        of ``"hit"`` (the fact set equals the track state's: nothing to
        repair, the state is simply emitted again), ``"repair"`` (the
        track's instantiation was delta-repaired to the new fact set), or
        ``"full"`` (no state, or the fact churn exceeded
        ``max_repair_fraction`` of the window, so the window was grounded
        from scratch).  ``repair_stats`` is only set for ``"repair"``.

        The retracted/asserted delta is computed here by set difference
        against the state's fact set, so callers only signal *that*
        window-to-window continuity is expected (and on which track) -- a
        stale or divergent state degrades to a rebuild, never to a wrong
        answer.  Nothing is memoized per window on this path: the cache
        holds one instantiation state per track, however long the stream.
        """
        plan = program.derived(RulePlan)
        target = plan.fact_set(facts)
        state_key = (plan.rules_key, track)
        with self._lock:
            state = self._delta_states.get(state_key)
            if state is not None:
                self._delta_states.move_to_end(state_key)
            state_lock = self._delta_locks.setdefault(state_key, threading.Lock())
        with state_lock:
            if state is not None:
                retracted = state.facts - target
                asserted = target - state.facts
                churn = len(retracted) + len(asserted)
                if not churn:
                    with self._lock:
                        self.hits += 1
                    return state.to_ground_program(), "hit", None
                budget = self.max_repair_fraction * max(len(target), len(state.facts), 1)
                # churn < |facts| + |state facts| iff the two sets overlap:
                # with nothing shared a "repair" would redo all the work of a
                # reground while paying the deletion cascade on top.
                if churn <= budget and churn < len(target) + len(state.facts):
                    stats = state.repair(target, diff=(retracted, asserted))
                    ground = state.to_ground_program()
                    with self._lock:
                        self.misses += 1
                        self.delta_repairs += 1
                        self.repaired_atoms += stats.repair_size
                        self.repaired_rules += stats.rules_deleted + stats.rules_added
                    return ground, "repair", stats
                # Over-budget or zero-overlap churn: ground plainly and leave
                # the state as it is.  Repairing (or rebuilding repairable
                # state) would cost more than the reground it replaces, and
                # because repairs diff against the *state's* fact set, a
                # later window that overlaps the stale state again resumes
                # repairing by itself.
                ground = Grounder(program, facts).ground()
                with self._lock:
                    self.misses += 1
                    self.delta_rebuilds += 1
                return ground, "full", None
            state = DeltaGrounding(program, facts)
            ground = state.to_ground_program()
        with self._lock:
            self.misses += 1
            self.delta_rebuilds += 1
            self._delta_states[state_key] = state
            self._delta_states.move_to_end(state_key)
            while len(self._delta_states) > self.max_delta_states:
                evicted_key, _ = self._delta_states.popitem(last=False)
                self._delta_locks.pop(evicted_key, None)
        return ground, "full", None

    # ------------------------------------------------------------------ #
    def __reduce__(self):
        # Pickling ships the configuration, not the contents: the lock is
        # unpicklable and cached entries are only useful to the process that
        # produced them, so an unpickled cache (e.g. in a fresh worker
        # process) starts empty at the same capacity.
        return (
            _rebuild_cache,
            (self.max_entries, self.max_delta_states, self.max_repair_fraction),
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._delta_states.clear()
            self._delta_locks.clear()
            self.hits = 0
            self.misses = 0
            self.delta_repairs = 0
            self.delta_rebuilds = 0
            self.repaired_atoms = 0
            self.repaired_rules = 0

    def label_track(self, track: int, label: str) -> None:
        """Name a delta track (observability only; evaluation ignores it)."""
        with self._lock:
            self._track_labels[track] = label

    def track_labels(self) -> Dict[int, str]:
        """The labels attached via :meth:`label_track` (a copy)."""
        with self._lock:
            return dict(self._track_labels)

    def statistics(self) -> Dict[str, float]:
        return {
            "entries": float(len(self._entries)),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "delta_states": float(len(self._delta_states)),
            "delta_repairs": float(self.delta_repairs),
            "delta_rebuilds": float(self.delta_rebuilds),
            "repaired_atoms": float(self.repaired_atoms),
            "repaired_rules": float(self.repaired_rules),
            "labeled_tracks": float(len(self._track_labels)),
        }


# --------------------------------------------------------------------------- #
# Grounder
# --------------------------------------------------------------------------- #
class Grounder:
    """Instantiates a program bottom-up along its predicate dependency SCCs.

    ``certain_negative_drop`` controls an instantiation-time optimization:
    a ground instance whose negative body mentions a certainly-true atom can
    never fire, so by default it is dropped on the spot and its head atoms
    are not registered as possible.  :class:`DeltaGrounding` disables the
    optimization because the dropped instance may become viable again once
    the certain atom is *retracted* in a later window -- the repairable
    state must therefore keep it (final simplification still removes it
    from the emitted :class:`GroundProgram`, so answer sets are unchanged).
    """

    def __init__(
        self,
        program: Program,
        extra_facts: Optional[Collection[Atom]] = None,
        *,
        certain_negative_drop: bool = True,
        symbols: Optional[SymbolTable] = None,
    ):
        """Ground ``program`` over its own facts plus ``extra_facts`` (a window's).

        The rule analysis comes from the program's shared :class:`RulePlan`;
        constructing a grounder copies nothing and re-checks nothing.
        """
        self._plan = program.derived(RulePlan)
        self._facts: Collection[Atom] = extra_facts if extra_facts is not None else ()
        self._certain_negative_drop = certain_negative_drop
        # Symbol table the instance dedup keys are interned against;
        # DeltaGrounding passes its own so the ids stay stable across
        # repairs.  None means each _instantiate owns a fresh table.
        self._symbols = symbols

    # ------------------------------------------------------------------ #
    def ground(self) -> GroundProgram:
        possible, certain, ground_rules, _ = self._instantiate()

        # Final simplification --------------------------------------------- #
        possible_atoms = possible.atoms()
        simplified: List[GroundRule] = []
        for rule in ground_rules:
            cleaned = _simplify(rule, certain, possible_atoms)
            if cleaned is not None:
                simplified.append(cleaned)

        return GroundProgram(facts=set(certain), rules=simplified, possible_atoms=possible_atoms | set(certain))

    # ------------------------------------------------------------------ #
    def _instantiate(self) -> Tuple[_AtomStore, Set[Atom], List[GroundRule], Set[Tuple]]:
        """Run the full bottom-up instantiation (steps 1-4, no simplification).

        Returns the possible-atom store, the certain facts, the unsimplified
        ground rules, and the dedup keys of the recorded instances.
        """
        plan = self._plan
        possible = _AtomStore(self._symbols)
        ground_rules: List[GroundRule] = []
        seen_rules: Set[Tuple] = set()
        drop = self._certain_negative_drop

        # 1. Facts: the program's own, then the window's, in bulk ---------- #
        distinct = dict.fromkeys(chain(plan.facts, self._facts))
        possible.load(distinct)
        certain: Set[Atom] = set(distinct)

        # 2-3. Bottom-up semi-naive evaluation along the plan's strata ---- #
        for non_recursive, recursive in plan.stratum_joins:
            new_atoms: List[Atom] = []
            for joins in non_recursive:
                joins.full(possible, None, certain, drop, ground_rules, seen_rules, new_atoms)
            # First pass of recursive rules against everything derived so far.
            for joins, _ in recursive:
                joins.full(possible, None, certain, drop, ground_rules, seen_rules, new_atoms)
            # Subsequent passes only need bindings that use at least one new atom.
            while recursive and new_atoms:
                delta = group_by_signature(new_atoms)
                new_atoms = []
                for joins, seeds in recursive:
                    for seed in seeds:
                        joins.seeded[seed](possible, delta, certain, drop, ground_rules, seen_rules, new_atoms)

        # 4. Constraints are instantiated last over all possible atoms ---- #
        for joins in plan.constraint_joins:
            joins.full(possible, None, certain, drop, ground_rules, seen_rules, [])

        return possible, certain, ground_rules, seen_rules


def _simplify(rule: GroundRule, certain: Set[Atom], possible: Set[Atom]) -> Optional[GroundRule]:
    """Simplify a ground rule against certain and possible atom sets.

    Returns ``None`` when the rule can never fire or is trivially satisfied.
    """
    # A negative literal over a certainly true atom falsifies the body.
    for atom in rule.negative_body:
        if atom in certain:
            return None
    positive = tuple(atom for atom in rule.positive_body if atom not in certain)
    negative = tuple(atom for atom in rule.negative_body if atom in possible)
    # A rule whose single head atom is already certain adds no information.
    if len(rule.head) == 1 and rule.head[0] in certain and not positive and not negative:
        return None
    return GroundRule(head=rule.head, positive_body=positive, negative_body=negative)


# --------------------------------------------------------------------------- #
# Delta-grounding (incremental instantiation repair)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RepairStats:
    """Size record of one delta repair."""

    retracted: int
    asserted: int
    rules_deleted: int
    rules_added: int
    atoms_deleted: int
    atoms_added: int

    @property
    def repair_size(self) -> int:
        """Total fact churn (retracted + asserted atoms) of the repair."""
        return self.retracted + self.asserted


class DeltaGrounding:
    """Repairable instantiation of one rule set against a sliding fact set.

    The instance holds the *unsimplified* ground rules of a program together
    with reverse indexes (positive-body atom -> instances, head atom ->
    instances).  :meth:`repair` moves the state from one fact set to the
    next without regrounding from scratch, following the delete-and-rederive
    (DRed) recipe:

    1. *overdelete* -- starting from the retracted facts, transitively kill
       every ground instance whose positive body touches a deleted atom and
       every head atom those instances derived;
    2. *rescue* -- overdeleted atoms still derived by a surviving instance
       (an alternative derivation untouched by the retraction) stay
       possible and seed re-derivation;
    3. *re-derive* -- run the semi-naive join restricted to the rescued and
       newly asserted atoms, re-creating exactly the instances reachable
       from the delta.

    Instantiation runs with ``certain_negative_drop=False`` (see
    :class:`Grounder`): instances blocked by a certainly-true negative
    literal are kept in the state so a later retraction of that literal's
    atom revives them.  :meth:`to_ground_program` recomputes the definite
    (certain) closure and re-simplifies, so the emitted program has the same
    answer sets as a from-scratch grounding of the current facts.
    """

    def __init__(self, program: Program, facts: Collection[Atom] = ()):
        plan = program.derived(RulePlan)
        self._joins_by_predicate = plan.joins_by_predicate
        # One symbol table for the lifetime of the state, so the repair
        # indexes below can key on dense ints instead of re-hashing atoms
        # window after window.
        self._symbols = SymbolTable()
        #: The fact set the state is instantiated for (window + program facts).
        self.facts: FrozenSet[Atom] = plan.fact_set(facts)

        machine = Grounder(program, facts, certain_negative_drop=False, symbols=self._symbols)
        store, _certain, ground_rules, seen = machine._instantiate()
        self._store = store
        self._seen: Set[Tuple] = seen
        self._instances: Dict[int, GroundRule] = {}
        #: interned atom id -> instance ids whose positive body contains it.
        self._body_index: Dict[int, Set[int]] = {}
        #: interned atom id -> instance ids deriving it.
        self._head_index: Dict[int, Set[int]] = {}
        self._next_id = 0
        for ground in ground_rules:
            self._add_instance(ground)
        #: Interned ids of :attr:`facts`, moved along by :meth:`repair`.
        self._fact_ids: Set[int] = set(self._symbols.intern_many(self.facts))

    # ------------------------------------------------------------------ #
    # Instance bookkeeping
    # ------------------------------------------------------------------ #
    def _seen_key(self, ground: GroundRule) -> Tuple:
        intern = self._symbols.intern
        return (
            tuple(map(intern, ground.head)),
            tuple(map(intern, ground.positive_body)),
            tuple(map(intern, ground.negative_body)),
        )

    def _add_instance(self, ground: GroundRule) -> None:
        instance_id = self._next_id
        self._next_id += 1
        self._instances[instance_id] = ground
        intern = self._symbols.intern
        for atom in set(ground.positive_body):
            self._body_index.setdefault(intern(atom), set()).add(instance_id)
        for atom in ground.head:
            self._head_index.setdefault(intern(atom), set()).add(instance_id)

    def _remove_instance(self, instance_id: int) -> None:
        ground = self._instances.pop(instance_id)
        self._seen.discard(self._seen_key(ground))
        intern = self._symbols.intern
        for atom in set(ground.positive_body):
            bucket = self._body_index.get(intern(atom))
            if bucket is not None:
                bucket.discard(instance_id)
                if not bucket:
                    del self._body_index[intern(atom)]
        for atom in ground.head:
            bucket = self._head_index.get(intern(atom))
            if bucket is not None:
                bucket.discard(instance_id)
                if not bucket:
                    del self._head_index[intern(atom)]

    @property
    def instance_count(self) -> int:
        return len(self._instances)

    # ------------------------------------------------------------------ #
    # Repair
    # ------------------------------------------------------------------ #
    def repair(
        self,
        new_facts: Iterable[Atom],
        diff: Optional[Tuple[Collection[Atom], Collection[Atom]]] = None,
    ) -> RepairStats:
        """Move the instantiation from ``self.facts`` to ``new_facts``.

        ``new_facts`` is the complete fact set (a ``frozenset`` is adopted
        as is); ``diff`` is its ``(retracted, asserted)`` difference from
        ``self.facts`` when the caller has already computed it.  Apart from
        that difference the bookkeeping is proportional to what the cascade
        touches, not to the window.
        """
        table = self._symbols
        intern = table.intern
        target = frozenset(new_facts)
        retracted, asserted = diff if diff is not None else (self.facts - target, target - self.facts)

        # 1. Overdelete (the cascade runs entirely over interned ids) ------ #
        dead_ids: Set[int] = set()
        dead_instances: Set[int] = set()
        worklist: List[int] = table.intern_many(retracted)
        self._fact_ids.difference_update(worklist)
        while worklist:
            atom_id = worklist.pop()
            if atom_id in dead_ids:
                continue
            dead_ids.add(atom_id)
            for instance_id in self._body_index.get(atom_id, ()):
                if instance_id in dead_instances:
                    continue
                dead_instances.add(instance_id)
                # A derived atom that is also a fact of the new window stays.
                worklist.extend(
                    intern(head) for head in self._instances[instance_id].head if head not in target
                )
        for instance_id in dead_instances:
            self._remove_instance(instance_id)

        # 2. Rescue: overdeleted atoms with a surviving alternative support. #
        rescued_ids = {atom_id for atom_id in dead_ids if self._head_index.get(atom_id)}
        dead_ids -= rescued_ids
        resolve = table.resolve
        for atom_id in dead_ids:
            self._store.remove(resolve(atom_id))

        # 3. Assert + re-derive -------------------------------------------- #
        self.facts = target
        self._fact_ids.update(table.intern_many(asserted))
        rescued = {resolve(atom_id) for atom_id in rescued_ids}
        seeds: Set[Atom] = set(rescued)
        for atom in asserted:
            if self._store.add(atom):
                seeds.add(atom)
        rules_added = 0
        atoms_added = 0
        delta: Collection[Atom] = seeds
        throwaway_certain: Set[Atom] = set()
        while delta:
            predicates = {atom.predicate for atom in delta}
            touched: List[RuleJoins] = []
            for predicate in predicates:
                for joins in self._joins_by_predicate.get(predicate, ()):
                    if joins not in touched:
                        touched.append(joins)
            by_signature = group_by_signature(delta)
            buffer: List[GroundRule] = []
            new_atoms: List[Atom] = []
            for joins in touched:
                for seed, predicate in enumerate(joins.positive_predicates):
                    if predicate in predicates:
                        joins.seeded[seed](
                            self._store, by_signature, throwaway_certain, False, buffer, self._seen, new_atoms
                        )
            for ground in buffer:
                self._add_instance(ground)
            rules_added += len(buffer)
            atoms_added += len(new_atoms)
            delta = new_atoms

        return RepairStats(
            retracted=len(retracted),
            asserted=len(asserted),
            rules_deleted=len(dead_instances),
            rules_added=rules_added,
            atoms_deleted=len(dead_ids),
            atoms_added=atoms_added + len(seeds - rescued),
        )

    # ------------------------------------------------------------------ #
    # Emission
    # ------------------------------------------------------------------ #
    def _certain_closure(self) -> Set[Atom]:
        """Definite consequences of the current state (facts + definite rules).

        The fixpoint runs over interned ids: the queue, the certain set and
        the body-index probes all key on machine ints, resolving back to
        atoms only once at the end.
        """
        table = self._symbols
        intern = table.intern
        certain_ids: Set[int] = set(self._fact_ids)
        remaining: Dict[int, int] = {}
        queue: List[int] = list(certain_ids)
        for instance_id, ground in self._instances.items():
            if len(ground.head) != 1 or ground.negative_body:
                continue
            need = len(set(ground.positive_body))
            if need == 0:
                head_id = intern(ground.head[0])
                if head_id not in certain_ids:
                    certain_ids.add(head_id)
                    queue.append(head_id)
            else:
                remaining[instance_id] = need
        while queue:
            atom_id = queue.pop()
            for instance_id in self._body_index.get(atom_id, ()):
                need = remaining.get(instance_id)
                if need is None:
                    continue
                need -= 1
                remaining[instance_id] = need
                if need == 0:
                    head_id = intern(self._instances[instance_id].head[0])
                    if head_id not in certain_ids:
                        certain_ids.add(head_id)
                        queue.append(head_id)
        return set(table.resolve_many(certain_ids))

    def to_ground_program(self) -> GroundProgram:
        """Simplify the current state into a fresh :class:`GroundProgram`."""
        certain = self._certain_closure()
        possible = self._store.atoms()
        simplified: List[GroundRule] = []
        for ground in self._instances.values():
            cleaned = _simplify(ground, certain, possible)
            if cleaned is not None:
                simplified.append(cleaned)
        return GroundProgram(facts=certain, rules=simplified, possible_atoms=possible | certain)


def ground_program(program: Program, facts: Optional[Collection[Atom]] = None) -> GroundProgram:
    """Convenience wrapper: ground ``program`` (optionally with extra facts)."""
    return Grounder(program, extra_facts=facts).ground()
