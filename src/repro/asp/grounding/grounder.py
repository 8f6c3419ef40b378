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

Tracks
------
Exact recurrence is rare under *overlapping* sliding windows: window
``W_{i+1}`` is ``W_i`` minus its oldest facts plus the new ones, so the
signature changes on every slide.  :meth:`GroundingCache.ground_incremental`
therefore memoizes nothing per window: per *track* (one track per
consecutive window stream, e.g. a partition index) it holds the last fact
set and its ground program.  A window whose fact set equals the held one is
a free ``"hit"``; any other window is grounded from scratch and replaces
the pair.  A reground is the whole cost of a slide: with the rules compiled
into join plans it is cheaper than repairing an instantiation state, and it
emits the fully simplified program a repairable state cannot (such a state
must keep instances blocked by certain negative literals in case the
literal's atom is retracted later).

Rules versus facts
------------------
A stream evaluates one fixed rule set against ever-changing facts, so the
two never travel together: everything derived from the rules alone -- the
safety check, the evaluation order of the strata, and every rule's compiled
join plans -- lives in a :class:`RulePlan`, built once per rule set
(:meth:`Program.derived <repro.asp.syntax.program.Program.derived>`) and
shared by :class:`Grounder` and :class:`GroundingCache`, while a window's
facts are passed next to the program as a plain collection of ground atoms
and enter the atom store in bulk.  A window therefore pays for running the
plans over its facts (full evaluation, then the seeded plans in semi-naive
rounds) and for nothing that could have been known before it arrived.
Facts written in the program itself (``mode(peak).``) belong to the plan
and join every window's fact set.
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

__all__ = [
    "GroundProgram",
    "GroundRule",
    "Grounder",
    "GroundingCache",
    "RulePlan",
    "ground_program",
]


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

    __slots__ = ("facts", "rules_key", "joins", "stratum_joins", "constraint_joins")

    def __init__(self, program: Program):
        check_safety(program)
        numbered = [(number, rule) for number, rule in enumerate(program.rules, 1) if not rule.is_fact]
        proper_rules = [rule for _, rule in numbered]
        #: The program's own facts: part of every fact set grounded under it.
        self.facts: Tuple[Atom, ...] = tuple(rule.head[0] for rule in program.rules if rule.is_fact)
        #: Rendered proper rules: identifies the rule set in cache keys.
        self.rules_key: Tuple[str, ...] = tuple(str(rule) for rule in proper_rules)
        #: Proper rule or constraint -> its compiled joins.
        self.joins: Dict[Rule, RuleJoins] = {rule: RuleJoins(rule, GroundRule, number) for number, rule in numbered}

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
        self.constraint_joins: List[RuleJoins] = []
        for rule in proper_rules:
            if rule.is_constraint:
                self.constraint_joins.append(self.joins[rule])
                continue
            # A rule is evaluated with the lowest component among its head
            # predicates: every body predicate sits at or below each of them,
            # and whatever consumes one of a disjunctive rule's head atoms sits
            # above that head, hence above the lowest.
            component_index = min(component_of.get(predicate, 0) for predicate in rule.head_predicates())
            rules_by_component.setdefault(component_index, []).append(rule)
        #: Bottom-up evaluation order, per component that defines anything:
        #: the joins of its non-recursive rules, and those of its recursive
        #: rules with the literal positions a semi-naive round seeds.
        self.stratum_joins: List[Tuple[List[RuleJoins], List[Tuple[RuleJoins, List[int]]]]] = []
        for component_index in sorted(rules_by_component):
            component = components[component_index]
            non_recursive: List[RuleJoins] = []
            recursive: List[Tuple[RuleJoins, List[int]]] = []
            for rule in rules_by_component[component_index]:
                joins = self.joins[rule]
                seeds = [seed for seed, predicate in enumerate(joins.positive_predicates) if predicate in component]
                if seeds:
                    recursive.append((joins, seeds))
                else:
                    non_recursive.append(joins)
            self.stratum_joins.append((non_recursive, recursive))

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
      with no predecessor (tumbling windows, recurring content);
    * :meth:`ground_incremental` -- per *track*, the last fact set and its
      ground program, so an unchanged window is free and any other window
      is grounded from scratch; it memoizes nothing per window.

    Isolation guarantees:

    * the key snapshots the facts at call time, so mutating the caller's
      fact list (or the program) afterwards can never corrupt an entry;
    * what the cache keeps is a :meth:`GroundProgram.copy` of what it
      returns, and what it returns from an entry is a fresh copy, so cached
      entries are object-equal to -- but never aliased with -- what callers
      see, and caller-side mutation of a returned ground program cannot leak
      back into the cache.

    The cache is thread-safe (one lock around its book-keeping; grounding
    and copying run outside it) so a single instance can back a thread
    pool; every worker process holds its own instance.
    """

    def __init__(self, max_entries: int = 128, *, max_delta_states: int = 16):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_delta_states < 1:
            raise ValueError("max_delta_states must be at least 1")
        self.max_entries = max_entries
        self.max_delta_states = max_delta_states
        self._entries: "OrderedDict[CacheKey, GroundProgram]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        # Track layer: (rules key, track) -> the track's last (fact set,
        # ground program), LRU-bounded by max_delta_states.  A *track*
        # identifies one stream of consecutive windows (partition index,
        # worker slot).
        self._tracks: "OrderedDict[Tuple[Tuple[str, ...], int], Tuple[FrozenSet[Atom], GroundProgram]]" = (
            OrderedDict()
        )
        self.delta_rebuilds = 0
        # Human-readable track names (track -> label), attached by owners
        # that multiplex many logical streams over one cache -- the query
        # server labels each tenant lane's track range so the per-track
        # states stay attributable in the ops metrics export.
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
    ) -> Tuple[GroundProgram, str]:
        """Ground ``program`` over ``facts`` as the ``track``'s next window.

        Returns ``(ground_program, outcome)`` with outcome ``"hit"`` (the
        fact set equals the one the track last grounded: a copy of that
        ground program is returned) or ``"full"`` (anything else: the window
        is grounded from scratch and becomes the track's pair).  Either way
        the program equals ``Grounder(program, facts).ground()``; a hit
        lists its rules in the order of the window that grounded them.
        """
        plan = program.derived(RulePlan)
        target = plan.fact_set(facts)
        track_key = (plan.rules_key, track)
        with self._lock:
            held = self._tracks.get(track_key)
            if held is not None:
                self._tracks.move_to_end(track_key)
        if held is not None and held[0] == target:
            with self._lock:
                self.hits += 1
            return held[1].copy(), "hit"
        ground = Grounder(program, facts).ground()
        snapshot = ground.copy()
        with self._lock:
            self.misses += 1
            self.delta_rebuilds += 1
            self._tracks[track_key] = (target, snapshot)
            self._tracks.move_to_end(track_key)
            while len(self._tracks) > self.max_delta_states:
                self._tracks.popitem(last=False)
        return ground, "full"

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._tracks.clear()
            self.hits = 0
            self.misses = 0
            self.delta_rebuilds = 0

    def label_track(self, track: int, label: str) -> None:
        """Name a track (observability only; evaluation ignores it)."""
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
            "delta_states": float(len(self._tracks)),
            "delta_rebuilds": float(self.delta_rebuilds),
            "labeled_tracks": float(len(self._track_labels)),
        }


# --------------------------------------------------------------------------- #
# Grounder
# --------------------------------------------------------------------------- #
class Grounder:
    """Instantiates a program bottom-up along its predicate dependency SCCs."""

    def __init__(self, program: Program, extra_facts: Optional[Collection[Atom]] = None):
        """Ground ``program`` over its own facts plus ``extra_facts`` (a window's).

        The rule analysis comes from the program's shared :class:`RulePlan`;
        constructing a grounder copies nothing and re-checks nothing.
        """
        self._plan = program.derived(RulePlan)
        self._facts: Collection[Atom] = extra_facts if extra_facts is not None else ()

    def ground(self) -> GroundProgram:
        plan = self._plan
        possible = _AtomStore()
        ground_rules: List[GroundRule] = []
        seen_rules: Set[GroundRule] = set()

        # 1. Facts: the program's own, then the window's, in bulk ---------- #
        distinct = dict.fromkeys(chain(plan.facts, self._facts))
        possible.load(distinct)
        certain: Set[Atom] = set(distinct)

        # 2-3. Bottom-up semi-naive evaluation along the plan's strata ---- #
        for non_recursive, recursive in plan.stratum_joins:
            new_atoms: List[Atom] = []
            for joins in non_recursive:
                joins.full(possible, None, certain, ground_rules, seen_rules, new_atoms)
            # First pass of recursive rules against everything derived so far.
            for joins, _ in recursive:
                joins.full(possible, None, certain, ground_rules, seen_rules, new_atoms)
            # Subsequent passes only need bindings that use at least one new atom.
            while recursive and new_atoms:
                delta = group_by_signature(new_atoms)
                new_atoms = []
                for joins, seeds in recursive:
                    for seed in seeds:
                        joins.seeded[seed](possible, delta, certain, ground_rules, seen_rules, new_atoms)

        # 4. Constraints are instantiated last over all possible atoms ---- #
        for joins in plan.constraint_joins:
            joins.full(possible, None, certain, ground_rules, seen_rules, [])

        # 5. Final simplification ------------------------------------------ #
        possible_atoms = possible.atoms()
        simplified: List[GroundRule] = []
        for rule in ground_rules:
            cleaned = _simplify(rule, certain, possible_atoms)
            if cleaned is not None:
                simplified.append(cleaned)

        return GroundProgram(facts=set(certain), rules=simplified, possible_atoms=possible_atoms | set(certain))


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


def ground_program(program: Program, facts: Optional[Collection[Atom]] = None) -> GroundProgram:
    """Convenience wrapper: ground ``program`` (optionally with extra facts)."""
    return Grounder(program, extra_facts=facts).ground()
