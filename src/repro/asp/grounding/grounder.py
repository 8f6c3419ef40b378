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

Atoms that hold in every answer set are tracked as *certain facts*.  Rules
over *decided* predicates (:attr:`RulePlan.decided`: the stratified,
disjunction-free part of the program below any unstratified or disjunctive
component) are settled while grounding, as DLV and gringo treat stratified
parts: their negative literals name lower strata, complete by the time they
are read, so an instance whose body holds puts its head straight into the
certain facts and leaves no ground rule behind.  A stratified program
without disjunction (such as the paper's traffic programs ``P`` and ``P'``)
therefore grounds to facts only -- its answer set -- and the solver has
nothing left to do.  Elsewhere an instance makes its head certain only when
it has one head atom, no negation and a certain body; everything else is
left to the solving phase as a ground rule.

Rules versus facts
------------------
A stream evaluates one fixed rule set against ever-changing facts, so the
two never travel together: everything derived from the rules alone -- the
safety check, the evaluation order of the strata, and every rule's compiled
join plans -- lives in a :class:`RulePlan`, built once per rule set
(:meth:`Program.derived <repro.asp.syntax.program.Program.derived>`) and
used by every :class:`Grounder` over that rule set, while a window's
facts are passed next to the program as a plain collection of ground atoms
and enter the atom store in bulk.  A window therefore pays for running the
plans over its facts (full evaluation, then the seeded plans in semi-naive
rounds) and for nothing that could have been known before it arrived.
Facts written in the program itself (``mode(peak).``) belong to the plan
and join every window's fact set.
"""

from __future__ import annotations

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

    __slots__ = ("facts", "decided", "joins", "stratum_joins", "constraint_joins")

    def __init__(self, program: Program):
        check_safety(program)
        numbered = [(number, rule) for number, rule in enumerate(program.rules, 1) if not rule.is_fact]
        proper_rules = [rule for _, rule in numbered]
        #: The program's own facts: part of every fact set grounded under it.
        self.facts: Tuple[Atom, ...] = tuple(rule.head[0] for rule in program.rules if rule.is_fact)

        # Component evaluation order.  Tarjan emits sink components first;
        # reverse for bottom-up evaluation (predicates a rule depends on must
        # be instantiated before the rule).
        graph = PredicateDependencyGraph.from_program(program)
        components = list(reversed(strongly_connected_components(graph.adjacency())))
        component_of: Dict[str, int] = {}
        for component_index, component in enumerate(components):
            for predicate in component:
                component_of[predicate] = component_index
        #: Predicates whose atoms grounding decides outright: a predicate is
        #: decided when it heads no disjunctive rule, no negative edge lies
        #: inside its component, and everything it depends on is decided
        #: (EDB predicates are).  Such a predicate is defined by a stratified
        #: part of the program, so its atoms are true exactly when derived.
        self.decided: FrozenSet[str] = _decided_predicates(graph, proper_rules, component_of)
        #: Proper rule or constraint -> its compiled joins.
        self.joins: Dict[Rule, RuleJoins] = {
            rule: RuleJoins(rule, GroundRule, number, len(rule.head) == 1 and rule.head[0].predicate in self.decided)
            for number, rule in numbered
        }
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



def _decided_predicates(
    graph: PredicateDependencyGraph, rules: Iterable[Rule], component_of: Dict[str, int]
) -> FrozenSet[str]:
    """The decided predicates of a rule set (see :attr:`RulePlan.decided`).

    ``component_of`` numbers the components bottom-up, so every component a
    component depends on has a smaller number and is settled before it.
    """
    undecided = {component_of[predicate] for rule in rules if rule.is_disjunctive for predicate in rule.head_predicates()}
    undecided.update(component_of[head] for body, head in graph.negative_edges if component_of[body] == component_of[head])
    below: Dict[int, Set[int]] = {}
    for body, head in graph.edges:
        below.setdefault(component_of[head], set()).add(component_of[body])
    for component in sorted(below):
        if component not in undecided and not undecided.isdisjoint(below[component]):
            undecided.add(component)
    return frozenset(predicate for predicate, component in component_of.items() if component not in undecided)


# --------------------------------------------------------------------------- #
# Retired: the grounding cache
# --------------------------------------------------------------------------- #
class GroundingCache:
    """Retired and ignored: holds nothing and changes nothing.

    Every window is grounded once, from scratch, by :class:`Grounder`; a
    memo of ground programs never hit on a stream.  Kept as an empty class
    only while the repository benchmark still builds one and passes it to
    ``StreamSession(grounding_cache=)``, which drops it.  Delete both once
    the benchmark stops naming them.
    """


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

        # Every certain atom is in the store: a fact, or a head the joins put there.
        return GroundProgram(facts=certain, rules=simplified, possible_atoms=possible_atoms)


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
