"""Well-founded semantics via the alternating fixpoint.

For a normal (non-disjunctive) ground program the well-founded model
partitions atoms into *true*, *false* and *undefined*.  Every stable model
contains all well-founded-true atoms and no well-founded-false atom, so:

* if the well-founded model is *total* (no undefined atoms) the program has
  exactly one stable model candidate -- this is the fast path that the
  paper's stratified traffic programs always hit;
* otherwise :func:`residual_program` reduces the program by the
  well-founded model, and only that residual -- rules over undefined atoms
  alone -- is handed to the DPLL-based search.  Every stable model is the
  well-founded-true atoms plus a stable model of the residual (the
  well-founded residual program of Brass, Dix, Freitag & Zukowski, TPLP
  2001; smodels searches only what its well-founded propagation leaves
  open in the same way).

The alternating fixpoint (Van Gelder) iterates the antimonotone operator
``Γ(X) = least model of the reduct of P w.r.t. X``:

    T_0 = Γ(H),  U_0 = Γ(T_0),  T_1 = Γ(U_0), ...

converging to the set of true atoms ``T`` and the set of possibly-true atoms
``Γ(T)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, Iterable, List, Optional, Set

from repro.asp.grounding.grounder import GroundProgram, GroundRule
from repro.asp.syntax.atoms import Atom

__all__ = ["WellFoundedModel", "residual_program", "well_founded_model"]


@dataclass(frozen=True)
class WellFoundedModel:
    """The three-valued well-founded model of a normal ground program."""

    true: FrozenSet[Atom]
    false: FrozenSet[Atom]
    undefined: FrozenSet[Atom]

    @property
    def is_total(self) -> bool:
        """True when no atom is undefined -- the model is two-valued."""
        return not self.undefined


def _least_model(rules: List[GroundRule], facts: Set[Atom], assume_false: Set[Atom], universe: Set[Atom]) -> Set[Atom]:
    """Least model of the reduct w.r.t. ``assume_false``.

    The reduct keeps a rule iff none of its negative body atoms is *outside*
    ``assume_false`` ... i.e. a negative literal ``not a`` is satisfied iff
    ``a`` is assumed false.  Computed with the usual counter-based linear
    fixpoint (Dowling-Gallier style).
    """
    derived: Set[Atom] = set(facts)
    # Precompute, per rule, whether the reduct keeps it and how many positive
    # body atoms are still unsatisfied.
    watchers: Dict[Atom, List[int]] = {}
    counters: List[int] = []
    heads: List[Optional[Atom]] = []
    queue: List[Atom] = list(derived)

    for rule_index, rule in enumerate(rules):
        if len(rule.head) != 1:
            raise ValueError("well-founded semantics requires a normal (non-disjunctive) program")
        if any(atom not in assume_false for atom in rule.negative_body):
            counters.append(-1)  # rule deleted by the reduct
            heads.append(None)
            continue
        missing = [atom for atom in rule.positive_body if atom not in derived]
        counters.append(len(missing))
        heads.append(rule.head[0])
        if not missing:
            head = rule.head[0]
            if head not in derived:
                derived.add(head)
                queue.append(head)
        else:
            for atom in missing:
                watchers.setdefault(atom, []).append(rule_index)

    while queue:
        atom = queue.pop()
        for rule_index in watchers.get(atom, ()):  # counters may go negative if already satisfied; guard below
            if counters[rule_index] <= 0:
                continue
            counters[rule_index] -= 1
            if counters[rule_index] == 0:
                head = heads[rule_index]
                if head is not None and head not in derived:
                    derived.add(head)
                    queue.append(head)
    # Every derived atom is a fact or a rule head, both of which the caller
    # includes in ``universe``, so no restriction to the universe is needed.
    return derived


def _alternating_fixpoint(rules: List[GroundRule], facts: Set[Atom], universe: Set[Atom]):
    """Run Van Gelder's alternating fixpoint.

    Returns ``(true_set, possible_set)``: the well-founded-true atoms and
    the possibly-true atoms (their difference is the undefined set; atoms of
    ``universe`` outside ``possible_set`` are well-founded-false).
    """

    def gamma(assume_false: Set[Atom]) -> Set[Atom]:
        return _least_model(rules, facts, assume_false, universe)

    # Alternating fixpoint.  true_set grows, possible_set shrinks.
    true_set: Set[Atom] = set()
    possible_set: Set[Atom] = set(universe)
    while True:
        new_true = gamma(universe - possible_set)
        new_possible = gamma(universe - new_true)
        if new_true == true_set and new_possible == possible_set:
            break
        true_set, possible_set = new_true, new_possible
    return true_set, possible_set


def well_founded_model(ground: GroundProgram) -> WellFoundedModel:
    """Compute the well-founded model of a normal ground program.

    Integrity constraints (headless rules) are ignored here; the caller is
    responsible for checking them against the resulting model.
    """
    rules = [rule for rule in ground.rules if not rule.is_constraint]
    facts = set(ground.facts)
    universe: Set[Atom] = set(ground.possible_atoms) | set(facts)
    for rule in rules:
        universe.update(rule.atoms())

    true_set, possible_set = _alternating_fixpoint(rules, facts, universe)

    false_set = universe - possible_set
    undefined = possible_set - true_set
    return WellFoundedModel(
        true=frozenset(true_set),
        false=frozenset(false_set),
        undefined=frozenset(undefined),
    )


def residual_program(
    rules: Iterable[GroundRule], true: Container[Atom], undefined: Container[Atom]
) -> Optional[GroundProgram]:
    """Reduce a normal ground program by its well-founded model.

    ``true`` and ``undefined`` are the model's true and undefined atoms;
    every other atom is false.  A rule whose head is decided is dropped, and
    so is every rule or constraint with a body literal decided false; the
    rules kept lose their body literals decided true.  The residual thus
    mentions undefined atoms only and carries no facts, and the stable
    models of the program are exactly ``true | M`` for the stable models
    ``M`` of the residual.  Returns ``None`` when a constraint is left with
    an empty body: then the program has no stable model at all.
    """
    residual: List[GroundRule] = []
    for rule in rules:
        if rule.head and rule.head[0] not in undefined:
            continue
        if any(atom not in undefined and atom not in true for atom in rule.positive_body):
            continue
        if any(atom in true for atom in rule.negative_body):
            continue
        positive = tuple(atom for atom in rule.positive_body if atom in undefined)
        negative = tuple(atom for atom in rule.negative_body if atom in undefined)
        if not (rule.head or positive or negative):
            return None
        if len(positive) != len(rule.positive_body) or len(negative) != len(rule.negative_body):
            rule = GroundRule(rule.head, positive, negative)
        residual.append(rule)
    return GroundProgram(rules=residual)
