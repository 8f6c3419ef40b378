"""A logic program: an ordered collection of rules with predicate metadata.

The paper uses three predicate sets throughout (Section I):

* ``pre(P)``   -- all predicates occurring in the program,
* ``inpre(P)`` -- the *input* predicates, i.e. predicates of data items
  streamed into the reasoner (a subset of ``pre(P)``; they may be EDB or
  IDB predicates),
* EDB / IDB    -- extensional predicates (never occur in a head) versus
  intensional predicates (occur in at least one head).

:class:`Program` exposes all of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Set, Tuple, TypeVar

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.rules import Rule

__all__ = ["Program"]

Derived = TypeVar("Derived")


@dataclass
class Program:
    """An ASP program (a finite set of rules, kept in insertion order)."""

    rules: List[Rule] = field(default_factory=list)
    name: str = "program"
    #: ``(build, rules snapshot, build(self))`` of the last :meth:`derived` call.
    _derived: Optional[Tuple[Callable, List[Rule], object]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.rules = list(self.rules)

    def derived(self, build: Callable[["Program"], Derived]) -> Derived:
        """``build(self)``, computed once and reused until the rule list changes.

        A streaming reasoner evaluates one fixed rule set against thousands
        of windows; whatever depends on the rules alone (the grounder's
        :class:`~repro.asp.grounding.grounder.RulePlan`) is built on first
        use and shared by every later evaluation.  The memo is validated
        against a snapshot of :attr:`rules`, so mutating the program --
        through the ``add_*`` methods or the list itself -- rebuilds it.
        """
        memo = self._derived
        if memo is None or memo[0] is not build or memo[1] != self.rules:
            memo = (build, list(self.rules), build(self))
            self._derived = memo
        return memo[2]  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def add_rules(self, rules: Iterable[Rule]) -> None:
        self.rules.extend(rules)

    def add_fact(self, atom: Atom) -> None:
        self.rules.append(Rule(head=(atom,), body=()))

    def add_facts(self, atoms: Iterable[Atom]) -> None:
        for atom in atoms:
            self.add_fact(atom)

    def extend(self, other: "Program") -> None:
        """Append all rules of ``other`` to this program."""
        self.rules.extend(other.rules)

    def copy(self, name: Optional[str] = None) -> "Program":
        return Program(list(self.rules), name=name or self.name)

    def with_facts(self, atoms: Iterable[Atom], name: Optional[str] = None) -> "Program":
        """Return a new program consisting of this program plus the given facts."""
        combined = self.copy(name=name or self.name)
        combined.add_facts(atoms)
        return combined

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def facts(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_fact]

    @property
    def proper_rules(self) -> List[Rule]:
        """Rules that are not facts (including constraints)."""
        return [rule for rule in self.rules if not rule.is_fact]

    @property
    def constraints(self) -> List[Rule]:
        return [rule for rule in self.rules if rule.is_constraint]

    def is_ground(self) -> bool:
        return all(rule.is_ground() for rule in self.rules)

    @property
    def has_disjunction(self) -> bool:
        return any(rule.is_disjunctive for rule in self.rules)

    @property
    def has_negation(self) -> bool:
        return any(rule.negative_body for rule in self.rules)

    # ------------------------------------------------------------------ #
    # Predicate metadata (pre, inpre, EDB, IDB)
    # ------------------------------------------------------------------ #
    def predicates(self) -> Set[str]:
        """``pre(P)``: every predicate occurring in the program."""
        found: Set[str] = set()
        for rule in self.rules:
            found.update(rule.predicates())
        return found

    def head_predicates(self) -> Set[str]:
        found: Set[str] = set()
        for rule in self.rules:
            found.update(rule.head_predicates())
        return found

    def idb_predicates(self) -> Set[str]:
        """Intensional predicates: those defined by at least one non-fact rule head."""
        found: Set[str] = set()
        for rule in self.rules:
            if not rule.is_fact:
                found.update(rule.head_predicates())
        return found

    def edb_predicates(self) -> Set[str]:
        """Extensional predicates: predicates never defined by a proper rule."""
        return self.predicates() - self.idb_predicates()

    def rules_defining(self, predicate: str) -> List[Rule]:
        """Rules whose head mentions ``predicate``."""
        return [rule for rule in self.rules if predicate in rule.head_predicates()]

    def rules_using(self, predicate: str) -> List[Rule]:
        """Rules whose body mentions ``predicate``."""
        return [rule for rule in self.rules if predicate in rule.body_predicates()]

    # ------------------------------------------------------------------ #
    # Rendering
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Render the program back to parseable ASP syntax."""
        return "\n".join(str(rule) for rule in self.rules) + ("\n" if self.rules else "")

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Program(name={self.name!r}, rules={len(self.rules)})"
