"""Common-subprogram detection for the multi-tenant query server.

Many standing queries over the same streams tend to share rules -- every
tenant monitoring traffic wants ``traffic_jam``, every fraud desk wants the
same transfer-chain closure.  Hosting each query in its own session grounds
and solves those shared rules once *per tenant per window*.  The query
server instead evaluates the **union program** of all registered queries
and projects each tenant's answers out of the combined answer sets, so a
rule shared by N queries is grounded once per window.

That is only sound when the union preserves each query's semantics.  Two
ingredients make it checkable:

*Rule normalization.*  :func:`normalize_rule` rewrites a rule into a
practical normal form -- body elements ordered by their variable-blind
structure, variables renamed ``V0, V1, ...`` in order of first occurrence
-- so that alpha-variants and body reorderings of the same rule render
identically and hash to the same :func:`rule_fingerprint`.  The fingerprint
sets of two programs then expose their shared subprogram directly
(:func:`shared_fraction`).

*Definition-closure compatibility.*  Projection onto a query's output
predicates is semantics-preserving when, for every predicate the query
mentions, the union program defines it by exactly the query's own rules
(the splitting-set argument: the query's program is then a module of the
union, and extra modules can only add atoms over predicates the query never
reads).  :func:`union_conflicts` checks this pairwise at registration time;
tenants whose derived predicates collide with different definitions are
rejected with an explanation (the fix is namespacing: ``acme_alert`` rather
than ``alert``).  Constraints have no head to anchor the check, so a
constraint is required to be present in every query whose predicates it
touches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import BodyElement, Rule
from repro.asp.syntax.terms import Variable

__all__ = [
    "ProgramSignature",
    "normalize_rule",
    "program_signature",
    "rule_fingerprint",
    "shared_fraction",
    "union_conflicts",
]


def _structure_key(element: BodyElement) -> str:
    """Render a body element with every variable blanked (a sort key)."""
    blank = {variable: Variable("_") for variable in element.variables()}
    return str(element.substitute(blank))


def _alpha_rename(rule: Rule) -> Rule:
    """Rename variables ``V0, V1, ...`` in order of first occurrence."""
    mapping: Dict[Variable, Variable] = {}
    for atom in rule.head:
        for variable in atom.variables():
            if variable not in mapping:
                mapping[variable] = Variable(f"V{len(mapping)}")
    for element in rule.body:
        for variable in element.variables():
            if variable not in mapping:
                mapping[variable] = Variable(f"V{len(mapping)}")
    if not mapping:
        return rule
    return rule.substitute(mapping)


def normalize_rule(rule: Rule) -> Rule:
    """The practical normal form: canonical body order + alpha-renaming.

    Body elements are ordered by their variable-blind structure (ties broken
    by the rendered text after renaming), then variables are renamed in
    first-occurrence order.  The result is invariant under alpha-renaming
    and under reordering of structurally distinct body elements -- the two
    ways independently-authored copies of the same rule actually differ.
    It is not a full graph canonicalization (structurally identical body
    atoms whose variables interleave elsewhere can in principle still order
    differently), which is fine for sharing detection: a missed match costs
    a duplicate rule in the union, never wrong answers.
    """
    body = tuple(sorted(rule.body, key=_structure_key))
    renamed = _alpha_rename(Rule(rule.head, body))
    body = tuple(sorted(renamed.body, key=lambda element: (_structure_key(element), str(element))))
    return _alpha_rename(Rule(renamed.head, body))


def rule_fingerprint(rule: Rule) -> str:
    """Content hash of the rule's normal form."""
    return hashlib.sha256(str(normalize_rule(rule)).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ProgramSignature:
    """A program's sharing-relevant shape, computed once at registration.

    ``rules`` maps fingerprint -> normalized rule (the canonical
    representative used when building the union program, so the union is
    identical whichever tenant registered first); ``definitions`` maps each
    head predicate to the fingerprints of its defining rules;
    ``constraints`` holds the fingerprints of headless rules together with
    the predicates they touch; ``mentioned`` is every predicate occurring
    anywhere in the program.
    """

    name: str
    rules: Mapping[str, Rule]
    definitions: Mapping[str, FrozenSet[str]]
    constraints: Tuple[Tuple[str, FrozenSet[str]], ...]
    mentioned: FrozenSet[str]

    @property
    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self.rules)


def program_signature(program: Program, name: str = "") -> ProgramSignature:
    """Normalize and fingerprint every rule of ``program``."""
    rules: Dict[str, Rule] = {}
    definitions: Dict[str, set] = {}
    constraints: List[Tuple[str, FrozenSet[str]]] = []
    mentioned: set = set()
    for rule in program.rules:
        normalized = normalize_rule(rule)
        fingerprint = hashlib.sha256(str(normalized).encode("utf-8")).hexdigest()[:16]
        rules[fingerprint] = normalized
        mentioned.update(rule.predicates())
        if rule.is_constraint:
            constraints.append((fingerprint, frozenset(rule.predicates())))
            continue
        for predicate in rule.head_predicates():
            definitions.setdefault(predicate, set()).add(fingerprint)
    return ProgramSignature(
        name=name or program.name or "",
        rules=rules,
        definitions={predicate: frozenset(prints) for predicate, prints in definitions.items()},
        constraints=tuple(constraints),
        mentioned=frozenset(mentioned),
    )


def shared_fraction(first: Iterable[str], second: Iterable[str]) -> float:
    """|A ∩ B| / min(|A|, |B|) over two fingerprint sets (0.0 when empty)."""
    first_set, second_set = frozenset(first), frozenset(second)
    smaller = min(len(first_set), len(second_set))
    if not smaller:
        return 0.0
    return len(first_set & second_set) / smaller


def union_conflicts(signatures: Mapping[str, ProgramSignature]) -> List[str]:
    """Why the union of these programs would change some member's meaning.

    Returns a human-readable reason per violation (empty list = the union
    program preserves every member query's semantics under projection):

    * a predicate mentioned by query A is defined by query B with a rule A
      does not itself contain, or
    * a constraint of query B touches predicates query A mentions without A
      containing that constraint.
    """
    conflicts: List[str] = []
    items = list(signatures.items())
    for key, signature in items:
        for other_key, other in items:
            if other_key == key:
                continue
            for predicate, defining in other.definitions.items():
                if predicate not in signature.mentioned:
                    continue
                foreign = defining - signature.fingerprints
                if foreign:
                    conflicts.append(
                        f"{key!r} mentions predicate {predicate!r}, which {other_key!r} defines "
                        f"with {len(foreign)} rule(s) {key!r} does not contain -- namespace the "
                        "derived predicates of one of the two queries"
                    )
            for fingerprint, touched in other.constraints:
                if touched & signature.mentioned and fingerprint not in signature.fingerprints:
                    conflicts.append(
                        f"{other_key!r} has a constraint over {sorted(touched & signature.mentioned)} "
                        f"that {key!r} mentions but does not share -- constraints must be common to "
                        "every query whose predicates they touch"
                    )
    return conflicts
