"""The data format processor: RDF triples <-> ASP facts.

StreamRule "intercepts the output RDF stream query results filtered by CQELS
and translates them into Answer Set Programming (ASP) syntax before
streaming them into Clingo" (Section I).  The reverse direction turns answer
set atoms back into triples for downstream consumers.  The paper stresses
that this transformation overhead is part of the reasoner's latency, so both
directions are implemented as explicit, measurable steps.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant, Term
from repro.streaming.triples import Triple

__all__ = ["DataFormatProcessor"]


class DataFormatProcessor:
    """Bidirectional translator between RDF triples and ASP ground atoms.

    A triple ``<s, p, o>`` becomes the binary atom ``p(s, o)``; unary
    "type-like" triples whose object equals ``marker`` become ``p(s)``
    (used for predicates such as ``traffic_light(newcastle)``).
    """

    def __init__(self, unary_marker: str = "true"):
        self._unary_marker = unary_marker

    # ------------------------------------------------------------------ #
    # RDF -> ASP
    # ------------------------------------------------------------------ #
    def triple_to_atom(self, triple: Triple) -> Atom:
        subject = self._to_term(triple.subject)
        if triple.object == self._unary_marker:
            return Atom(triple.predicate, (subject,))
        return Atom(triple.predicate, (subject, self._to_term(triple.object)))

    def triples_to_atoms(self, triples: Iterable[Triple]) -> List[Atom]:
        return [self.triple_to_atom(triple) for triple in triples]

    def to_atoms(self, items: Iterable[Union[Triple, Atom]]) -> List[Atom]:
        """Translate stream items into ASP facts; ready-made atoms pass through as they are.

        The atoms of an all-atom input come back as the same objects, so a
        stream converted once at ingestion costs later stages one type
        check per item and keeps its atoms identity-stable.
        """
        return [item if type(item) is Atom else self._item_to_atom(item) for item in items]

    def _item_to_atom(self, item: object) -> Atom:
        if isinstance(item, Triple):
            return self.triple_to_atom(item)
        if isinstance(item, Atom):
            return item
        raise TypeError(f"window items must be Triple or Atom, got {type(item)!r}")

    # ------------------------------------------------------------------ #
    # ASP -> RDF
    # ------------------------------------------------------------------ #
    def atom_to_triple(self, atom: Atom, timestamp: Optional[float] = None) -> Triple:
        if atom.arity == 1:
            return Triple(self._to_value(atom.arguments[0]), atom.predicate, self._unary_marker, timestamp)
        if atom.arity == 2:
            return Triple(
                self._to_value(atom.arguments[0]),
                atom.predicate,
                self._to_value(atom.arguments[1]),
                timestamp,
            )
        raise ValueError(f"cannot express {atom} (arity {atom.arity}) as a single triple")

    def atoms_to_triples(self, atoms: Iterable[Atom], timestamp: Optional[float] = None) -> List[Triple]:
        return [self.atom_to_triple(atom, timestamp) for atom in atoms]

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_term(value: Union[str, int]) -> Term:
        if isinstance(value, (str, int)):
            return Constant(value)
        return Constant(str(value))

    @staticmethod
    def _to_value(term: Term) -> Union[str, int]:
        if isinstance(term, Constant):
            return term.value
        return str(term)
