"""Atoms, literals and comparison builtins.

* :class:`Atom` -- ``predicate(arg1, ..., argN)``.
* :class:`Literal` -- an atom with a sign: positive or ``not``-negated
  (negation as failure).
* :class:`Comparison` -- a builtin relational literal between two terms
  (``X < 20``, ``Y != Z``), evaluated during grounding.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Tuple

from repro.asp.errors import GroundingError
from repro.asp.syntax.terms import _ABSENT, Term, Variable, _canonical_table, _Canonical, _new, _set

__all__ = ["Atom", "Comparison", "Literal", "Signature"]

Signature = Tuple[str, int]


#: The live atoms: ``(predicate, arguments)`` -> weak reference to the atom.
#: A compiled join probes it directly for an atom it need not build (see
#: :mod:`repro.asp.grounding.joinplan`).
_ATOMS, _file_atom = _canonical_table()


class Atom(_Canonical):
    """A (possibly non-ground) atom ``predicate(t1, ..., tn)``; canonical, like every term."""

    __slots__ = ("predicate", "arguments")
    __match_args__ = ("predicate", "arguments")

    predicate: str
    arguments: Tuple[Term, ...]

    def __new__(cls, predicate: str, arguments: Iterable[Term] = ()) -> "Atom":
        if arguments.__class__ is not tuple:
            arguments = tuple(arguments)
        key = (predicate, arguments)
        atom = _ATOMS.get(key, _ABSENT)()
        if atom is not None:
            return atom
        if not predicate:
            raise ValueError("predicate name must be non-empty")
        atom = _new(cls)
        _set(atom, "predicate", predicate)
        _set(atom, "arguments", arguments)
        return _file_atom(key, atom)

    @property
    def arity(self) -> int:
        return len(self.arguments)

    @property
    def signature(self) -> Signature:
        """``(predicate, arity)`` pair identifying the predicate."""
        return (self.predicate, self.arity)

    def is_ground(self) -> bool:
        return all(argument.is_ground() for argument in self.arguments)

    def variables(self) -> Iterator[Variable]:
        for argument in self.arguments:
            yield from argument.variables()

    def substitute(self, mapping) -> "Atom":
        if not self.arguments:
            return self
        return Atom(self.predicate, tuple(argument.substitute(mapping) for argument in self.arguments))

    def __str__(self) -> str:
        if not self.arguments:
            return self.predicate
        inner = ",".join(str(argument) for argument in self.arguments)
        return f"{self.predicate}({inner})"


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom literal with a default-negation sign."""

    atom: Atom
    positive: bool = True

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    @property
    def signature(self) -> Signature:
        return self.atom.signature

    @property
    def negative(self) -> bool:
        return not self.positive

    def negate(self) -> "Literal":
        """Return the literal with the opposite sign."""
        return Literal(self.atom, not self.positive)

    def is_ground(self) -> bool:
        return self.atom.is_ground()

    def variables(self) -> Iterator[Variable]:
        return self.atom.variables()

    def substitute(self, mapping) -> "Literal":
        return Literal(self.atom.substitute(mapping), self.positive)

    def __str__(self) -> str:
        if self.positive:
            return str(self.atom)
        return f"not {self.atom}"


_COMPARISON_OPERATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_CANONICAL_OPERATOR = {"==": "=", "<>": "!="}


@dataclass(frozen=True, slots=True)
class Comparison:
    """A builtin comparison literal ``left OP right``.

    Comparisons are evaluated during grounding once both sides are ground.
    Integers compare numerically; any other pair of constants compares by the
    total order (integers < symbols, symbols lexicographically) so that the
    relation is always defined, mirroring clingo's behaviour.
    """

    operator: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.operator not in _COMPARISON_OPERATORS:
            raise ValueError(f"unknown comparison operator {self.operator!r}")
        object.__setattr__(self, "operator", _CANONICAL_OPERATOR.get(self.operator, self.operator))

    def is_ground(self) -> bool:
        return self.left.is_ground() and self.right.is_ground()

    def variables(self) -> Iterator[Variable]:
        yield from self.left.variables()
        yield from self.right.variables()

    def substitute(self, mapping) -> "Comparison":
        return Comparison(self.operator, self.left.substitute(mapping), self.right.substitute(mapping))

    def evaluate(self) -> bool:
        """Evaluate a ground comparison; raise :class:`GroundingError` otherwise."""
        if not self.is_ground():
            raise GroundingError(f"cannot evaluate non-ground comparison {self}")
        return _COMPARISON_OPERATORS[self.operator](self.left.order_key, self.right.order_key)

    def __str__(self) -> str:
        return f"{self.left}{self.operator}{self.right}"

