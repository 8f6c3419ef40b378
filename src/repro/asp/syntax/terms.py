"""Terms of the ASP language.

A term is one of:

* :class:`Constant` -- a symbolic constant (``newcastle``), an integer
  (``20``), or a quoted string (``"high speed"``).
* :class:`Variable` -- an uppercase-initial identifier (``X``) or the
  anonymous variable ``_``.
* :class:`FunctionTerm` -- an uninterpreted function symbol applied to terms
  (``loc(1, 2)``).

Terms (and :class:`~repro.asp.syntax.atoms.Atom`) are *canonical*: a
constructor returns the one live object with the value it is given and
builds a new object only when there is none.  Two terms are therefore equal
exactly when they are the same object, so ``==`` and ``hash`` are
``object``'s identity comparison and identity hash -- C-level calls in the
set and dict operations the grounder and solver run on them.  Build terms
only through their constructors; copying and unpickling go through them
too, so a copy or an unpickled term is the receiving interpreter's
canonical object.  Terms are immutable.

Each class keeps a table from a value key to a weak reference to the live
object with that value, so the table holds the live terms and nothing else:
an entry leaves it when its object dies.
"""

from __future__ import annotations

import threading
from _weakref import _remove_dead_weakref
from typing import Callable, Dict, Iterable, Iterator, Tuple, Union
from weakref import ref

__all__ = ["Constant", "FunctionTerm", "Term", "Variable"]


_ANONYMOUS_COUNTER = 0


def _next_anonymous_name() -> str:
    """Return a fresh name for an anonymous variable ``_``."""
    global _ANONYMOUS_COUNTER
    _ANONYMOUS_COUNTER += 1
    return f"_Anon{_ANONYMOUS_COUNTER}"


# --------------------------------------------------------------------------- #
# Canonical objects
# --------------------------------------------------------------------------- #
class _Entry(ref):
    """A table's weak reference to a canonical object; remembers its key for eviction."""

    __slots__ = ("key",)


#: Stands in for a missing entry: ``table.get(key, _ABSENT)()`` is the live
#: object filed under ``key``, or None (``NoneType()`` returns None).
_ABSENT = type(None)

#: Serialises filing a new object; lookups of live objects take no lock.
_FILING = threading.Lock()


def _canonical_table() -> Tuple[Dict[object, _Entry], Callable[[object, "_Canonical"], "_Canonical"]]:
    """A new weak table of canonical objects, and the function that files a new one."""
    table: Dict[object, _Entry] = {}

    def evict(entry: _Entry) -> None:
        # Deletes the entry only while it still holds a dead reference, in one
        # C-level step: a live object that another thread filed under the
        # same key after this one died keeps its entry.
        _remove_dead_weakref(table, entry.key)

    def file(key: object, candidate: "_Canonical") -> "_Canonical":
        """Make ``candidate`` the canonical object of ``key``, unless a live one got there first."""
        entry = _Entry(candidate, evict)
        entry.key = key
        with _FILING:
            winner = table.get(key, _ABSENT)()
            if winner is not None:
                return winner
            table[key] = entry
        return candidate

    return table, file


class _Canonical:
    """Base of the canonical, immutable term and atom classes.

    Subclasses name their fields in ``__match_args__``; the constructor
    arguments are those fields in that order.
    """

    __slots__ = ("__weakref__",)
    __match_args__: Tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Rebuild through the constructor: validation runs on the receiving
        # side, and the result is that interpreter's canonical object.
        return (self.__class__, tuple([getattr(self, name) for name in self.__match_args__]))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


_new = object.__new__
_set = object.__setattr__

_CONSTANTS, _file_constant = _canonical_table()
_VARIABLES, _file_variable = _canonical_table()
_FUNCTION_TERMS, _file_function_term = _canonical_table()


# --------------------------------------------------------------------------- #
# Terms
# --------------------------------------------------------------------------- #
class Constant(_Canonical):
    """A ground constant: integer, symbolic constant, or quoted string."""

    __slots__ = ("value", "quoted", "order_key")
    __match_args__ = ("value", "quoted")

    value: Union[int, str]
    quoted: bool
    #: Place in the total order of ground terms: ``(0, n)`` for an integer,
    #: ``(1, name)`` for a symbol or string.
    order_key: Tuple[int, Union[int, str]]

    def __new__(cls, value: Union[int, str], quoted: bool = False) -> "Constant":
        # The type is part of the key: ``True == 1`` and ``hash(True) == hash(1)``.
        key = (value, quoted, type(value))
        constant = _CONSTANTS.get(key, _ABSENT)()
        if constant is not None:
            return constant
        if isinstance(value, bool):
            raise TypeError("boolean constants are not part of the language")
        if not isinstance(value, (int, str)):
            raise TypeError(f"constant value must be int or str, got {type(value)!r}")
        constant = _new(cls)
        _set(constant, "value", value)
        _set(constant, "quoted", quoted)
        _set(constant, "order_key", (0, value) if isinstance(value, int) else (1, value))
        return _file_constant(key, constant)

    @property
    def is_integer(self) -> bool:
        """True when the constant is an integer."""
        return isinstance(self.value, int)

    def is_ground(self) -> bool:
        return True

    def variables(self) -> Iterator["Variable"]:
        return iter(())

    def substitute(self, mapping) -> "Constant":
        return self

    def __str__(self) -> str:
        if self.quoted:
            escaped = str(self.value).replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return str(self.value)

    def __lt__(self, other: "Constant") -> bool:
        """Total order used by comparison builtins: integers before symbols."""
        if not isinstance(other, Constant):
            return NotImplemented
        return self.order_key < other.order_key


class Variable(_Canonical):
    """A logic variable (uppercase-initial or ``_``-prefixed identifier)."""

    __slots__ = ("name",)
    __match_args__ = ("name",)

    name: str

    def __new__(cls, name: str) -> "Variable":
        variable = _VARIABLES.get(name, _ABSENT)()
        if variable is not None:
            return variable
        if not name:
            raise ValueError("variable name must be non-empty")
        variable = _new(cls)
        _set(variable, "name", name)
        return _file_variable(name, variable)

    @classmethod
    def anonymous(cls) -> "Variable":
        """Create a fresh anonymous variable (each ``_`` is distinct)."""
        return cls(_next_anonymous_name())

    def is_ground(self) -> bool:
        return False

    def variables(self) -> Iterator["Variable"]:
        yield self

    def substitute(self, mapping) -> "Term":
        return mapping.get(self, self)

    def __str__(self) -> str:
        return self.name


class FunctionTerm(_Canonical):
    """An uninterpreted function symbol applied to argument terms."""

    __slots__ = ("name", "arguments")
    __match_args__ = ("name", "arguments")

    name: str
    arguments: Tuple["Term", ...]

    def __new__(cls, name: str, arguments: Iterable["Term"]) -> "FunctionTerm":
        if arguments.__class__ is not tuple:
            arguments = tuple(arguments)
        key = (name, arguments)
        term = _FUNCTION_TERMS.get(key, _ABSENT)()
        if term is not None:
            return term
        if not name:
            raise ValueError("function name must be non-empty")
        term = _new(cls)
        _set(term, "name", name)
        _set(term, "arguments", arguments)
        return _file_function_term(key, term)

    @property
    def arity(self) -> int:
        return len(self.arguments)

    @property
    def order_key(self) -> Tuple[int, str]:
        """Place in the total order of ground terms: after every constant, by rendering."""
        return (2, str(self))

    def is_ground(self) -> bool:
        return all(argument.is_ground() for argument in self.arguments)

    def variables(self) -> Iterator[Variable]:
        for argument in self.arguments:
            yield from argument.variables()

    def substitute(self, mapping) -> "FunctionTerm":
        return FunctionTerm(self.name, tuple(argument.substitute(mapping) for argument in self.arguments))

    def __str__(self) -> str:
        if not self.arguments:
            return self.name
        inner = ",".join(str(argument) for argument in self.arguments)
        return f"{self.name}({inner})"


Term = Union[Constant, Variable, FunctionTerm]
