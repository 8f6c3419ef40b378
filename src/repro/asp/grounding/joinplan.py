"""Rules compiled into join plans, and the atom store the plans run against.

Instantiating a rule is a nested-loop join over its positive body.  For a
fixed rule everything about that join except the data is static, so
:class:`RuleJoins` decides it once per rule set and writes it down as one
Python function per *seed position* (``None``: evaluate the whole rule;
``i``: a semi-naive round in which literal ``i`` ranges over the newly
derived atoms only):

* the **literal order** -- the seed first, then always the literal with the
  most arguments bound by the literals before it, ties going to the earlier
  literal;
* per literal the **access path** into the :class:`_AtomStore`: the argument
  positions bound on entry (constants, variables of earlier literals) form
  the key of a hash index; all positions bound is one membership probe of
  the live atom with those arguments, if any (nothing is built); none
  bound is a scan of the predicate's population list, iterated live so a
  recursive rule sees the atoms it appends; the seed scans the delta and
  checks every position itself;
* which positions **bind** a new variable slot, which need an **equality
  check** (a variable repeated inside the literal, a constant under a seed
  scan) and which are function-term patterns to take apart;
* the **comparisons** that become ground after each literal, with the
  comparison keys of their constant sides precomputed (one without
  variables is decided at compile time: false empties the rule);
* the **emission template**, one of two.  A rule whose head predicate is
  *decided* (see :attr:`~repro.asp.grounding.grounder.RulePlan.decided`)
  builds no instance: its negative literals name lower decided strata, so
  ``n in certain`` decides them exactly (probing the table of live atoms,
  building none), and its head goes straight into the store and into
  ``certain``.  Any other rule or constraint builds a ground instance:
  head and negative atoms from the variable slots, the ground positive body
  *is* the tuple of matched atoms, and whether the instance can make its
  head certain (``len(head) == 1 and not negative``) is known here.

The generated source contains only names this module chooses, integer
argument positions and a fixed skeleton; predicate names, constants,
function symbols and operators reach it through the function's namespace.
No text of a rule is ever part of the source, so compiling the program a
worker daemon was sent cannot execute anything but joins.
"""

from __future__ import annotations

import operator
from itertools import chain, count
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.asp.errors import GroundingError
from repro.asp.syntax.atoms import _ATOMS, _COMPARISON_OPERATORS, Atom, Comparison, Literal, Signature
from repro.asp.syntax.rules import Rule
from repro.asp.syntax.terms import _ABSENT, Constant, FunctionTerm, Term, Variable

__all__ = ["RuleJoins", "group_by_signature"]

#: ``join(store, delta, certain, out, seen, new)``: run one compiled join.
#:
#: ``store`` holds the possible atoms; ``delta`` maps a signature to the new
#: atoms a seeded join ranges over (``None`` for a full evaluation);
#: ``certain`` is the set of certainly-true atoms, extended in place;
#: unseen instances are appended to ``out`` and added to ``seen``; head
#: atoms new to the store are appended to ``new``.
Join = Callable[..., None]

#: CPython compiles at most 20 statically nested blocks per function; a join
#: with more loops than this continues in a nested function.
_MAX_LOOPS = 16


# --------------------------------------------------------------------------- #
# Indexed atom store
# --------------------------------------------------------------------------- #
class _Index:
    """Hash index of one signature's population on fixed argument positions.

    Covers the first ``upto`` atoms of ``population`` and catches up on the
    next :meth:`lookup`.  A key is the bare term for a single position and a
    tuple of terms for several (what ``operator.itemgetter`` returns).
    """

    __slots__ = ("key_of", "population", "upto", "table")

    def __init__(self, positions: Tuple[int, ...], population: List[Atom]):
        self.key_of = operator.itemgetter(*positions)
        self.population = population
        self.upto = 0
        self.table: Dict[object, List[Atom]] = {}

    def lookup(self, key: object) -> Sequence[Atom]:
        """The atoms whose indexed positions equal ``key`` (a live bucket)."""
        population = self.population
        if self.upto < len(population):
            table, key_of = self.table, self.key_of
            for atom in population[self.upto :]:
                table.setdefault(key_of(atom.arguments), []).append(atom)
            self.upto = len(population)
        return self.table.get(key, ())


class _AtomStore:
    """Per-predicate store of ground atoms with lazily built join indexes.

    Atoms of one signature sit in an insertion-ordered list (what a join
    scans) and ``_slots`` maps every member to its position there, so
    membership is one dict probe.  A join index covers a prefix of its
    signature's list (see :class:`_Index`).  The store only grows: the
    compiled joins read ``_slots`` and the population lists directly and
    append derived head atoms themselves.
    """

    def __init__(self) -> None:
        self._by_signature: Dict[Signature, List[Atom]] = {}
        self._slots: Dict[Atom, int] = {}
        self._indexes: Dict[Signature, Dict[Tuple[int, ...], _Index]] = {}

    def atoms(self) -> Set[Atom]:
        return set(self._slots)

    def load(self, atoms: Collection[Atom]) -> None:
        """Add distinct ground atoms, none of them a member yet, in bulk.

        Slots and population lists are extended once per signature, in the
        order of ``atoms``.
        """
        # One C-level pass over every argument: anything but constants is rare.
        if not set(map(type, chain.from_iterable(map(_ARGUMENTS_OF, atoms)))) <= {Constant}:
            for atom in atoms:
                if not atom.is_ground():
                    raise GroundingError(f"non-ground fact {atom} (facts must be variable-free)")
        for signature, group in group_by_signature(atoms).items():
            population = self.population(signature)
            self._slots.update(zip(group, count(len(population))))
            population.extend(group)

    def population(self, signature: Signature) -> List[Atom]:
        """The live, insertion-ordered list of ``signature``'s atoms."""
        return self._by_signature.setdefault(signature, [])

    def index(self, signature: Signature, positions: Tuple[int, ...]) -> _Index:
        """The join index of ``signature`` on a proper, non-empty subset of its positions."""
        indexes = self._indexes.setdefault(signature, {})
        index = indexes.get(positions)
        if index is None:
            index = indexes[positions] = _Index(positions, self.population(signature))
        return index


_ARGUMENTS_OF = operator.attrgetter("arguments")


def group_by_signature(atoms: Iterable[Atom]) -> Dict[Signature, List[Atom]]:
    """``atoms`` by ``(predicate, arity)``, each group in iteration order."""
    groups: Dict[Signature, List[Atom]] = {}
    for atom in atoms:
        signature = (atom.predicate, len(atom.arguments))
        group = groups.get(signature)
        if group is None:
            groups[signature] = [atom]
        else:
            group.append(atom)
    return groups


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
class RuleJoins:
    """One proper rule or constraint, compiled: a join per seed position.

    Ground instances are built as ``instance_type(head, positive, negative)``,
    except for a ``decided`` rule (a normal rule whose head predicate is
    decided), which builds none.
    ``number`` (the rule's 1-based position in its program) names the
    generated code: the join of seed ``i`` is compiled as file
    ``<join plan: rule N / seed i>``, the full evaluation as
    ``<join plan: rule N / full>``, so profiles and tracebacks tell the rules apart.
    """

    __slots__ = ("rule", "positive_predicates", "full", "seeded", "orders", "sources")

    def __init__(self, rule: Rule, instance_type: type, number: int, decided: bool):
        self.rule = rule
        positive = tuple(e.atom for e in rule.body if isinstance(e, Literal) and e.positive)
        #: Predicate of each positive body literal, by literal position.
        self.positive_predicates: Tuple[str, ...] = tuple(atom.predicate for atom in positive)
        seeds = range(len(positive))
        compiled = {seed: _JoinCompiler(rule, positive, seed, instance_type, decided) for seed in (None, *seeds)}
        #: Seed position (``None``: full evaluation) -> literal order of its join.
        self.orders: Dict[Optional[int], Tuple[int, ...]] = {seed: c.order for seed, c in compiled.items()}
        #: Seed position -> generated source (for inspection; never re-read).
        self.sources: Dict[Optional[int], str] = {seed: c.source for seed, c in compiled.items()}
        #: Full evaluation of the rule against the store.
        self.full: Join = compiled[None].function(f"<join plan: rule {number} / full>")
        #: ``seeded[i]``: the join whose literal ``i`` ranges over the delta only.
        self.seeded: Tuple[Join, ...] = tuple(
            compiled[seed].function(f"<join plan: rule {number} / seed {seed}>") for seed in seeds
        )


def _join_order(positive: Sequence[Atom], seed: Optional[int]) -> Tuple[int, ...]:
    """Seed first, then most-bound-first with ties to the earlier literal.

    Every candidate is ground, so matching a literal binds all of its
    variables: how many arguments of a remaining literal are bound depends
    only on which literals came before it.
    """
    argument_variables = [[set(argument.variables()) for argument in atom.arguments] for atom in positive]
    bound: Set[Variable] = set()
    todo = list(range(len(positive)))
    order: List[int] = []
    while todo:
        if seed is not None and seed in todo:
            chosen = seed
        else:
            chosen = max(todo, key=lambda index: sum(1 for needed in argument_variables[index] if needed <= bound))
        todo.remove(chosen)
        order.append(chosen)
        bound.update(*argument_variables[chosen])
    return tuple(order)


def _has_variables(term) -> bool:
    return next(iter(term.variables()), None) is not None


def _tuple_source(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Block:
    """One generated function: its lines and the function its innermost loop continues in."""

    def __init__(self, header: str):
        self.header = header
        self.lines: List[str] = []  # each with its indentation relative to the body
        self.loops = 0  # open ``for`` statements, which is also the current indentation
        self.inner: Optional["_Block"] = None

    def render(self, prologue: Sequence[str] = ()) -> List[str]:
        nested = self.inner.render() if self.inner is not None else []
        return [self.header, *(f"    {line}" for line in chain(prologue, nested, self.lines))]


class _JoinCompiler:
    """Generates the join function of one rule for one seed position."""

    def __init__(
        self, rule: Rule, positive: Sequence[Atom], seed: Optional[int], instance_type: type, decided: bool
    ):
        self.rule = rule
        self.positive = positive
        self.seed = seed
        self.decided = decided
        self.order = _join_order(positive, seed)
        self.namespace: Dict[str, object] = {
            "Atom": Atom,
            "FunctionTerm": FunctionTerm,
            "GroundRule": instance_type,
            "atoms": _ATOMS.get,
            "absent": _ABSENT,
        }
        self.prologue: List[str] = ["slots = store._slots"]
        self.outer = self.block = _Block("def join(store, delta, certain, out, seen, new):")
        self.variables: Dict[Variable, str] = {}  # bound so far -> local name
        self.names = count()
        self._generate()
        self.source = "\n".join(self.outer.render(self.prologue)) + "\n"

    def function(self, filename: str) -> Join:
        exec(compile(self.source, filename, "exec"), self.namespace)
        return self.namespace["join"]  # type: ignore[return-value]

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def emit(self, line: str) -> None:
        self.block.lines.append("    " * self.block.loops + line)

    def bind(self, value: object) -> str:
        """Name ``value`` in the function's namespace (never in its source)."""
        name = f"k{next(self.names)}"
        self.namespace[name] = value
        return name

    @property
    def skip(self) -> str:
        """The statement that abandons the current partial binding."""
        return "continue" if self.block.loops else "return"

    def loop(self, header: str) -> None:
        if self.block.loops == _MAX_LOOPS:
            self.emit("rest()")
            self.block.inner = self.block = _Block("def rest():")
        self.emit(header)
        self.block.loops += 1

    def ref(self, term: Term) -> str:
        """Expression for ``term`` under the current binding."""
        if isinstance(term, Variable):
            name = self.variables.get(term)
            if name is None:
                raise GroundingError(f"variable {term} of {self.rule} is not bound by its positive body")
            return name
        if isinstance(term, FunctionTerm) and _has_variables(term):
            arguments = _tuple_source([self.ref(argument) for argument in term.arguments])
            return f"FunctionTerm({self.bind(term.name)}, {arguments})"
        return self.bind(term)

    def atom(self, atom: Atom) -> str:
        """Expression for the ground instance of ``atom`` under the current binding."""
        if not _has_variables(atom):
            return self.bind(atom)
        arguments = _tuple_source([self.ref(argument) for argument in atom.arguments])
        return f"Atom({self.bind(atom.predicate)}, {arguments})"

    def probe(self, atom: Atom) -> str:
        """Expression for the live instance of ``atom`` under the current binding, if any.

        An atom that was never built is in no store and in no set: probe the
        table of live atoms under Atom's key instead of building one
        (``None`` when there is none).
        """
        if not _has_variables(atom):
            return self.bind(atom)
        arguments = _tuple_source([self.ref(argument) for argument in atom.arguments])
        return f"atoms(({self.bind(atom.predicate)}, {arguments}), absent)()"

    def is_bound(self, term: Term) -> bool:
        return all(variable in self.variables for variable in term.variables())

    # ------------------------------------------------------------------ #
    # The join
    # ------------------------------------------------------------------ #
    def _generate(self) -> None:
        pending = [element for element in self.rule.body if isinstance(element, Comparison)]

        def ready() -> List[Comparison]:
            """Take the pending comparisons whose variables are all bound by now."""
            found = [c for c in pending if self.is_bound(c.left) and self.is_bound(c.right)]
            pending[:] = [c for c in pending if c not in found]
            return found

        if not all(comparison.evaluate() for comparison in ready()):
            self.emit("return  # a variable-free comparison of the rule is false")
            return
        for index in self.order:
            self._match_literal(index)
            for comparison in ready():
                relation = self.bind(_COMPARISON_OPERATORS[comparison.operator])
                self.emit(f"if not {relation}({self._key(comparison.left)}, {self._key(comparison.right)}): {self.skip}")
        if pending:
            raise GroundingError(f"comparison {pending[0]} has unbound variables after the join")
        self._emit_instance()

    def _key(self, term: Term) -> str:
        if _has_variables(term):
            return f"{self.ref(term)}.order_key"
        return self.bind(term.order_key)

    def _match_literal(self, index: int) -> None:
        atom = self.positive[index]
        name = f"a{index}"
        signature = self.bind(atom.signature)
        positions = range(len(atom.arguments))
        if index == self.seed:
            keyed: List[int] = []
            self.loop(f"for {name} in delta.get({signature}, ()):")
        else:
            keyed = [position for position in positions if self.is_bound(atom.arguments[position])]
            key = [self.ref(atom.arguments[position]) for position in keyed]
            if not keyed:
                self.prologue.append(f"p{index} = store.population({signature})")
                self.loop(f"for {name} in p{index}:")
            elif len(keyed) == len(atom.arguments):
                self.emit(f"{name} = {self.probe(atom)}")
                self.emit(f"if {name} not in slots: {self.skip}")
            else:
                self.prologue.append(f"l{index} = store.index({signature}, {self.bind(tuple(keyed))}).lookup")
                self.loop(f"for {name} in l{index}({key[0] if len(key) == 1 else _tuple_source(key)}):")
        unkeyed = [position for position in positions if position not in keyed]
        if len(unkeyed) == 1:
            self._match_term(atom.arguments[unkeyed[0]], f"{name}.arguments[{unkeyed[0]}]")
        elif unkeyed:
            self.emit(f"g{index} = {name}.arguments")
            for position in unkeyed:
                self._match_term(atom.arguments[position], f"g{index}[{position}]")

    def _match_term(self, pattern: Term, target: str) -> None:
        """Match ``pattern`` against the ground term the expression ``target`` yields."""
        if isinstance(pattern, Variable) and pattern not in self.variables:
            name = self.variables[pattern] = f"v{len(self.variables)}"
            self.emit(f"{name} = {target}")
        elif self.is_bound(pattern):
            self.emit(f"if {target} != {self.ref(pattern)}: {self.skip}")
        else:  # a function term with a variable still to bind: take it apart
            term, arguments = f"t{next(self.names)}", f"t{next(self.names)}"
            self.emit(f"{term} = {target}")
            self.emit(
                f"if {term}.__class__ is not FunctionTerm or {term}.name != {self.bind(pattern.name)}"
                f" or len({term}.arguments) != {len(pattern.arguments)}: {self.skip}"
            )
            self.emit(f"{arguments} = {term}.arguments")
            for position, argument in enumerate(pattern.arguments):
                self._match_term(argument, f"{arguments}[{position}]")

    # ------------------------------------------------------------------ #
    # The emission template
    # ------------------------------------------------------------------ #
    def _emit_instance(self) -> None:
        rule = self.rule
        negative = [e.atom for e in rule.body if isinstance(e, Literal) and not e.positive]
        heads = [f"h{index}" for index in range(len(rule.head))]
        bodies = [f"a{index}" for index in range(len(self.positive))]
        negatives = [f"n{index}" for index in range(len(negative))]
        for name, atom in zip(negatives, negative):
            # A decided instance needs its negative atoms only to look them up.
            self.emit(f"{name} = {self.probe(atom) if self.decided else self.atom(atom)}")
        if negatives:
            # A negative literal over a certainly-true atom falsifies the body
            # outright: the instance can never fire, so its head atoms are not
            # even registered as possible.
            self.emit(f"if {' or '.join(f'{name} in certain' for name in negatives)}: {self.skip}")
        for index, (name, atom) in enumerate(zip(heads, rule.head)):
            self.prologue.append(f"q{index} = store.population({self.bind(atom.signature)})")
            self.emit(f"{name} = {self.atom(atom)}")
            self.emit(f"if {name} not in slots:")
            self.emit(f"    slots[{name}] = len(q{index}); q{index}.append({name}); new.append({name})")
        if self.decided:
            # A decided head: every stored atom of a decided predicate is
            # certain, so the positive body holds, and the negative literals
            # name lower decided strata, complete by now, so ``in certain``
            # decided them exactly.  The instance fires: no rule is left.
            self.emit("    certain.add(h0)")
            return
        # The same instance is reached through several seeds and rounds.
        self.emit(f"instance = GroundRule({', '.join(map(_tuple_source, (heads, bodies, negatives)))})")
        self.emit("if instance not in seen:")
        self.emit("    seen.add(instance)")
        self.emit("    out.append(instance)")
        # Certainly-true atoms: definite consequences of certain atoms.
        if len(heads) == 1 and not negatives:
            condition = " and ".join(f"{name} in certain" for name in bodies)
            self.emit(f"if {condition}: certain.add(h0)" if bodies else "certain.add(h0)")
