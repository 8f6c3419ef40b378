"""Compiled join plans: order, safety of the generated source, and a differential test.

The differential half checks the grounder against a reference instantiator
that shares nothing with the plans: it enumerates every substitution of a
rule's variables over the window's Herbrand universe, keeps the instances
whose comparisons hold, and iterates to a fixpoint.  Programs come from a
hypothesis strategy aimed at what the hand-written grounder tests never hit:
constants and repeated variables inside body literals, all three shapes of
comparison, zero-arity atoms, a rule without a positive body, function-term
patterns, recursion (so every seed position runs), constraints and
disjunctive heads.
"""

from __future__ import annotations

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_e2e.programs import search_program
from repro.asp.control import Control
from repro.asp.grounding.grounder import (
    Grounder,
    GroundingCache,
    GroundProgram,
    GroundRule,
    RulePlan,
    ground_program,
)
from repro.asp.grounding.joinplan import _MAX_LOOPS, _AtomStore, group_by_signature
from repro.asp.solving.solver import StableModelSolver
from repro.asp.syntax.atoms import Atom, Literal
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import Rule
from repro.asp.syntax.terms import Constant, FunctionTerm, Variable
from repro.programs.fraud import fraud_program
from repro.programs.iot import iot_program
from repro.programs.traffic import motivating_example_window, traffic_program, traffic_program_prime
from repro.streamrule.codec import encode_reasoner_spec, reasoner_from_spec
from repro.streamrule.reasoner import Reasoner
from tests.conftest import make_atom

# --------------------------------------------------------------------------- #
# Literal order: what the interpreter of the parent commit chose
# --------------------------------------------------------------------------- #
_SINGLE = {None: (0,), 0: (0,)}
_PAIR = {None: (0, 1), 0: (0, 1), 1: (1, 0)}
_TRIPLE = {None: (0, 1, 2), 0: (0, 1, 2), 1: (1, 0, 2), 2: (2, 0, 1)}
_P_ORDERS = [_SINGLE, _SINGLE, _PAIR, _TRIPLE, _SINGLE, _SINGLE]

#: Per program, per proper rule in program order: seed position -> literal
#: order, recorded from the term-rewriting interpreter this PR replaced
#: (seed first, then most-bound-first, ties to the earlier literal).
RECORDED_ORDERS = {
    "P": (traffic_program, _P_ORDERS),
    "P_prime": (traffic_program_prime, _P_ORDERS + [_PAIR]),
    "search": (
        search_program,
        _P_ORDERS
        + [_SINGLE, _SINGLE, _SINGLE, _SINGLE, _PAIR, _SINGLE, _SINGLE]  # busy .. give_notification :- divert
        + [_SINGLE, _SINGLE, _SINGLE, _SINGLE, _SINGLE, _PAIR, _SINGLE, _SINGLE]  # stopped .. inactive
        + [
            # give_notification(X) :- hold(X), active(peak).  -- the ground literal goes first
            {None: (1, 0), 0: (0, 1), 1: (1, 0)},
            # give_notification(X) :- tow(C), car_location(C,X), active(event).
            {None: (2, 0, 1), 0: (0, 1, 2), 1: (1, 0, 2), 2: (2, 0, 1)},
        ],
    ),
    "fraud": (fraud_program, [_SINGLE, _TRIPLE, _SINGLE, _PAIR, _PAIR, _TRIPLE, _SINGLE, _SINGLE]),
    "iot": (iot_program, [_SINGLE, _SINGLE, _PAIR, _SINGLE, _SINGLE, _PAIR, _PAIR, _SINGLE, _SINGLE]),
}


@pytest.mark.parametrize("name", sorted(RECORDED_ORDERS))
def test_compiled_literal_order_is_the_interpreters(name):
    build, recorded = RECORDED_ORDERS[name]
    program = build()
    plan = program.derived(RulePlan)
    proper = [rule for rule in program.rules if not rule.is_fact]
    assert len(proper) == len(recorded)
    for rule, orders in zip(proper, recorded):
        assert plan.joins[rule].orders == orders, str(rule)


def test_r4_access_paths():
    """car_fire(X) :- car_in_smoke(C, high), car_speed(C, 0), car_location(C, X):
    an index on the constant, a membership probe, an index on C."""
    [joins] = [j for j in traffic_program().derived(RulePlan).joins.values() if "car_speed" in j.positive_predicates]
    source = joins.sources[None]
    assert source.count(".lookup") == 2 and source.count("not in slots: continue") == 1
    assert "store.population" in source  # only the head's population: no scan
    assert source.count("for ") == 2
    assert source.count("Atom(") == 1  # the head; the membership probe builds no atom


def test_each_join_is_compiled_under_its_rule_and_seed():
    """Profiles and tracebacks attribute a join to its rule: r4 is the 4th rule of P."""
    [joins] = [j for j in traffic_program().derived(RulePlan).joins.values() if "car_speed" in j.positive_predicates]
    assert joins.full.__code__.co_filename == "<join plan: rule 4 / full>"
    assert [join.__code__.co_filename for join in joins.seeded] == [
        f"<join plan: rule 4 / seed {seed}>" for seed in range(3)
    ]


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
class TestGeneratedSource:
    def test_no_rule_text_reaches_the_source(self):
        hostile = "x'), __import__('os').system('echo pwned'), ('"
        predicate = 'p"); raise SystemExit("'
        X = Variable("X")
        rule = Rule(
            head=(Atom(hostile, (X, Constant(hostile, quoted=True))),),
            body=(
                Literal(Atom(predicate, (X, Constant(hostile, quoted=True), FunctionTerm(hostile, (X,))))),
                Literal(Atom(hostile, (Constant(hostile),)), positive=False),
            ),
        )
        one = Constant(1)
        fact = Atom(predicate, (one, Constant(hostile, quoted=True), FunctionTerm(hostile, (one,))))
        program = Program([rule])
        ground = Grounder(program, [fact]).ground()
        derived = Atom(hostile, (one, Constant(hostile, quoted=True)))
        assert ground.possible_atoms == {fact, derived}
        assert ground.rules == [GroundRule((derived,), (), ())]  # "not ..." is underivable, so dropped
        [joins] = program.derived(RulePlan).joins.values()
        for source in joins.sources.values():
            assert "import" not in source and "pwned" not in source and "SystemExit" not in source
            assert "'" not in source and '"' not in source  # no string literal at all

    def test_rule_without_positive_body(self):
        program = parse_program("p :- not q.\nr(1) :- not p, 1 < 2.\ns :- not q, 2 < 1.")
        ground = ground_program(program)
        assert make_atom("p") in ground.possible_atoms
        assert make_atom("r", 1) in ground.possible_atoms
        assert make_atom("s") not in ground.possible_atoms

    def test_variable_free_comparison_is_decided_at_compile_time(self):
        program = parse_program("a(X) :- n(X), 1 < 2.\nb(X) :- n(X), 2 < 1.")
        ground = ground_program(program, [make_atom("n", 7)])
        assert ground.facts == {make_atom("n", 7), make_atom("a", 7)}
        [joins] = [j for j in program.derived(RulePlan).joins.values() if j.rule.head[0].predicate == "b"]
        assert "for " not in joins.sources[None]

    def test_join_wider_than_one_function_may_nest(self):
        width = _MAX_LOOPS + 9  # more loops than CPython nests in one function
        body = ", ".join(f"e{i}(X{i}, X{i + 1})" for i in range(width))
        program = parse_program(f"chain(X0, X{width}) :- {body}.")
        facts = [make_atom(f"e{i}", i, i + 1) for i in range(width)]
        facts += [make_atom("e3", 3, 99), make_atom(f"e{width - 1}", width - 1, -1)]
        ground = ground_program(program, facts)
        assert {atom for atom in ground.facts if atom.predicate == "chain"} == {
            make_atom("chain", 0, width),
            make_atom("chain", 0, -1),
        }
        # The seeded join nests the same way: seeding e0(0, 1) re-derives both chains.
        [joins] = program.derived(RulePlan).joins.values()
        store, out = _AtomStore(), []
        store.load(facts)
        joins.seeded[0](store, group_by_signature(facts[:1]), set(), out, set(), [])
        assert {instance.head[0] for instance in out} == {make_atom("chain", 0, width), make_atom("chain", 0, -1)}


class TestSharedPlan:
    def test_a_reasoner_shipped_by_spec_carries_no_plan(self):
        program = traffic_program()
        program.derived(RulePlan)
        assert program._derived is not None
        payload = encode_reasoner_spec(Reasoner(program))
        assert b"joinplan" not in payload and b"RulePlan" not in payload
        clone = reasoner_from_spec(payload).program
        assert clone._derived is None
        window = motivating_example_window()
        assert Grounder(clone, window).ground() == Grounder(program, window).ground()
        rebuilt = clone.derived(RulePlan)  # compiled where the program landed
        assert rebuilt is not program.derived(RulePlan)
        assert rebuilt.rules_key == program.derived(RulePlan).rules_key

    def test_threads_grounding_the_first_window_of_one_program(self):
        facts = [make_atom("edge", i, (i * 7 + 3) % 23) for i in range(23)]
        expected = ground_program(parse_program(TRANSITIVE), facts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                program = parse_program(TRANSITIVE)  # no plan yet: the threads race to build it
                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(lambda: Grounder(program, facts).ground()) for _ in range(8)]
                    results = [future.result(timeout=60) for future in futures]
                assert all(_same(result, expected) for result in results)
        finally:
            sys.setswitchinterval(interval)


TRANSITIVE = "path(X,Y) :- edge(X,Y).\npath(X,Z) :- path(X,Y), edge(Y,Z)."


def _same(left: GroundProgram, right: GroundProgram) -> bool:
    return (
        left.facts == right.facts
        and left.possible_atoms == right.possible_atoms
        and set(left.rules) == set(right.rules)
        and len(left.rules) == len(right.rules)
    )


# --------------------------------------------------------------------------- #
# Reference instantiator (tests only; shares nothing with the plans)
# --------------------------------------------------------------------------- #
def reference_candidates(program, universe):
    """Every ground instance of every proper rule over ``universe`` whose comparisons hold."""
    candidates = []
    for rule in program.rules:
        if rule.is_fact:
            continue
        variables = sorted(rule.variables(), key=str)
        for values in itertools.product(universe, repeat=len(variables)):
            instance = rule.substitute(dict(zip(variables, values)))
            if all(comparison.evaluate() for comparison in instance.comparisons):
                candidates.append(
                    (
                        instance.head,
                        tuple(literal.atom for literal in instance.positive_body),
                        tuple(literal.atom for literal in instance.negative_body),
                    )
                )
    return candidates


def reference_ground(candidates, facts):
    """The ground program of ``candidates`` over ``facts`` by naive fixpoints.

    As in the grounder, an instance whose negative body holds a definite
    consequence is never instantiated, so its head is not possible.
    """
    certain = set(facts)
    possible = set(facts)
    instances = set()
    changed = True
    while changed:
        changed = False
        for head, positive, negative in candidates:
            if len(head) == 1 and not negative and head[0] not in certain and certain.issuperset(positive):
                certain.add(head[0])
                changed = True
    changed = True
    while changed:
        changed = False
        for instance in candidates:
            head, positive, negative = instance
            if instance in instances or not possible.issuperset(positive):
                continue
            if not certain.isdisjoint(negative):
                continue
            instances.add(instance)
            possible.update(head)
            changed = True
    rules = set()
    for head, positive, negative in instances:
        if not certain.isdisjoint(negative):
            continue
        positive = tuple(atom for atom in positive if atom not in certain)
        negative = tuple(atom for atom in negative if atom in possible)
        if len(head) == 1 and head[0] in certain and not positive and not negative:
            continue
        rules.add(GroundRule(head, positive, negative))
    return GroundProgram(facts=certain, rules=list(rules), possible_atoms=possible | certain)


# --------------------------------------------------------------------------- #
# Generated programs
# --------------------------------------------------------------------------- #
EDB = {"e": 2, "n": 1, "f": 1, "z": 0}
DEFINITE = {"t": 2, "r": 1, "s": 1, "y": 0}
VARIABLES = ["X", "Y", "Z"]
CONSTANTS = ["0", "1", "2"]
OPERATORS = ["<", "<=", "=", "!=", ">", ">="]

FACT_POOL = (
    [make_atom("e", i, j) for i in range(3) for j in range(3)]
    + [make_atom("n", i) for i in range(3)]
    + [make_atom("f", 1), make_atom("z")]
    + [Atom("f", (FunctionTerm("w", (Constant(i), Constant(j))),)) for i, j in ((0, 1), (1, 1), (2, 0))]
)
UNIVERSE = [Constant(i) for i in range(3)] + [atom.arguments[0] for atom in FACT_POOL[-3:]]


@st.composite
def argument(draw, bound=None, functions=False):
    """A term for one argument slot: over ``bound`` variables only when given."""
    names = VARIABLES if bound is None else sorted(bound)
    simple = st.sampled_from(names + CONSTANTS)
    if functions and draw(st.integers(0, 2)) == 0:
        return f"w({draw(simple)},{draw(simple)})"
    return draw(simple)


@st.composite
def literal(draw, predicates, bound=None):
    predicate = draw(st.sampled_from(sorted(predicates)))
    arity = predicates[predicate]
    if not arity:
        return predicate
    terms = [draw(argument(bound, functions=predicate == "f" and bound is None)) for _ in range(arity)]
    return f"{predicate}({','.join(terms)})"


def variables_of(text):
    return {name for name in VARIABLES if name in text}


@st.composite
def body(draw, positive_predicates, negative_predicates=None, min_positive=1):
    """``(body text, bound variables)``: positive literals, comparisons, negative literals."""
    positive = [draw(literal(positive_predicates)) for _ in range(draw(st.integers(min_positive, 3)))]
    bound = set().union(*map(variables_of, positive)) if positive else set()
    parts = list(positive)
    for _ in range(draw(st.integers(0, 2))):
        left, right = draw(argument(bound)), draw(argument(bound))
        parts.append(f"{left} {draw(st.sampled_from(OPERATORS))} {right}")
    if negative_predicates:
        for _ in range(draw(st.integers(0 if positive else 1, 1))):
            parts.append("not " + draw(literal(negative_predicates, bound)))
    return ", ".join(draw(st.permutations(parts))), bound


@st.composite
def programs(draw):
    """A safe program in two layers.

    Layer one is definite (no negation, one head atom) over the EDB and
    itself, recursion welcome: every atom it derives is certain the moment it
    is possible.  Layer two adds negation, disjunction, constraints and rules
    without a positive body, each rule defining its own fresh predicate(s)
    and using only earlier layer-two predicates positively, so layer two has
    no positive recursion and a negative loop never involves a certain atom.
    Under these two conditions what the from-scratch grounder treats as
    certain *while instantiating* is the definite closure the reference
    computes, whatever the evaluation order.
    """
    lines = []
    if draw(st.booleans()):
        lines += ["t(X,Y) :- e(X,Y).", "t(X,Z) :- t(X,Y), e(Y,Z)."]
    if draw(st.booleans()):
        lines += ["r(X) :- n(X), X < 1.", "s(Y) :- r(X), e(X,Y).", "r(Y) :- s(X), e(X,Y)."]
    for _ in range(draw(st.integers(0, 3))):
        text, bound = draw(body({**EDB, **DEFINITE}))
        head = draw(literal(DEFINITE, bound))
        lines.append(f"{head} :- {text}.")
    kinds = draw(st.lists(st.sampled_from(["unary", "nullary", "disjunctive", "constraint"]), max_size=4))
    heads = {f"h{index}": int(kind == "unary") for index, kind in enumerate(kinds) if kind in ("unary", "nullary")}
    defined = dict(DEFINITE)
    for index, kind in enumerate(kinds):
        positive = {**EDB, **defined}
        # "p :- not q.": a rule may have no positive body at all.
        text, bound = draw(body(positive, {**positive, **heads}, min_positive=draw(st.integers(0, 1))))
        if kind == "constraint":
            lines.append(f":- {text}.")
        elif kind == "disjunctive":
            lines.append(f"h{index}a({draw(argument(bound))}) | h{index}b({draw(argument(bound))}) :- {text}.")
            defined.update({f"h{index}a": 1, f"h{index}b": 1})
        else:
            lines.append(f"{draw(literal({f'h{index}': heads[f'h{index}']}, bound))} :- {text}.")
            defined[f"h{index}"] = heads[f"h{index}"]
    return "\n".join(lines)


windows = st.lists(st.sets(st.sampled_from(FACT_POOL)).map(lambda atoms: sorted(atoms, key=str)), min_size=1, max_size=5)


def models_of(ground):
    return {frozenset(model) for model in StableModelSolver(ground).models(limit=None)}


class TestAgainstReference:
    @given(programs(), windows, st.lists(st.booleans(), min_size=5, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_grounder_and_track_path_equal_the_reference(self, text, sequence, repeats):
        """Random slides through one track, some windows repeated so the hit path runs."""
        program = parse_program(text)
        plan = program.derived(RulePlan)
        candidates = reference_candidates(program, UNIVERSE)
        cache = GroundingCache()
        held = None
        for facts, repeat in zip(sequence, repeats):
            expected = reference_ground(candidates, facts)
            ground = Grounder(program, facts).ground()
            assert ground.facts == expected.facts
            assert ground.possible_atoms == expected.possible_atoms
            assert set(ground.rules) == set(expected.rules)

            for _ in range(1 + repeat):
                on_track, outcome = cache.ground_incremental(program, facts, track=0)
                assert outcome == ("hit" if plan.fact_set(facts) == held else "full")
                held = plan.fact_set(facts)
                assert on_track == ground  # facts, rules in order, possible atoms

            control = Control(program, grounding_cache=cache, delta_track=0)
            control.add_facts(facts)
            answers = {frozenset(model.atoms) for model in control.solve().models}
            assert control.ground_outcome == "hit"
            assert answers == models_of(expected)
