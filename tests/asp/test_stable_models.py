"""Answer sets against a brute-force stable-model oracle.

The oracle is the definition (Gelfond-Lifschitz) run by enumeration: every
rule is instantiated over the Herbrand universe of the program and its
facts, a candidate set ``M`` of atoms is guessed, the reduct ``P^M`` drops
every instance whose negative body meets ``M`` (and strips the rest of their
negative bodies), and ``M`` is kept when it is a minimal model of ``P^M`` --
for a normal program, its least model -- that violates no constraint.  It
shares no code with the grounder or the solver: only the parser's syntax
objects and the comparison evaluator.  ``Control`` must return exactly the
oracle's answer sets, on a named table of textbook cases and on generated
programs with stratified and unstratified negation.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.asp.control import Control
from repro.asp.grounding.grounder import RulePlan
from repro.asp.syntax.parser import parse_program
from repro.programs.traffic import INPUT_PREDICATES, traffic_program, traffic_program_prime
from repro.streaming.format import DataFormatProcessor
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from tests.asp.test_join_plans import FACT_POOL, programs
from tests.conftest import make_atom

#: Most non-certain atoms the oracle enumerates subsets of (2**16 guesses).
CANDIDATE_CAP = 16


# --------------------------------------------------------------------------- #
# The oracle
# --------------------------------------------------------------------------- #
def instances(program, facts):
    """Every rule instance over the Herbrand universe whose comparisons hold."""
    universe = set()

    def collect(term):
        if term.is_ground():
            universe.add(term)
        for argument in getattr(term, "arguments", ()):
            collect(argument)

    atoms = list(facts)
    for rule in program.rules:
        atoms += list(rule.head) + [literal.atom for literal in rule.positive_body + rule.negative_body]
    for atom in atoms:
        for term in atom.arguments:
            collect(term)
    found = []
    for rule in program.rules:
        variables = sorted(rule.variables(), key=str)
        for values in itertools.product(sorted(universe, key=str), repeat=len(variables)):
            ground = rule.substitute(dict(zip(variables, values)))
            if all(comparison.evaluate() for comparison in ground.comparisons):
                positive = frozenset(literal.atom for literal in ground.positive_body)
                negative = frozenset(literal.atom for literal in ground.negative_body)
                found.append((frozenset(ground.head), positive, negative))
    return found


def closure(rules, start):
    """Close ``start`` under ``(head, positive body)`` rules, every head atom firing."""
    model, changed = set(start), True
    while changed:
        changed = False
        for head, positive in rules:
            if positive <= model and not head <= model:
                model |= head
                changed = True
    return model


def is_model(reduct, atoms):
    return all(not positive <= atoms or head & atoms for head, positive in reduct)


def stable_models(program, facts):
    """The stable models of ``program`` over ``facts``; ``None`` past the cap."""
    facts = frozenset(facts)
    ground = instances(program, facts)
    possible = closure([(head, positive) for head, positive, _ in ground if head], facts)
    relevant = [rule for rule in ground if rule[1] <= possible]
    # Atoms every stable model holds: the least model of the definite rules.
    certain = closure([(head, positive) for head, positive, negative in relevant if len(head) == 1 and not negative], facts)
    candidates = sorted(possible - certain, key=str)
    if len(candidates) > CANDIDATE_CAP:
        return None
    normal = all(len(head) <= 1 for head, _, _ in relevant)
    models = set()
    for bits in itertools.product((False, True), repeat=len(candidates)):
        chosen = [atom for atom, bit in zip(candidates, bits) if bit]
        guess = certain | set(chosen)
        reduct = [(head, positive) for head, positive, negative in relevant if head and not negative & guess]
        if not is_model(reduct, guess):
            continue
        if normal:
            if closure(reduct, facts) != guess:
                continue
        elif any(
            is_model(reduct, certain | set(subset))
            for size in range(len(chosen))
            for subset in itertools.combinations(chosen, size)
        ):
            continue
        if any(not head and positive <= guess and not negative & guess for head, positive, negative in relevant):
            continue
        models.add(frozenset(guess))
    return models


def control_models(program, facts):
    control = Control(program)
    control.add_facts(facts)
    return {frozenset(model.atoms) for model in control.solve().models}


# --------------------------------------------------------------------------- #
# Named cases
# --------------------------------------------------------------------------- #
def traffic_window(seed=124):
    """20 traffic triples over three segments and three cars, as atoms.

    Under this seed P derives a jam through its negated rule (r3) and P'
    derives one more through r7.
    """
    config = SyntheticStreamConfig(
        window_size=20, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed,
        location_count=3, car_count=3,
    )
    return DataFormatProcessor().to_atoms(generate_window(config))


NAMED = {
    "even_loop": ("a :- not b. b :- not a.", 2),
    "odd_loop": ("a :- not b. b :- not c. c :- not a.", 0),
    "constraint_kills_a_model": ("a :- not b. b :- not a. :- a.", 1),
    "choice": ("item(1). item(2). in(X) :- item(X), not out(X). out(X) :- item(X), not in(X).", 4),
    "disjunctive_minimality": ("a | b. b | c.", 2),
    "stratified_not_chain": ("p(1). p(2). r(2). q(X) :- p(X), not r(X). s(X) :- p(X), not q(X).", 1),
    "positive_loop_is_unfounded": ("a :- b. b :- a. c :- not a.", 1),
    "loop_behind_a_choice": ("a :- not b. b :- not a. c :- a. c :- d. d :- c.", 2),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_program_matches_the_oracle(name):
    text, count = NAMED[name]
    program = parse_program(text)
    expected = stable_models(program, [])
    assert len(expected) == count
    assert control_models(program, []) == expected


@pytest.mark.parametrize(
    "program, jams", [(traffic_program, 1), (traffic_program_prime, 2)], ids=["P", "P_prime"]
)
def test_traffic_window_matches_the_oracle(program, jams):
    facts = traffic_window()
    expected = stable_models(program(), facts)
    assert expected is not None and len(expected) == 1
    assert sum(atom.predicate == "traffic_jam" for atom in next(iter(expected))) == jams
    assert control_models(program(), facts) == expected


# --------------------------------------------------------------------------- #
# Generated programs
# --------------------------------------------------------------------------- #
EDB_POOL = [make_atom(predicate, value) for predicate in ("n", "m") for value in range(3)]
IDB = ("p", "q", "r", "s")


@st.composite
def negation_programs(draw, stratified):
    """Unary normal rules over ``n``/``m`` with default negation.

    Stratified: a rule for ``IDB[i]`` uses ``IDB[:i+1]`` positively (so
    positive recursion stays inside its stratum) and negates only the EDB
    and ``IDB[:i]``.  Unstratified: any IDB predicate under either sign,
    the rule's own head included, which gives even and odd negative loops
    and positive loops whose support hangs on them.
    """
    lines = []
    terms = st.sampled_from(["X", "X", "X", "0"])
    for index, head in enumerate(IDB):
        positive_pool = ["m", *(IDB[: index + 1] if stratified else IDB)]
        negative_pool = ["n", "m", *(IDB[:index] if stratified else IDB)]
        for _ in range(draw(st.integers(1, 2))):
            body = ["n(X)"]
            for _ in range(draw(st.integers(0, 2))):
                body.append(f"{draw(st.sampled_from(positive_pool))}({draw(terms)})")
            for _ in range(draw(st.integers(0, 2))):
                body.append(f"not {draw(st.sampled_from(negative_pool))}({draw(terms)})")
            lines.append(f"{head}(X) :- {', '.join(body)}.")
    return "\n".join(lines)


@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_generated_negation_matches_the_oracle(stratified, data):
    program = parse_program(data.draw(negation_programs(stratified), label="program"))
    facts = sorted(data.draw(st.sets(st.sampled_from(EDB_POOL)), label="facts"), key=str)
    expected = stable_models(program, facts)
    assume(expected is not None)
    if stratified:
        assert len(expected) == 1
    assert control_models(program, facts) == expected


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_slides_over_one_program_match_the_oracle(data):
    """Every window of a slide sequence, solved over one shared program.

    Only the program's compiled :class:`RulePlan` carries from one window
    to the next: each window is grounded and solved from scratch, repeated
    windows included.
    """
    program = parse_program(data.draw(negation_programs(False), label="program"))
    windows = data.draw(st.lists(st.sets(st.sampled_from(EDB_POOL)), min_size=2, max_size=4), label="windows")
    expected = [stable_models(program, sorted(facts, key=str)) for facts in windows]
    assume(all(models is not None for models in expected))
    plan = program.derived(RulePlan)
    for facts, models in zip(windows, expected):
        assert control_models(program, sorted(facts, key=str)) == models
    assert program.derived(RulePlan) is plan


def mixed_strata_text(rng):
    """A decided prefix (``p``, ``q``) under an even loop (``a``, ``b``) and its consumers.

    ``p`` and ``q`` are stratified over ``n``/``m``, so grounding decides
    them; ``a`` and ``b`` negate each other and nothing negates itself, so
    the loop is even and a window where both bodies hold for some ``X`` has
    two or more stable models.  The loop and its consumers (``c``, ``d``)
    use the prefix under both signs, which crosses the boundary between
    what grounding decides and what the solver searches.  ``rng`` is any
    ``random.Random``: hypothesis's (which shrinks) or a seeded one.
    Windows come from :data:`MIXED_POOL`, so the oracle's guesses stay
    under its cap.
    """
    decided = ["p(X)", "not p(X)", "q(X)", "not q(X)", "m(X)", "not m(X)", "not m(0)"]
    lines = [
        f"p(X) :- {', '.join(['n(X)', *rng.sample(['m(X)', 'not m(0)'], rng.randint(0, 1))])}.",
        f"q(X) :- n(X), {rng.choice(['p(X)', 'not p(X)', 'not m(X)'])}.",
    ]
    for head, other in (("a", "b"), ("b", "a")):
        lines.append(f"{head}(X) :- {', '.join(['n(X)', *rng.sample(decided, rng.randint(0, 1)), f'not {other}(X)'])}.")
    lines.append(f"c(X) :- {rng.choice(['a(X)', 'b(X)'])}{rng.choice(['', ', q(X)', ', not p(X)'])}.")
    lines.append(f"d(X) :- n(X), {rng.choice(['not c(X)', 'not a(X)', 'c(X)'])}{rng.choice(['', ', p(X)', ', not q(X)'])}.")
    return "\n".join(lines)


#: Two constants: six undecided predicates over them stay within the oracle's cap.
MIXED_POOL = [make_atom(predicate, value) for predicate in ("n", "m") for value in range(2)]


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(st.sets(st.sampled_from(MIXED_POOL)), min_size=1, max_size=3))
def test_mixed_strata_match_the_oracle(rng, windows):
    """A fresh control per window, against the oracle."""
    program = parse_program(mixed_strata_text(rng))
    for facts in windows:
        facts = sorted(facts, key=str)
        expected = stable_models(program, facts)
        assert expected is not None
        assert control_models(program, facts) == expected


def test_mixed_strata_draw_several_models():
    """A quarter of the drawn windows or more have two or more stable models."""
    several = 0
    for seed in range(200):
        rng = random.Random(seed)
        program = parse_program(mixed_strata_text(rng))
        assert {"p", "q"} <= program.derived(RulePlan).decided and "a" not in program.derived(RulePlan).decided
        facts = sorted((atom for atom in MIXED_POOL if rng.random() < 0.5), key=str)
        several += len(stable_models(program, facts)) >= 2
    assert several >= 50, f"{several} of 200 windows have two or more stable models"


@settings(max_examples=100, deadline=None)
@given(programs(), st.sets(st.sampled_from(FACT_POOL)))
def test_generated_disjunctive_programs_match_the_oracle(text, facts):
    program = parse_program(text)
    facts = sorted(facts, key=str)
    expected = stable_models(program, facts)
    assume(expected is not None)
    assert control_models(program, facts) == expected
