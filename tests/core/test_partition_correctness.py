"""The paper's correctness condition as a generated property: PR_Dep against R.

``core/validation.py`` states the sufficient condition the paper's
conclusion hints at: a plan is *dependency-safe* when every edge of the
input dependency graph lies inside one community.  For a single-model
program the combining handler should then give R's answers.  This file
draws programs (the join-plan strategy and the negation strategy), input
predicates among their EDB, windows and plans -- the decomposing process's
own or any other -- and checks ``combine(PR_Dep answers)`` against the
brute-force stable-model oracle run on the whole window (R).

Dependency safety alone is not enough.  A union of partition answers is
sound for monotone rules, but a rule with ``not a`` (or a disjunctive rule,
whose minimality acts like one) is sound in a partition only when that
partition holds every input predicate ``a`` depends on.  Two small programs
show it: their plans pass ``validate_plan``, yet PR_Dep answers what R does
not (``xfail(strict=True)`` below).  The property is therefore asserted on
the plans that also keep negation co-located (:func:`negation_colocated`):
for every such rule, every input predicate under its negative literals (or
under its disjunctive heads) sits in every community that holds an input
predicate its positive body depends on -- in every community, when that
body depends on no input.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bench_e2e import streams
from bench_e2e.programs import SEARCH_OUTPUT_PREDICATES, search_program
from bench_e2e.workloads import WORKLOADS
from repro.asp.syntax.parser import parse_program
from repro.core.decomposition import decompose
from repro.core.input_dependency import build_input_dependency_graph
from repro.core.partitioner import DependencyPartitioner
from repro.core.plan import PartitioningPlan
from repro.core.validation import validate_plan
from repro.programs.traffic import INPUT_PREDICATES
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.asp.test_join_plans import EDB, FACT_POOL, dependencies, programs
from tests.asp.test_stable_models import EDB_POOL, negation_programs, stable_models
from tests.conftest import make_atom


def negation_colocated(program, inputs, plan):
    """Whether ``plan`` holds, beside every non-monotone rule, the inputs its negation needs."""
    below = dependencies(program)

    def inputs_under(predicates):
        return {found for predicate in predicates for found in below.get(predicate, set()) | {predicate} if found in inputs}

    everywhere = set(range(plan.community_count))
    for rule in program.rules:
        needed = inputs_under(literal.predicate for literal in rule.negative_body)
        if len(rule.head) > 1:
            needed |= inputs_under(rule.head_predicates())
        if not needed:
            continue
        feeding = inputs_under(literal.predicate for literal in rule.positive_body)
        holders = set().union(*map(plan.find_communities, feeding)) if feeding else everywhere
        if any(not holders <= plan.find_communities(predicate) for predicate in needed):
            return False
    return True


def answers(program, inputs, plan, window):
    """``(R's answers, PR_Dep's answers)`` over the reasoner's output predicates."""
    reasoner = Reasoner(program, inputs)
    reference = stable_models(program, window)
    if reference is None:
        return None, None
    wanted = reasoner.output_predicates  # a program without IDB reports whole models
    projected = {frozenset(atom for atom in model if not wanted or atom.predicate in wanted) for model in reference}
    with StreamSession(reasoner, partitioner=DependencyPartitioner(plan), backend=InlineBackend()) as session:
        partitioned = set(session.evaluate_window(window).answers)
    return projected, partitioned


@st.composite
def plans(draw, inputs, graph):
    """The decomposing process's plan, or any plan over ``inputs`` with 1-3 communities."""
    if draw(st.booleans()):
        return decompose(graph).plan
    count = draw(st.integers(1, 3))
    communities = st.frozensets(st.integers(0, count - 1), min_size=1)
    return PartitioningPlan({predicate: draw(communities) for predicate in sorted(inputs)}, count)


@st.composite
def cases(draw):
    """``(program, input predicates, window, input dependency graph, plan)``."""
    if draw(st.booleans()):
        text, edb, pool = draw(programs()), sorted(EDB), FACT_POOL
    else:
        text, edb, pool = draw(negation_programs(draw(st.booleans()))), ["m", "n"], EDB_POOL
    program = parse_program(text)
    inputs = draw(st.sets(st.sampled_from(edb), min_size=1))
    window = sorted((atom for atom in draw(st.sets(st.sampled_from(pool))) if atom.predicate in inputs), key=str)
    graph = build_input_dependency_graph(program, inputs)
    return program, inputs, window, graph, draw(plans(inputs, graph))


@settings(max_examples=300, deadline=None)
@given(cases())
def test_safe_plans_give_single_model_programs_rs_answers(case):
    program, inputs, window, graph, plan = case
    assume(validate_plan(graph, plan).is_dependency_safe and negation_colocated(program, inputs, plan))
    reference, partitioned = answers(program, inputs, plan, window)
    assume(reference is not None and len(reference) == 1)
    assert partitioned == reference


# --------------------------------------------------------------------------- #
# Dependency-safe, yet not answer-identical
# --------------------------------------------------------------------------- #
#: name -> (program, input predicates, plan communities, window)
COUNTEREXAMPLES = {
    # No positive body: the z partition derives ``out`` with no r in sight.
    "rule_without_positive_body": (
        "r :- p(X). r :- q(X). out :- not r.",
        {"p", "q", "z"},
        None,  # decompose's own plan: [p] [q] [z]
        [make_atom("p", 1), make_atom("z", 1)],
    ),
    # The duplicated boundary {s} meets only one of r's two inputs per community.
    "duplicated_boundary": (
        "r(X) :- p(X). r(X) :- q(X). out(X) :- s(X), not r(X).",
        {"p", "q", "s"},
        [["p", "s"], ["s", "q"]],
        [make_atom("s", 2), make_atom("q", 2)],
    ),
}


def counterexample(name):
    text, inputs, communities, window = COUNTEREXAMPLES[name]
    program = parse_program(text)
    graph = build_input_dependency_graph(program, inputs)
    plan = decompose(graph).plan if communities is None else PartitioningPlan.from_communities(communities)
    return program, inputs, graph, plan, window


@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_counterexample_is_dependency_safe_but_splits_negation(name):
    program, inputs, graph, plan, _ = counterexample(name)
    assert plan.community_count > 1
    assert validate_plan(graph, plan).is_dependency_safe
    assert not negation_colocated(program, inputs, plan)


@pytest.mark.xfail(strict=True, reason="validate_plan accepts plans that split a negated literal's inputs")
@pytest.mark.parametrize("name", sorted(COUNTEREXAMPLES))
def test_counterexample_gives_rs_answers(name):
    program, inputs, _, plan, window = counterexample(name)
    reference, partitioned = answers(program, inputs, plan, window)
    assert len(reference) == 1
    assert partitioned == reference


# --------------------------------------------------------------------------- #
# A multi-model program: PR_Dep takes a product of partition answers
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=1)
def search_windows():
    """``(plan, [(R's answers, PR_Dep's answers)] per window)`` on the search workload's stream.

    The benchmark's non-stratified program, ``decompose``'s plan for it, and
    the first 2 000 triples of ``search_inline``'s seed-2017 stream cut into
    400-triple windows sliding by 100 (17 windows).
    """
    workload = WORKLOADS["search_inline"]
    program = search_program()
    plan = decompose(build_input_dependency_graph(program, INPUT_PREDICATES)).plan
    stream = streams.chunk(workload, 2017, streams.SATURATION, 0, 2000)
    reasoner = Reasoner(program, INPUT_PREDICATES, SEARCH_OUTPUT_PREDICATES)
    pairs = []
    with StreamSession(
        search_program(),
        partitioner=DependencyPartitioner(plan),
        backend=InlineBackend(),
        input_predicates=INPUT_PREDICATES,
        output_predicates=SEARCH_OUTPUT_PREDICATES,
    ) as session:
        for window in CountWindow(size=workload.size, slide=workload.slide).windows(stream):
            pairs.append((set(reasoner.reason(list(window)).answers), set(session.evaluate_window(list(window)).answers)))
    return plan, pairs


def test_search_plan_is_dependency_safe_and_every_window_has_four_answer_sets():
    plan, pairs = search_windows()
    graph = build_input_dependency_graph(search_program(), INPUT_PREDICATES)
    assert plan.community_count == 2
    assert validate_plan(graph, plan).is_dependency_safe
    assert len(pairs) == 17
    assert all(len(reference) == 4 for reference, _ in pairs)
    # What PR_Dep gets wrong is extra answers: none of R's is lost.
    assert all(reference <= partitioned for reference, partitioned in pairs)


@pytest.mark.xfail(
    strict=True,
    reason="combine_answer_sets takes every product of partition answers where the theory asks for a join",
)
def test_search_program_windows_give_rs_answers():
    _, pairs = search_windows()
    assert [partitioned for _, partitioned in pairs] == [reference for reference, _ in pairs]
