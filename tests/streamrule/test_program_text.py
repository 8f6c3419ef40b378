"""The program-as-text gate: every reasoner the repo builds ships as its spec.

A coordinator sends its reasoner to a worker as the program's text
(``encode_reasoner_spec``), which the worker parses (``reasoner_from_spec``);
no other way to install a reasoner exists.  That is only sound when the text
carries the program exactly, so this file pins, for every program the repo
ships, for the union program of a ``QueryServer`` and for generated programs:

* ``parse_program(p.to_text()).rules == p.rules``, and
* the rebuilt reasoner gives the original's answers on a window.

The other half of the contract: a program the text cannot carry is refused
at the coordinator, before a worker is dialled or spawned.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_e2e.programs import search_program
from repro.asp.grounding.grounder import GroundingCache
from repro.asp.solving.incremental import SolverCache
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import Rule
from repro.asp.syntax.terms import Constant, FunctionTerm
from repro.programs import fraud, iot
from repro.programs.traffic import motivating_example_window, traffic_program, traffic_program_prime
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend, SharedMemoryBackend
from repro.streamrule.codec import encode_reasoner_spec, reasoner_from_spec
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.server import QueryServer, StandingQuery
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from tests.asp.test_join_plans import FACT_POOL, programs
from tests.streamrule.conftest import InThreadTcpBackend

#: Every program the repo ships, with a window it is meant to reason over.
SHIPPED = {
    "traffic P": (traffic_program, motivating_example_window),
    "traffic P'": (traffic_program_prime, motivating_example_window),
    "fraud": (fraud.fraud_program, fraud.sample_window),
    "fraud extended": (fraud.fraud_program_extended, fraud.sample_window),
    "iot": (iot.iot_program, iot.sample_window),
    "iot extended": (iot.iot_program_extended, iot.sample_window),
    "search": (search_program, motivating_example_window),
}


def answers(reasoner, window):
    return set(reasoner.reason_item(WorkItem(facts=tuple(window))).answers)


def assert_ships_exactly(reasoner, window):
    program = reasoner.program
    assert parse_program(program.to_text()).rules == program.rules
    rebuilt = reasoner_from_spec(encode_reasoner_spec(reasoner))
    assert rebuilt.program.rules == program.rules and rebuilt.program.name == program.name
    assert rebuilt.input_predicates == reasoner.input_predicates
    assert rebuilt.output_predicates == reasoner.output_predicates
    assert answers(rebuilt, window) == answers(reasoner, window)


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_shipped_program_parses_back_to_its_rules(name):
    build, _ = SHIPPED[name]
    program = build()
    assert parse_program(program.to_text(), name=program.name).rules == program.rules


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_every_shipped_reasoner_answers_the_same_after_shipping(name):
    build, window = SHIPPED[name]
    reasoner = Reasoner(build(), grounding_cache=GroundingCache(), solver_cache=SolverCache(), max_models=8)
    rebuilt = reasoner_from_spec(encode_reasoner_spec(reasoner))
    assert rebuilt.max_models == 8
    assert rebuilt.grounding_cache is not None and rebuilt.grounding_cache is not reasoner.grounding_cache
    assert rebuilt.solver_cache is not None and rebuilt.solver_cache is not reasoner.solver_cache
    assert_ships_exactly(reasoner, window())


def test_a_query_server_union_program_ships_exactly():
    """The union of several tenants' programs, as the server builds it, is carried by its text."""
    queries = [
        StandingQuery(
            tenant=tenant,
            name="alerts",
            program=program,
            window=CountWindow(size=30),
            input_predicates=fraud.INPUT_PREDICATES,
        )
        for tenant, program in (("desk", fraud.fraud_program()), ("aml", fraud.fraud_program_extended()))
    ]
    with QueryServer() as server:
        for query in queries:
            server.register(query)
        union = server.combined_program
        reasoner = server._session.reasoner
        assert union is reasoner.program and union.name.startswith("union_v")
        assert len(union.rules) > len(fraud.fraud_program().rules)
        assert_ships_exactly(reasoner, fraud.sample_window())


# --------------------------------------------------------------------------- #
# Generated programs
# --------------------------------------------------------------------------- #
#: Quoted strings with the characters the text form must escape, or that a
#: careless renderer would drop: quotes, backslashes, comment and rule
#: punctuation, whitespace.
quoted = st.text(alphabet=st.sampled_from(list('ab"\\%.,:-() \n|;')), max_size=8).map(
    lambda value: Constant(value, quoted=True)
)
integers = st.integers(min_value=-(10**6), max_value=10**6).map(Constant)
symbols = st.sampled_from(["a", "b0", "c_d"]).map(Constant)
terms = st.recursive(
    st.one_of(quoted, integers, symbols),
    lambda inner: st.builds(FunctionTerm, st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6,
)


@st.composite
def extended_programs(draw):
    """The join-plan tests' two-layer programs plus facts over hostile terms, and rules reading them.

    The base strategy brings comparisons, disjunctive heads, constraints
    and rules without a positive body; the extra lines add quoted constants
    with escapes, negative integers and nested function terms, in facts and
    in comparisons against negative bounds.
    """
    text = draw(programs())
    lines = [text] if text else []
    for term in draw(st.lists(terms, max_size=4)):
        lines.append(str(Rule(head=(Atom("lab", (term,)),))))
    bound = draw(integers)
    lines.append(f"low(X) :- n(X), X > {bound}.")
    lines.append(f"tagged(Y) :- lab(Y), not low(Y), Y != {draw(quoted)}.")
    return "\n".join(lines)


windows = st.sets(st.sampled_from(FACT_POOL)).map(lambda atoms: sorted(atoms, key=str))


@given(extended_programs(), windows)
@settings(max_examples=150, deadline=None)
def test_generated_programs_ship_exactly(text, window):
    program = parse_program(text, name="generated")
    reasoner = Reasoner(program, input_predicates=["e", "n", "f", "z"])
    assert_ships_exactly(reasoner, window)


# --------------------------------------------------------------------------- #
# Refused at the coordinator, before anything is dialled or spawned
# --------------------------------------------------------------------------- #
def inexpressible_reasoner():
    """``Constant("two words")`` renders as ``label(two words).``, which does not parse."""
    rules = [Rule(head=(Atom("label", (Constant("two words"),)),)), *traffic_program().rules]
    return Reasoner(Program(rules, name="labelled"))


EXPECTED_REFUSAL = r"program 'labelled' cannot ship as text: rule 'label\(two words\).' does not parse back"


def test_a_shared_memory_backend_refuses_before_spawning():
    backend = SharedMemoryBackend(max_workers=1)
    with pytest.raises(ValueError, match=EXPECTED_REFUSAL):
        backend.start(inexpressible_reasoner())
    assert not backend.started and backend.slots is None  # no worker was spawned
    with StreamSession(inexpressible_reasoner(), backend=InlineBackend()) as session:
        assert session.evaluate_window(motivating_example_window()).answers  # inline needs no text


def test_a_tcp_backend_refuses_before_dialling():
    backend = InThreadTcpBackend(1)
    try:
        with pytest.raises(ValueError, match=EXPECTED_REFUSAL):
            backend.start(inexpressible_reasoner())
        assert not backend.started and backend.fleet is None
        assert [server.connections_served for server in backend.servers] == [0]  # listening, never dialled
    finally:
        for server in backend.servers:
            server.stop()
