"""Codec tests: the structural encodings, the reasoner spec, and its refusals.

Every peer speaks one dialect (``docs/deployment-security.md``): programs
travel as text and worker errors as JSON envelopes, on the data plane every
transport shares (facts and answers as interned ids, symbol tails as
structural JSON) -- never a pickle byte in either direction.  These tests
pin the three promises that make it safe to expose:

* **round trip** -- structural encodings and the reasoner spec rebuild
  exactly what was sent, and a program whose text would not parse back to
  the same rules is refused at the coordinator, before anything is dialled;
* **refusals** -- a pickled ``REASONER`` or ``HELLO`` is never unpickled:
  the daemon answers with a loud ``REJECT``, not a hang or a misparse;
* **equivalence** -- the answers that come back over the wire are exactly
  the inline oracle's, across the sync and asyncio clients.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket

import pytest

from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AsyncWorkerClient
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.program import Program
from repro.asp.syntax.rules import Rule
from repro.asp.syntax.terms import Constant, Variable
from repro.streamrule.codec import (
    decode_fact,
    encode_fact,
    encode_reasoner_spec,
    reasoner_from_spec,
)
from repro.streamrule.errors import BackendError, HandshakeError, ProtocolError
from repro.streamrule.net import (
    MAGIC,
    PROTOCOL_VERSION,
    DeltaShipper,
    FrameKind,
    ResultDecoder,
    ResultEncoder,
    WorkerClient,
    recv_frame,
    send_frame,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer
from repro.streaming.triples import Triple
from tests.conftest import make_atom

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def work_item(count=3, track=0, epoch=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track, epoch=epoch)


def traffic_stream(length, seed=59):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


# --------------------------------------------------------------------------- #
# Structural encodings
# --------------------------------------------------------------------------- #
class TestFactEncoding:
    def test_atom_round_trip(self):
        atom = make_atom("item", 3)
        assert decode_fact(encode_fact(atom)) == atom

    def test_nested_function_terms_round_trip(self):
        program = parse_program('p(f(g(a), "quoted", 7)).')
        atom = program.rules[0].head[0]
        assert decode_fact(encode_fact(atom)) == atom

    def test_triple_round_trip(self):
        triple = Triple("s1", "speed", 42, timestamp=17)
        assert decode_fact(encode_fact(triple)) == triple

    def test_untimestamped_triple_round_trip(self):
        triple = Triple("s1", "near", "s2")
        assert decode_fact(encode_fact(triple)) == triple

    def test_garbage_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            decode_fact(["x", "no-such-tag"])

    def test_a_non_fact_has_no_encoding(self):
        with pytest.raises(TypeError, match="no wire encoding"):
            encode_fact(object())


class TestReasonerSpec:
    def test_round_trip_preserves_semantics(self):
        original = choice_reasoner()
        rebuilt = reasoner_from_spec(encode_reasoner_spec(original))
        assert rebuilt.input_predicates == original.input_predicates
        assert rebuilt.output_predicates == original.output_predicates
        item = work_item(4)
        expected = {frozenset(answer) for answer in original.reason_item(item).answers}
        actual = {frozenset(answer) for answer in rebuilt.reason_item(item).answers}
        assert actual == expected

    def test_spec_is_pure_json(self):
        payload = encode_reasoner_spec(choice_reasoner())
        assert payload[:1] == b"{"  # starts as JSON, cannot be sniffed as pickle

    def test_pickle_payload_is_rejected(self):
        with pytest.raises(ProtocolError):
            reasoner_from_spec(pickle.dumps(choice_reasoner().input_predicates))

    def test_a_program_text_cannot_carry_is_refused_naming_the_rule(self):
        """``Constant("two words")`` renders as ``label(two words).``, which does not parse."""
        program = Program(
            [Rule(head=(Atom("label", (Constant("two words"),)),)), *parse_program(CHOICE_PROGRAM).rules],
            name="labels",
        )
        with pytest.raises(ValueError, match=r"program 'labels' cannot ship as text: rule 'label\(two words\).'"):
            encode_reasoner_spec(Reasoner(program, input_predicates=["item"]))

    def test_a_rule_that_parses_differently_is_refused(self):
        """An unquoted ``Constant("Item")`` would come back as the variable ``Item``."""
        program = Program([*parse_program(CHOICE_PROGRAM).rules, Rule(head=(Atom("kind", (Constant("Item"),)),))])
        with pytest.raises(ValueError, match=r"rule 'kind\(Item\).' does not parse back to itself"):
            encode_reasoner_spec(Reasoner(program, input_predicates=["item"]))


def non_ground_item():
    """A window the worker cannot evaluate: grounding rejects a fact with a variable."""
    return WorkItem(facts=(Atom("item", (Variable("X"),)),), track=0, epoch=0)


class TestResultCodec:
    def test_result_round_trip(self):
        reasoner = choice_reasoner()
        encoder, decoder = ResultEncoder(), ResultDecoder("worker w:1")
        for count in (3, 4, 4):  # the last result needs no table tail
            result = reasoner.reason_item(work_item(count))
            decoded = decoder.decode(encoder.encode(result))
            assert decoded.answers == result.answers
            assert decoded.metrics == result.metrics

    def test_retired_repair_counters_leave_the_wire(self):
        """The three retired repair counters are not on the wire; they decode as 0."""
        payload = ResultEncoder().encode(choice_reasoner().reason_item(work_item(3)))
        for name in ("delta_repairs", "repair_size", "repair_rules_changed"):
            assert name.encode() not in payload
        decoded = ResultDecoder("worker w:1").decode(payload)
        metrics = decoded.metrics
        assert (metrics.delta_repairs, metrics.repair_size, metrics.repair_rules_changed) == (0, 0, 0)

    def test_error_decodes_as_backend_error(self):
        payload = ResultEncoder().encode_failure(ValueError("worker-side boom"))
        assert payload[1:] == b'{"error":{"kind":"ValueError","message":"worker-side boom"}}'
        failure = ResultDecoder("worker w:1").decode(payload)
        assert type(failure) is BackendError
        assert str(failure) == "worker w:1 failed: ValueError: worker-side boom"


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
class TestHandshake:
    def test_text_spec_round_trip(self):
        with WorkerServer(port=0) as server:
            with WorkerClient(server.address, encode_reasoner_spec(choice_reasoner())) as client:
                result = client.submit_item(work_item(3))
            assert len(result.answers) == 8  # 2^3 picked/dropped choices

    def test_pickled_reasoner_is_refused_as_invalid(self):
        """A coordinator of the retired pickle dialect is told why, never unpickled."""
        with WorkerServer(port=0) as server:
            with pytest.raises(HandshakeError, match="rejected the handshake: invalid reasoner: ProtocolError"):
                WorkerClient(server.address, pickle.dumps(choice_reasoner().output_predicates))

    def test_pickled_hello_is_rejected(self):
        """The server refuses even to unpickle the HELLO frame."""
        with WorkerServer(port=0) as server:
            with socket.create_connection(server.address, timeout=5.0) as raw:
                raw.sendall(MAGIC)
                send_frame(
                    raw,
                    FrameKind.HELLO,
                    pickle.dumps({"protocol": PROTOCOL_VERSION}),
                )
                kind, payload = recv_frame(raw)
            assert kind is FrameKind.REJECT
            assert json.loads(payload) == {"protocol": PROTOCOL_VERSION, "reason": "control frames must be JSON"}

    def test_client_work_never_ships_pickle(self):
        """Every frame a client sends after the handshake is JSON or packed ids."""
        with WorkerServer(port=0) as server:
            with WorkerClient(server.address, encode_reasoner_spec(choice_reasoner())) as client:
                client.submit_item(work_item(4))
        # Inspect the same frame sequence on a fresh shipper (poking the
        # client's own shipper would desync its per-track state).
        shipper = DeltaShipper()
        for item in (work_item(4, epoch=0), work_item(5, epoch=1)):
            for kind, payload in shipper.encode_frames(item):
                assert b"\x80" not in payload[:2]  # no pickle protocol header
                assert kind is FrameKind.WORK or json.loads(payload)["symbols"]


# --------------------------------------------------------------------------- #
# Answer equivalence over the wire
# --------------------------------------------------------------------------- #
def inline_answers_per_window(window_policy, stream, partitioner):
    reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
    with StreamSession(reasoner, partitioner=partitioner, backend=InlineBackend(simulated=False)) as session:
        return [
            {frozenset(answer) for answer in session.evaluate_window(list(window)).answers}
            for window in window_policy.windows(stream)
        ]


class TestEquivalence:
    def test_tcp_backend_matches_inline(self):
        stream = traffic_stream(120)
        window_policy = CountWindow(size=40, slide=20)
        partitioner = HashPartitioner(2)
        expected = inline_answers_per_window(window_policy, stream, partitioner)
        with WorkerServer(port=0) as server:
            backend = TcpBackend([f"{server.address[0]}:{server.address[1]}"])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                actual = [
                    {frozenset(a) for a in session.evaluate_window(list(delta.window)).answers}
                    for delta in window_policy.deltas(stream)
                ]
                assert session.fallbacks == 0
        assert actual == expected

    def test_async_client_round_trip(self):
        async def run():
            with WorkerServer(port=0) as server:
                client = await AsyncWorkerClient.connect(server.address, encode_reasoner_spec(choice_reasoner()))
                try:
                    first = await client.submit_item(work_item(3, epoch=0))
                    second = await client.submit_item(WorkItem(facts=work_item(3).facts, track=0, epoch=1))
                finally:
                    await client.close()
                return first, second

        first, second = asyncio.run(run())
        expected = {frozenset(a) for a in choice_reasoner().reason_item(work_item(3)).answers}
        assert {frozenset(a) for a in first.answers} == expected
        assert {frozenset(a) for a in second.answers} == expected

    def test_worker_errors_surface_without_pickle(self):
        """A worker-side failure crosses the wire as BackendError."""
        with WorkerServer(port=0) as server:
            with WorkerClient(server.address, encode_reasoner_spec(choice_reasoner())) as client:
                with pytest.raises(BackendError, match="failed: GroundingError: non-ground fact") as raised:
                    client.submit_item(non_ground_item())
                assert type(raised.value) is BackendError  # not a connection error: no reroute
                assert client.submit_item(work_item(3)).answers

    def test_worker_errors_surface_over_the_async_client(self):
        async def run():
            with WorkerServer(port=0) as server:
                client = await AsyncWorkerClient.connect(server.address, encode_reasoner_spec(choice_reasoner()))
                try:
                    with pytest.raises(BackendError, match="failed: GroundingError: non-ground fact") as raised:
                        await client.submit_item(non_ground_item())
                    return type(raised.value), await client.submit_item(work_item(3))
                finally:
                    await client.close()

        failure, result = asyncio.run(run())
        assert failure is BackendError and result.answers
