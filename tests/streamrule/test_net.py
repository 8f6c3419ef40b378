"""Wire-layer tests: framing, handshake, the data plane, failure semantics.

The unhappy paths of the distributed tier, as specified in
``docs/wire-protocol.md``: handshake version mismatches refuse cleanly,
copy-run work frames are measurably smaller than full ones on sliding windows,
reconnects back off exponentially, a worker dying mid-window gets its slots
rerouted without losing or duplicating a window, and an empty fleet
degrades to inline evaluation.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.parser import parse_program
from repro.asp.syntax.terms import Variable
from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AsyncWorkerClient
from repro.streamrule.backends import InlineBackend, ProcessSlot, TcpBackend
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.errors import BackendConnectionError, BackendError, HandshakeError, ProtocolError
from repro.streamrule.fleet import WorkerEndpoint, WorkerFleet
from repro.streamrule.net import (
    BASE_DELAY,
    CONNECT_ATTEMPTS,
    CONNECT_TIMEOUT,
    MAGIC,
    MAX_DELAY,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RECONNECT_ATTEMPTS,
    ConnectionSettings,
    DeltaDecoder,
    DeltaShipper,
    FrameKind,
    FrameParser,
    ResultDecoder,
    ServerConnection,
    WorkerClient,
    apply_id_runs,
    backoff_delays,
    connect_with_backoff,
    diff_id_runs,
    frame_bytes,
    recv_exactly,
    recv_frame,
    send_frame,
    serve_worker_connection,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer, main as worker_main, parse_listen_address
from tests.conftest import make_atom
from tests.streamrule.test_protocol_core import ScriptedServer

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def choice_payload():
    return encode_reasoner_spec(choice_reasoner())


def work_item(count=3, track=0, epoch=0):
    return WorkItem(facts=tuple(make_atom("item", index) for index in range(count)), track=track, epoch=epoch)


def traffic_stream(length, seed=31):
    config = SyntheticStreamConfig(
        window_size=length, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=seed
    )
    return generate_window(config)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
class TestFraming:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, FrameKind.WORK, b"payload-bytes")
            kind, payload = recv_frame(right)
            assert kind is FrameKind.WORK
            assert payload == b"payload-bytes"
        finally:
            left.close()
            right.close()

    def test_empty_payload_frames(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, FrameKind.PING)
            kind, payload = recv_frame(right)
            assert kind is FrameKind.PING and payload == b""
        finally:
            left.close()
            right.close()

    def test_unknown_frame_kind_is_a_protocol_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x00\xfe")  # length 0, kind 254
            with pytest.raises(ProtocolError):
                recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_closed_peer_raises_eof(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(EOFError):
                recv_frame(right)
        finally:
            right.close()


# --------------------------------------------------------------------------- #
# The data plane: SYMBOLS + id-run WORK frames
# --------------------------------------------------------------------------- #
def pump(shipper, decoder, item):
    """Ship one item through a shipper/decoder pair, returning (kinds, rebuilt)."""
    kinds, rebuilt = [], None
    for kind, payload in shipper.encode_frames(item):
        kinds.append(kind)
        if kind is FrameKind.SYMBOLS:
            decoder.apply_symbols(payload)
        else:
            rebuilt = decoder.decode(payload)
    return kinds, rebuilt


class TestIdRuns:
    def test_round_trip_with_overlap(self):
        previous = tuple(range(100, 140))
        current = previous[10:] + tuple(range(500, 510))
        ops = diff_id_runs(previous, current)
        assert any(isinstance(op, tuple) for op in ops)  # a copy run was found
        assert apply_id_runs(previous, ops) == current

    def test_sliding_shape_is_one_copy_run(self):
        previous = tuple(range(20))
        current = previous[5:] + tuple(range(100, 105))
        ops = diff_id_runs(previous, current)
        assert ops[0] == (5, 15)  # the shared suffix, one copy op
        assert apply_id_runs(previous, ops) == current

    def test_regrouped_shape_copies_each_group(self):
        # A predicate-regrouping partitioner keeps the shared content
        # mid-sequence, per predicate group -- one copy run per group.
        group_a, group_b = tuple(range(12)), tuple(range(50, 62))
        current = group_a[4:] + (100, 101, 102) + group_b[4:] + (200, 201, 202)
        ops = diff_id_runs(group_a + group_b, current)
        copy_ops = [op for op in ops if isinstance(op, tuple)]
        assert len(copy_ops) == 2
        assert sum(length for _, length in copy_ops) == 16
        assert apply_id_runs(group_a + group_b, ops) == current

    def test_disjoint_content_is_all_literal(self):
        ops = diff_id_runs(tuple(range(10)), tuple(range(100, 110)))
        assert len(ops) == 1 and isinstance(ops[0], bytes)

    def test_duplicate_ids_round_trip(self):
        previous = (1,) * 10
        current = (1,) * 7 + (2, 3, 4)
        assert apply_id_runs(previous, diff_id_runs(previous, current)) == current

    def test_two_int_literal_run_is_not_mistaken_for_a_copy(self):
        # Over id tuples a two-int literal run would be structurally
        # identical to a (start, length) copy op; literals are packed to
        # bytes, so the two never collide.
        previous = ()
        current = (5, 7)
        ops = diff_id_runs(previous, current)
        assert all(isinstance(op, bytes) for op in ops)
        assert apply_id_runs(previous, ops) == current

    def test_out_of_range_copy_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            apply_id_runs((1, 2), ((0, 5),))


class TestDataPlaneCodec:
    def test_first_window_ships_symbols_then_work(self):
        shipper = DeltaShipper()
        frames = shipper.encode_frames(work_item(count=5))
        assert [kind for kind, _ in frames] == [FrameKind.SYMBOLS, FrameKind.WORK]
        assert not shipper.copied
        assert frames[0][1][:1] == b"{"  # the table tail is JSON, never a pickle
        rebuilt = pump(DeltaShipper(), DeltaDecoder(), work_item(count=5))[1]
        assert rebuilt == work_item(count=5)

    def test_steady_state_window_ships_only_copy_runs(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        first = work_item(count=10, track=3)
        pump(shipper, decoder, first)
        overlapping = WorkItem(facts=first.facts[2:] + (make_atom("item", 99),), track=3, epoch=1)
        pump(shipper, decoder, overlapping)  # interns item(99)
        steady = WorkItem(facts=overlapping.facts, track=3, epoch=2)
        kinds, rebuilt = pump(shipper, decoder, steady)
        assert kinds == [FrameKind.WORK] and shipper.copied  # no new symbols, no literal ids
        assert rebuilt == steady

    def test_round_trip_reconstructs_every_window(self):
        stream = traffic_stream(120)
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        for delta in CountWindow(size=40, slide=10).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), track=2, epoch=delta.index)
            kinds, rebuilt = pump(shipper, decoder, item)
            assert kinds[-1] is FrameKind.WORK
            assert rebuilt == item

    def test_sliding_delta_frames_are_measurably_smaller(self):
        """Acceptance: steady-state sliding windows ship slide-sized frames."""
        stream = traffic_stream(400)
        shipper = DeltaShipper()
        sizes = {False: [], True: []}
        for delta in CountWindow(size=150, slide=25).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), track=0, epoch=delta.index)
            kind, payload = shipper.encode_frames(item)[-1]
            sizes[shipper.copied].append(len(payload))
        assert len(sizes[False]) == 1  # only the first window ships full
        assert len(sizes[True]) >= 8  # every slide after that copies runs
        full = sizes[False][0]
        assert max(sizes[True]) < full / 2  # slide is 1/6 of the window
        assert sum(sizes[True]) / len(sizes[True]) < full / 3

    def test_tumbling_windows_ship_full(self):
        stream = traffic_stream(120)
        shipper = DeltaShipper()
        copied = []
        for delta in CountWindow(size=40).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), track=0, epoch=delta.index)
            shipper.encode_frames(item)
            copied.append(shipper.copied)
        assert not any(copied)

    def test_decoder_rejects_copy_runs_without_previous_window(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        first = work_item(count=10, track=7)
        for kind, payload in shipper.encode_frames(first):
            if kind is FrameKind.SYMBOLS:
                decoder.apply_symbols(payload)  # the table syncs, the WORK frame is lost
        overlapping = WorkItem(facts=first.facts[2:] + (make_atom("item", 99),), track=7, epoch=1)
        frames = shipper.encode_frames(overlapping)
        assert shipper.copied
        decoder.apply_symbols(frames[0][1])
        with pytest.raises(ProtocolError, match="out of range"):
            decoder.decode(frames[-1][1])

    def test_id_frames_beat_pickles_on_a_recurring_universe(self):
        """Acceptance: known facts cross the wire as 4-byte ids.

        The scenario copy runs cannot compress: windows drawn from a
        recurring fact universe but *reordered* each time (a hash
        partitioner regrouping facts, a shuffling source).  Each symbol is
        encoded once, in the first sync, and re-shipped as 4 bytes forever
        after -- far below what pickling every window's atoms would cost.
        """
        import random

        universe = [make_atom("reading", index) for index in range(100)]
        shuffler = random.Random(11)
        shipper = DeltaShipper()
        pickled_bytes = interned_bytes = 0
        for epoch in range(10):
            facts = list(universe)
            shuffler.shuffle(facts)
            item = WorkItem(facts=tuple(facts), track=0, epoch=epoch)
            pickled_bytes += len(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
            interned_bytes += sum(len(payload) for _, payload in shipper.encode_frames(item))
        assert interned_bytes < pickled_bytes / 2

    def test_decoder_rejects_a_symbol_gap(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        frames = shipper.encode_frames(work_item(count=5))
        # Drop the SYMBOLS frame: the work frame's ids cannot resolve.
        with pytest.raises(ProtocolError, match="malformed WORK payload"):
            decoder.decode(frames[-1][1])

    def test_symbol_sync_applies_idempotently(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        frames = shipper.encode_frames(work_item(count=4))
        sync_payload = frames[0][1]
        assert decoder.apply_symbols(sync_payload) == 4
        assert decoder.apply_symbols(sync_payload) == 0  # replay is a no-op

    def test_unencodable_fact_raises_and_leaves_the_shipper_in_sync(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        pump(shipper, decoder, work_item(count=3))
        with pytest.raises(TypeError, match="no wire encoding"):
            shipper.encode_frames(WorkItem(facts=(make_atom("item", 7), "not a fact")))
        kinds, rebuilt = pump(shipper, decoder, work_item(count=4, epoch=1))
        assert kinds == [FrameKind.SYMBOLS, FrameKind.WORK] and rebuilt == work_item(count=4, epoch=1)


class TestDataPlaneWire:
    def test_end_to_end_matches_inline(self):
        stream = traffic_stream(90)
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with WorkerServer() as server:
            with WorkerClient(server.address, encode_reasoner_spec(reasoner)) as client:
                inline = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
                for delta in CountWindow(size=30, slide=10).deltas(stream):
                    item = WorkItem(facts=tuple(delta.window), epoch=delta.index)
                    over_the_wire = client.submit_item(item)
                    local = inline.reason_item(item)
                    assert set(over_the_wire.answers) == set(local.answers)
                assert client.stats.symbol_frames > 0
                assert client.stats.bytes_symbols > 0

    def test_worker_failure_is_reported_and_the_connection_survives(self):
        non_ground = WorkItem(facts=(Atom("item", (Variable("X"),)),))
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload()) as client:
                worker = f"worker {server.address[0]}:{server.address[1]}"
                with pytest.raises(BackendError, match=f"^{worker} failed: GroundingError: non-ground fact"):
                    client.submit_item(non_ground)
                assert client.alive and client.submit_item(work_item()).answers


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
class TestHandshake:
    def test_version_mismatch_is_refused_with_both_versions(self):
        with ScriptedServer(_VERSION_99_REJECT, None) as server:
            with pytest.raises(HandshakeError) as outcome:
                WorkerClient(server.address, choice_payload(), attempts=1)
            message = str(outcome.value)
            assert "99" in message and str(PROTOCOL_VERSION) in message

    def test_mismatched_client_does_not_kill_the_server(self):
        with WorkerServer() as server:
            with socket.create_connection(server.address, timeout=10.0) as version_99_client:
                version_99_client.sendall(MAGIC + frame_bytes(FrameKind.HELLO, _compact_json({"protocol": 99})))
                assert recv_frame(version_99_client) == (FrameKind.REJECT, _reject_payload("protocol version mismatch"))
            assert server.running
            with WorkerClient(server.address, choice_payload(), attempts=1) as client:
                assert client.submit_item(work_item()).answers

    def test_hello_and_welcome_name_only_the_protocol(self):
        assert _json_hello() == b'{"protocol":4}'
        client, server = socket.socketpair()
        try:
            client.settimeout(10.0)
            client.sendall(MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()))
            with ThreadPoolExecutor(max_workers=1) as pool:
                served = pool.submit(serve_worker_connection, server)
                assert recv_frame(client) == (FrameKind.WELCOME, b'{"protocol":4}')
                client.shutdown(socket.SHUT_WR)  # hang up before the REASONER
                assert served.result(timeout=10.0).rejected is None
        finally:
            client.close()
            server.close()

    def test_heartbeat_ping(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload()) as client:
                latency = client.ping()
                assert latency >= 0.0
                assert client.stats.pings == 1
                assert client.try_ping()


def _compact_json(value):
    return json.dumps(value, separators=(",", ":")).encode()


def _pickled(value):
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _json_hello():
    return _compact_json({"protocol": PROTOCOL_VERSION})


def _reject_payload(reason):
    return _compact_json({"protocol": PROTOCOL_VERSION, "reason": reason})


#: What a protocol-99 daemon answers this client's ``HELLO`` with.
_VERSION_99_REJECT = (FrameKind.REJECT, _compact_json({"protocol": 99, "reason": "protocol version mismatch"}))


def _reasoner_refusal(payload, reason):
    """A REASONER the daemon cannot rebuild: WELCOME, then REJECT naming the cause."""
    reason = f"invalid reasoner: {reason}"
    return (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + frame_bytes(FrameKind.REASONER, payload),
        {},
        reason,
        [FrameKind.WELCOME, FrameKind.REJECT],
        _reject_payload(reason),
    )


_PICKLED_REASONER = _pickled(["item"])


#: The server's refusals: (client bytes, ServerConnection keywords,
#: ServerConnection.rejected, kinds of the frames the server sends before it
#: closes, the REJECT payload or None for a silent close).
REFUSALS = {
    "bad magic": (b"XXXX", {}, "bad magic", [], None),
    "non-HELLO first frame": (
        MAGIC + frame_bytes(FrameKind.PING), {}, "expected HELLO, got PING", [], None,
    ),
    "pickled HELLO": (
        # Never unpickled: the refusal is JSON.
        MAGIC + frame_bytes(FrameKind.HELLO, _pickled({"protocol": PROTOCOL_VERSION})),
        {},
        "control frames must be JSON",
        [FrameKind.REJECT],
        _reject_payload("control frames must be JSON"),
    ),
    "protocol mismatch": (
        MAGIC + frame_bytes(FrameKind.HELLO, _compact_json({"protocol": 99})),
        {},
        f"protocol 99 != {PROTOCOL_VERSION}",
        [FrameKind.REJECT],
        _reject_payload("protocol version mismatch"),
    ),
    "version-1 peer": (
        MAGIC + frame_bytes(
            FrameKind.HELLO,
            _compact_json({"protocol": 1, "capabilities": {"delta_shipping": True, "symbol_ids": True}}),
        ),
        {},
        f"protocol 1 != {PROTOCOL_VERSION}",
        [FrameKind.REJECT],
        _reject_payload("protocol version mismatch"),
    ),
    "version-2 peer": (
        # Version 2 shipped a pickled REASONER unless it offered the codec.
        MAGIC + frame_bytes(
            FrameKind.HELLO, _compact_json({"protocol": 2, "capabilities": {"restricted_codec": True}})
        ),
        {},
        f"protocol 2 != {PROTOCOL_VERSION}",
        [FrameKind.REJECT],
        _reject_payload("protocol version mismatch"),
    ),
    "version-3 peer": (
        # Version 3 still sent the WORK header's incremental flag.
        MAGIC + frame_bytes(FrameKind.HELLO, _compact_json({"protocol": 3})),
        {},
        f"protocol 3 != {PROTOCOL_VERSION}",
        [FrameKind.REJECT],
        _reject_payload("protocol version mismatch"),
    ),
    "non-JSON reasoner": _reasoner_refusal(
        b"not-a-reasoner",
        "ProtocolError: undecodable JSON payload: JSONDecodeError('Expecting value: line 1 column 1 (char 0)')",
    ),
    "reasoner field of the wrong type": _reasoner_refusal(
        _compact_json({"program": "p.", "input_predicates": "item", "output_predicates": []}),
        "ProtocolError: reasoner spec field 'input_predicates' must be a list of predicate names",
    ),
    "unparseable program text": _reasoner_refusal(
        _compact_json({"program": "p(X :- q.", "input_predicates": [], "output_predicates": []}),
        "ParseError: expected RPAREN, found IF (':-') at line 1, column 5",
    ),
    "pickled reasoner": _reasoner_refusal(
        _PICKLED_REASONER,
        "ProtocolError: undecodable JSON payload: "
        f"UnicodeDecodeError('utf-8', {_PICKLED_REASONER!r}, 0, 1, 'invalid start byte')",
    ),
    "missing AUTH": (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + frame_bytes(FrameKind.REASONER, b"not-a-reasoner"),
        {"auth_token": "secret"},
        "authentication required",
        [FrameKind.WELCOME, FrameKind.REJECT],
        _reject_payload("authentication required"),
    ),
    "bad MAC": (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + frame_bytes(FrameKind.AUTH, b'{"mac":"00"}'),
        {"auth_token": "secret"},
        "authentication failed",
        [FrameKind.WELCOME, FrameKind.REJECT],
        _reject_payload("authentication failed"),
    ),
    "non-REASONER frame": (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + frame_bytes(FrameKind.PING),
        {},
        "expected REASONER, got PING",
        [FrameKind.WELCOME],
        None,
    ),
    "unknown frame kind during the handshake": (
        MAGIC + struct.pack(">IB", 0, 200), {}, "unknown frame kind 200", [], None,
    ),
    "oversized frame during the handshake": (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + struct.pack(">IB", MAX_FRAME_BYTES + 1, FrameKind.REASONER),
        {},
        f"frame of {MAX_FRAME_BYTES + 1} bytes exceeds the {MAX_FRAME_BYTES}-byte bound",
        [FrameKind.WELCOME],
        None,
    ),
}


def serve_over_a_socket(sent, **keywords):
    """Serve ``sent`` with the daemon's socket driver; returns (record, bytes the server sent)."""
    client, server = socket.socketpair()
    try:
        client.settimeout(10.0)
        client.sendall(sent)
        with ThreadPoolExecutor(max_workers=1) as pool:
            served = pool.submit(serve_worker_connection, server, **keywords)
            received = b""
            while chunk := client.recv(65536):
                received += chunk
            record = served.result(timeout=10.0)
    finally:
        client.close()
        server.close()
    return record, received


def serve_without_a_socket(sent, **keywords):
    """Feed ``sent`` to a bare ``ServerConnection``; returns it and the bytes of its replies."""
    connection = ServerConnection(**keywords)
    replies = connection.receive_data(sent)
    return connection, b"".join(frame_bytes(*connection.respond(reply)) for reply in replies)


#: The two ways a server test is run: through the TCP daemon's driver, and
#: against the protocol core directly.
SERVE = {"socket": serve_over_a_socket, "sans-io": serve_without_a_socket}


class TestServerRefusals:
    """Every way the server refuses a peer, pinned to the byte."""

    @pytest.mark.parametrize("serve", sorted(SERVE))
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal(self, case, serve):
        sent, keywords, rejected, kinds, reject_payload = REFUSALS[case]
        record, received = SERVE[serve](sent, **keywords)
        frames = list(FrameParser().feed(received))
        assert record.closed and record.violation is None
        assert record.rejected == rejected
        assert [kind for kind, _ in frames] == kinds
        if reject_payload is not None:
            assert frames[-1] == (FrameKind.REJECT, reject_payload)


_NO_RUNS = struct.pack("<qq", 0, 0)  # track 0, epoch 0

#: Data frames a server must refuse after the handshake: (frame kind, payload).
MALFORMED_FRAMES = {
    "short WORK header": (FrameKind.WORK, b"\x00" * 5),
    # Protocol 3's header carried an incremental flag byte: to a version 4
    # server that byte is the start of a truncated id run.
    "protocol 3 WORK header": (FrameKind.WORK, struct.pack("<qqB", 0, 0, 1)),
    "unknown run kind": (FrameKind.WORK, _NO_RUNS + struct.pack("<BI", 7, 0)),
    "literal run past the payload": (FrameKind.WORK, _NO_RUNS + struct.pack("<BI", 0, 3) + b"\x00" * 4),
    "id no SYMBOLS frame introduced": (FrameKind.WORK, _NO_RUNS + struct.pack("<BII", 0, 1, 5)),
    "copy run without a previous window": (FrameKind.WORK, _NO_RUNS + struct.pack("<BII", 1, 4, 0)),
    "pickled SYMBOLS": (FrameKind.SYMBOLS, pickle.dumps({"start": 0, "symbols": []})),
}


def _handshake():
    """A client's bytes up to ``READY``: magic, ``HELLO``, ``REASONER``."""
    return MAGIC + frame_bytes(FrameKind.HELLO, _json_hello()) + frame_bytes(FrameKind.REASONER, choice_payload())


class TestMalformedDataFrames:
    """A malformed data frame gets one failed RESULT, then the server closes."""

    @pytest.mark.parametrize("serve", sorted(SERVE))
    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_server_reports_and_closes(self, case, serve):
        record, received = SERVE[serve](_handshake() + frame_bytes(*MALFORMED_FRAMES[case]))
        frames = list(FrameParser().feed(received))
        assert [kind for kind, _ in frames] == [FrameKind.WELCOME, FrameKind.READY, FrameKind.RESULT]
        assert record.items == 0 and record.rejected is None
        assert record.closed and record.violation is None
        failure = ResultDecoder("worker").decode(frames[-1][1])
        assert type(failure) is BackendError and str(failure).startswith("worker failed: ProtocolError: undecodable")


#: Frames the protocol does not allow after ``READY``: (the frame's bytes,
#: ServerConnection.violation).  The server drops the connection without a
#: word, as during the handshake, but names the violation in its record.
VIOLATIONS = {
    "HELLO after READY": (frame_bytes(FrameKind.HELLO, _json_hello()), "unexpected HELLO frame after READY"),
    "client-sent RESULT": (frame_bytes(FrameKind.RESULT, b"\x00"), "unexpected RESULT frame after READY"),
    "kind 200": (struct.pack(">IB", 0, 200), "unknown frame kind 200"),
}


class TestViolationsAfterReady:
    @pytest.mark.parametrize("serve", sorted(SERVE))
    @pytest.mark.parametrize("case", sorted(VIOLATIONS))
    def test_server_names_the_violation_and_closes(self, case, serve):
        sent, violation = VIOLATIONS[case]
        # A PING ahead of the violation is still answered.
        record, received = SERVE[serve](_handshake() + frame_bytes(FrameKind.PING) + sent)
        frames = list(FrameParser().feed(received))
        assert [kind for kind, _ in frames] == [FrameKind.WELCOME, FrameKind.READY, FrameKind.PONG]
        assert record.closed and record.pings == 1 and record.items == 0
        assert record.violation == violation and record.rejected is None

    @pytest.mark.parametrize(
        "ready, message",
        [
            (False, "rejected: unknown frame kind 200"),
            (True, "dropped after 0 items on a protocol violation: unknown frame kind 200"),
        ],
        ids=["handshake", "after-ready"],
    )
    def test_the_daemon_logs_a_violation_as_a_warning(self, ready, message, caplog):
        sent = (_handshake() if ready else MAGIC) + struct.pack(">IB", 0, 200)
        with caplog.at_level("INFO", logger="repro.streamrule.worker"), WorkerServer() as server:
            with socket.create_connection(server.address, timeout=10.0) as client:
                client.sendall(sent)
                while client.recv(65536):
                    pass
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not any(message in r.getMessage() for r in caplog.records):
                time.sleep(0.01)
        [record] = [record for record in caplog.records if message in record.getMessage()]
        assert record.levelname == "WARNING"
        assert not any("closed after" in r.getMessage() for r in caplog.records)


# --------------------------------------------------------------------------- #
# A spawned process worker answers hostile bytes as the socket driver does
# --------------------------------------------------------------------------- #
def serve_in_a_worker_process(sent):
    """Send ``sent`` to a spawned process worker; returns its exit code and the bytes it sent back."""
    slot = ProcessSlot(0)  # the worker runs serve_worker_connection on the other end of the pair
    try:
        slot.stream.settimeout(30.0)
        slot.stream.sendall(sent)
        received = b""
        while chunk := slot.stream.recv(65536):
            received += chunk
    finally:
        slot.close()
    return slot.process.exitcode, received


#: One refusal before READY and one violation after it.  The full tables
#: above already run the same driver over a socket pair; these two cover what
#: the process adds: the worker's end of the pair and its clean exit.
HOSTILE_TO_A_PROCESS_WORKER = {
    "refusal: bad magic": REFUSALS["bad magic"][0],
    "violation: kind 200": _handshake() + frame_bytes(FrameKind.PING) + VIOLATIONS["kind 200"][0],
}


@pytest.mark.slow  # every case spawns a worker process
class TestHostileBytesToAProcessWorker:
    @pytest.mark.parametrize("case", sorted(HOSTILE_TO_A_PROCESS_WORKER))
    def test_same_reply_bytes_as_the_socket_driver_then_a_clean_exit(self, case):
        sent = HOSTILE_TO_A_PROCESS_WORKER[case]
        record, expected = serve_over_a_socket(sent)
        assert record.closed
        exit_code, received = serve_in_a_worker_process(sent)
        assert received == expected
        assert exit_code == 0  # the worker closed its end and returned; nothing was killed


# --------------------------------------------------------------------------- #
# The server core without a socket: any bytes, at any stage
# --------------------------------------------------------------------------- #
def _stages():
    """(client bytes, keywords) bringing a server to each handshake stage, then the refusal table's."""
    hello = MAGIC + frame_bytes(FrameKind.HELLO, _json_hello())
    stages = [(b"", {}), (MAGIC, {}), (hello, {}), (hello, {"auth_token": "secret"}), (_handshake(), {})]
    return stages + [(REFUSALS[case][0], REFUSALS[case][1]) for case in sorted(REFUSALS)]


STAGES = _stages()

hostile_frames = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(list(FrameKind)), st.binary(max_size=48)).map(lambda frame: frame_bytes(*frame)),
        st.sampled_from([frame_bytes(*frame) for frame in MALFORMED_FRAMES.values()]),
        st.sampled_from([frame for frame, _ in VIOLATIONS.values()]),
        st.sampled_from([frame_bytes(FrameKind.PING), frame_bytes(FrameKind.WORK, _NO_RUNS)]),  # an empty window
        st.binary(max_size=16),  # torn headers, stray bytes
    ),
    max_size=8,
)


class TestServerCoreProperty:
    @given(stage=st.sampled_from(range(len(STAGES))), tail=hostile_frames, cuts=st.lists(st.integers(0, 512), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_bytes_end_in_a_reject_a_failed_result_or_a_named_violation(self, stage, tail, cuts):
        prefix, keywords = STAGES[stage]
        stream = prefix + b"".join(tail)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        unpickled = []
        with mock.patch.object(pickle, "loads", side_effect=lambda *a, **k: unpickled.append(a) or 1 / 0):
            connection = ServerConnection(**keywords)
            replies = []
            for start, end in zip(bounds, bounds[1:]):
                replies += [connection.respond(reply) for reply in connection.receive_data(stream[start:end])]
        assert unpickled == []
        # One reply per frame at most, each small: the peer cannot make the server amplify.
        assert len(replies) <= len(stream) // 5
        assert all(len(payload) <= 4096 for _, payload in replies)
        kinds = [kind for kind, _ in replies]
        failed = [payload[:1] == b"\x01" for kind, payload in replies if kind is FrameKind.RESULT]
        if not connection.closed:  # a failed RESULT here is an evaluation error: the connection survives it
            assert connection.rejected is None and connection.violation is None
            assert set(kinds) <= {FrameKind.WELCOME, FrameKind.READY, FrameKind.RESULT, FrameKind.PONG}
            return
        if kinds and kinds[-1] is FrameKind.REJECT:
            assert connection.rejected and FrameKind.REJECT not in kinds[:-1]
        elif failed and failed[-1] and kinds[-1] is FrameKind.RESULT:
            assert connection.rejected is None and connection.violation is None
        else:
            assert (connection.rejected is None) != (connection.violation is None)
        assert connection.receive_data(b"".join(tail) or frame_bytes(FrameKind.PING)) == []  # closed stays closed


# --------------------------------------------------------------------------- #
# Reconnect with bounded exponential backoff
# --------------------------------------------------------------------------- #
class TestBackoff:
    @staticmethod
    def _free_port():
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    def test_exhausted_budget_raises_connection_error(self):
        sleeps = []
        with pytest.raises(BackendConnectionError):
            connect_with_backoff(("127.0.0.1", self._free_port()), attempts=8, sleep=sleeps.append)
        # attempts - 1 pauses, doubling from BASE_DELAY up to the MAX_DELAY cap.
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]
        assert list(backoff_delays(8)) == [0.0, *sleeps]  # the schedule the asyncio dialer sleeps too

    def test_connects_once_the_worker_comes_back(self):
        port = self._free_port()
        server = WorkerServer(port=port)
        attempts = {"count": 0}

        def sleep_then_start(delay):
            attempts["count"] += 1
            if attempts["count"] == 2:
                server.start()  # the worker "restarts" during the backoff

        try:
            connection = connect_with_backoff(("127.0.0.1", port), attempts=5, sleep=sleep_then_start)
            connection.close()
            assert attempts["count"] >= 2
        finally:
            server.stop()

    def test_at_least_one_attempt_required(self):
        with pytest.raises(ValueError):
            connect_with_backoff(("127.0.0.1", 1), attempts=0)

    def test_the_asyncio_dialer_sleeps_the_same_schedule(self, monkeypatch):
        sleeps = []

        async def record(delay):
            sleeps.append(delay)

        monkeypatch.setattr(asyncio, "sleep", record)
        address = ("127.0.0.1", self._free_port())
        with pytest.raises(BackendConnectionError):
            asyncio.run(AsyncWorkerClient.connect(address, choice_payload(), attempts=8))
        assert [0.0, *sleeps] == list(backoff_delays(8))

    def test_the_dial_policy_keeps_the_former_defaults(self):
        assert (CONNECT_ATTEMPTS, RECONNECT_ATTEMPTS) == (5, 2)
        assert (BASE_DELAY, MAX_DELAY, CONNECT_TIMEOUT) == (0.05, 2.0, 5.0)

    def test_connection_settings_are_the_deployment_settings_only(self):
        assert list(ConnectionSettings.__dataclass_fields__) == ["ssl_context", "server_hostname", "auth_token"]
        arguments = {"ssl_context": None, "server_hostname": "worker", "auth_token": "t", "slots": 4}
        assert vars(ConnectionSettings.of(arguments)) == {
            "ssl_context": None, "server_hostname": "worker", "auth_token": "t"
        }


# --------------------------------------------------------------------------- #
# Worker death: rerouting without losing or duplicating windows
# --------------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_dead_worker_slots_reroute_to_survivors(self):
        stream = traffic_stream(200)
        window = CountWindow(size=80, slide=20)
        partitioner = HashPartitioner(3)
        reference = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with StreamSession(reference, partitioner=partitioner, backend=InlineBackend(simulated=False)) as session:
            expected = [
                {frozenset(answer) for answer in session.evaluate_window(list(w)).answers}
                for w in window.windows(stream)
            ]

        first, second = WorkerServer(), WorkerServer()
        first.start()
        second.start()
        try:
            backend = TcpBackend([first.address, second.address])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            solutions = []
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                for index, delta in enumerate(window.deltas(stream)):
                    if index == 2:
                        first.stop()  # one worker dies mid-stream
                    result = session.evaluate_window(list(delta.window))
                    solutions.append({frozenset(answer) for answer in result.answers})
                # No window lost, none duplicated, all answers exact.
                assert len(solutions) == len(expected)
                assert solutions == expected
                assert session.fallbacks == 0  # the fleet absorbed the fault
                assert backend.fleet.reroutes >= 1
                survivors = [str(endpoint) for endpoint in backend.fleet.alive_endpoints]
                assert survivors == [f"{second.address[0]}:{second.address[1]}"]
                # Every slot now routes to the survivor.
                assert set(backend.fleet.slot_table().values()) == set(survivors)
        finally:
            first.stop()
            second.stop()

    def test_empty_fleet_falls_back_inline(self):
        stream = traffic_stream(120)
        window = CountWindow(size=60, slide=30)
        partitioner = HashPartitioner(2)
        servers = [WorkerServer(), WorkerServer()]
        for server in servers:
            server.start()
        try:
            backend = TcpBackend([server.address for server in servers])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                deltas = list(window.deltas(stream))
                session.evaluate_window(list(deltas[0].window))
                for server in servers:
                    server.stop()  # the whole fleet goes dark
                result = session.evaluate_window(list(deltas[1].window))
                assert result.answers  # the stream kept flowing...
                assert session.fallbacks > 0  # ...on inline evaluation
                assert backend.fleet.alive_endpoints == []

                reference = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
                with StreamSession(reference, partitioner=partitioner) as inline_session:
                    expected = inline_session.evaluate_window(list(deltas[1].window))
                assert set(result.answers) == set(expected.answers)
        finally:
            for server in servers:
                server.stop()

    def test_fleet_refuses_without_fallback_when_disabled(self):
        server = WorkerServer()
        server.start()
        backend = TcpBackend([server.address])
        reasoner = choice_reasoner()
        try:
            with StreamSession(reasoner, backend=backend, inline_fallback=False) as session:
                session.evaluate_window([make_atom("item", 1)])
                server.stop()
                with pytest.raises(BackendConnectionError):
                    session.evaluate_window([make_atom("item", 2)])
        finally:
            server.stop()

    def test_worker_restarted_with_wrong_version_is_retired_not_fatal(self):
        # A supervisor restarts a dead worker on a mismatched build: the
        # mid-stream reconnect hits a HandshakeError, which must retire the
        # endpoint and reroute -- not crash the stream (version skew is
        # only fatal at backend start).
        first, second = WorkerServer(), WorkerServer()
        first.start()
        second.start()
        first_port = first.address[1]
        imposter = None
        try:
            backend = TcpBackend([first.address, second.address])
            with StreamSession(choice_reasoner(), backend=backend, inline_fallback=False) as session:
                session.evaluate_window([make_atom("item", 1)])
                first.stop()
                imposter = ScriptedServer(_VERSION_99_REJECT, None, port=first_port)
                result = session.evaluate_window([make_atom("item", 2)])
                assert result.answers  # rerouted to the survivor
                assert [str(e) for e in backend.fleet.alive_endpoints] == [
                    f"{second.address[0]}:{second.address[1]}"
                ]
        finally:
            first.stop()
            second.stop()
            if imposter is not None:
                imposter.__exit__()

    def test_heartbeat_discovers_a_dead_worker_between_windows(self):
        first, second = WorkerServer(), WorkerServer()
        first.start()
        second.start()
        try:
            backend = TcpBackend(
                [first.address, second.address],
                heartbeat_interval=0.05,
            )
            with StreamSession(choice_reasoner(), backend=backend) as session:
                session.evaluate_window([make_atom("item", 1)])
                first.stop()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and len(backend.fleet.alive_endpoints) > 1:
                    time.sleep(0.05)
                # The heartbeat noticed the death without any submit.
                assert len(backend.fleet.alive_endpoints) == 1
        finally:
            first.stop()
            second.stop()


class TestFleetCoordinator:
    def test_more_slots_than_endpoints_spread_round_robin(self):
        with WorkerServer() as first, WorkerServer() as second:
            fleet = WorkerFleet([first.address, second.address], slots=4)
            fleet.start(choice_payload())
            try:
                table = fleet.slot_table()
                assert len(table) == 4
                assert set(table.values()) == {str(WorkerEndpoint.parse(first.address)),
                                               str(WorkerEndpoint.parse(second.address))}
                assert table[0] == table[2] and table[1] == table[3]
            finally:
                fleet.close()

    def test_unreachable_endpoint_at_start_is_routed_around(self):
        dead_port_probe = socket.socket()
        dead_port_probe.bind(("127.0.0.1", 0))
        dead_address = dead_port_probe.getsockname()[:2]
        dead_port_probe.close()
        with WorkerServer() as alive:
            fleet = WorkerFleet([dead_address, alive.address])
            fleet.start(choice_payload())
            try:
                assert [str(e) for e in fleet.alive_endpoints] == [f"{alive.address[0]}:{alive.address[1]}"]
                assert fleet.roundtrip(0, work_item()).answers  # slot 0 rerouted
            finally:
                fleet.close()

    def test_readopt_revives_only_a_dead_endpoint(self):
        with WorkerServer() as server:
            fleet = WorkerFleet([server.address])
            fleet.start(choice_payload())
            try:
                assert not fleet.readopt(0)  # healthy: nothing to do
                with pytest.raises(ValueError):
                    fleet.readopt(1)  # not an endpoint of this fleet
                fleet.retire_endpoint(0)
                assert fleet.dead_endpoints and fleet.readoptions == 0
                assert fleet.readopt(0)
                assert not fleet.dead_endpoints and fleet.readoptions == 1
                assert fleet.roundtrip(0, work_item()).answers
            finally:
                fleet.close()

    def test_start_with_no_reachable_worker_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        fleet = WorkerFleet([address])
        with pytest.raises(BackendConnectionError):
            fleet.start(choice_payload())

    def test_endpoint_parsing(self):
        endpoint = WorkerEndpoint.parse("worker-3.internal:7700")
        assert endpoint.host == "worker-3.internal" and endpoint.port == 7700
        assert str(endpoint) == "worker-3.internal:7700"
        assert WorkerEndpoint.parse(endpoint) is endpoint
        assert WorkerEndpoint.parse(("127.0.0.1", 9)) == WorkerEndpoint("127.0.0.1", 9)
        with pytest.raises(ValueError):
            WorkerEndpoint.parse("no-port")

    def test_listen_address_parsing(self):
        assert parse_listen_address("0.0.0.0:7700") == ("0.0.0.0", 7700)
        with pytest.raises(ValueError):
            parse_listen_address("7700")
        with pytest.raises(ValueError):
            parse_listen_address("host:notaport")
        with pytest.raises(ValueError):
            parse_listen_address("host:70000")


class TestNoPushRejoin:
    """A revived worker rejoins by the heartbeat alone; nothing listens for it."""

    def test_the_worker_cli_refuses_the_announce_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_status:
            worker_main(["--announce", "127.0.0.1:1"])
        assert exit_status.value.code == 2
        assert "unrecognized arguments: --announce" in capsys.readouterr().err

    def test_a_frame_of_the_retired_kind_12_is_refused(self):
        assert 12 not in {kind.value for kind in FrameKind}
        record, received = serve_over_a_socket(MAGIC + struct.pack(">IB", 0, 12))
        assert record.closed and received == b""
        assert record.rejected == "unknown frame kind 12"


# --------------------------------------------------------------------------- #
# Wire statistics: copy runs visible end to end
# --------------------------------------------------------------------------- #
class TestWireStatistics:
    def test_sliding_stream_ships_mostly_deltas(self):
        stream = traffic_stream(200)
        window = CountWindow(size=80, slide=20)
        with WorkerServer() as server:
            backend = TcpBackend([server.address])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, partitioner=HashPartitioner(2), backend=backend) as session:
                for delta in window.deltas(stream):
                    session.evaluate_window(list(delta.window))
            stats = backend.transport_statistics()  # final snapshot survives close
        assert stats["items_delta"] > stats["items_full"]
        assert stats["bytes_delta"] / stats["items_delta"] < stats["bytes_full"] / stats["items_full"]

    def test_tumbling_stream_ships_everything_full(self):
        stream = traffic_stream(120)
        window = CountWindow(size=40)
        with WorkerServer() as server:
            backend = TcpBackend([server.address])
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, backend=backend) as session:
                for delta in window.deltas(stream):
                    session.evaluate_window(list(delta.window))
            stats = backend.transport_statistics()
        assert stats["items_delta"] == 0
        assert stats["items_full"] > 0


# --------------------------------------------------------------------------- #
# Pipelined connections: multiple outstanding frames per socket
# --------------------------------------------------------------------------- #
class _SilentServer:
    """Handshakes like a worker, then swallows frames without answering.

    The fixture for the fail-all-pending test: it lets any number of work
    frames pile up unanswered, then severs the connection on demand.
    """

    def __init__(self):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = self._listener.getsockname()[:2]
        self.frames_seen = 0
        self._connection = None
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        connection, _ = self._listener.accept()
        self._connection = connection
        try:
            assert recv_exactly(connection, len(MAGIC)) == MAGIC
            recv_frame(connection)  # HELLO
            send_frame(
                connection,
                FrameKind.WELCOME,
                json.dumps({"protocol": PROTOCOL_VERSION}).encode(),
            )
            recv_frame(connection)  # REASONER
            send_frame(connection, FrameKind.READY)
            while True:
                recv_frame(connection)  # swallow work frames, answer nothing
                self.frames_seen += 1
        except (EOFError, OSError):
            return

    def sever(self):
        if self._connection is not None:
            try:
                self._connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._connection.close()

    def close(self):
        self.sever()
        try:
            self._listener.close()
        except OSError:
            pass
        self._thread.join(timeout=5.0)


class TestPipelinedConnection:
    """The FIFO ticket queue: several frames in flight on one connection."""

    def test_concurrent_submits_share_one_connection(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload()) as client:
                items = [work_item(count=3, track=track, epoch=track) for track in range(6)]
                with ThreadPoolExecutor(max_workers=6) as pool:
                    results = list(pool.map(client.submit_item, items))
        assert all(result.answers for result in results)
        assert client.stats.items == 6
        assert client.pending_count == 0

    def test_heartbeat_interleaves_with_pipelined_work(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload()) as client:
                with ThreadPoolExecutor(max_workers=4) as pool:
                    work = [pool.submit(client.submit_item, work_item(track=track)) for track in range(3)]
                    ping = pool.submit(client.ping)
                    assert all(future.result().answers for future in work)
                    assert ping.result() >= 0.0
        assert client.stats.pings == 1
        assert client.stats.items == 3

    def test_connection_loss_fails_every_pending_ticket(self):
        server = _SilentServer()
        try:
            client = WorkerClient(server.address, choice_payload(), attempts=1)
            with ThreadPoolExecutor(max_workers=2) as pool:
                futures = [pool.submit(client.submit_item, work_item(track=track)) for track in range(2)]
                deadline = time.monotonic() + 5.0
                while client.pending_count < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert client.pending_count == 2  # both frames outstanding, none answered
                server.sever()
                for future in futures:
                    with pytest.raises(BackendConnectionError):
                        future.result(timeout=5.0)
            assert not client.alive
            assert client.pending_count == 0
        finally:
            server.close()
