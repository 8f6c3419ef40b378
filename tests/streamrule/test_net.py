"""Wire-layer tests: framing, handshake, delta shipping, failure semantics.

The unhappy paths of the distributed tier, as specified in
``docs/wire-protocol.md``: handshake version mismatches refuse cleanly,
delta frames are measurably smaller than full fact sets on sliding windows,
reconnects back off exponentially, a worker dying mid-window gets its slots
rerouted without losing or duplicating a window, and an empty fleet
degrades to inline evaluation.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.asp.syntax.parser import parse_program
from repro.core.partitioner import HashPartitioner
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.window import CountWindow
from repro.streamrule.backends import InlineBackend, TcpBackend
from repro.streamrule.errors import BackendConnectionError, HandshakeError, ProtocolError
from repro.streamrule.fleet import WorkerEndpoint, WorkerFleet
from repro.streamrule.net import (
    MAGIC,
    PROTOCOL_VERSION,
    DeltaDecoder,
    DeltaShipper,
    FrameKind,
    FrameParser,
    IdFactDelta,
    IdWorkItem,
    WorkerClient,
    apply_facts_diff,
    apply_id_runs,
    connect_with_backoff,
    diff_facts,
    diff_id_runs,
    frame_bytes,
    overlap_length,
    recv_exactly,
    recv_frame,
    send_frame,
    serve_worker_connection,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer, parse_listen_address
from tests.conftest import make_atom

CHOICE_PROGRAM = """\
picked(X) :- item(X), not dropped(X).
dropped(X) :- item(X), not picked(X).
"""


def choice_reasoner():
    return Reasoner(parse_program(CHOICE_PROGRAM), input_predicates=["item"])


def choice_payload():
    return pickle.dumps(choice_reasoner())


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
# Delta shipping codec
# --------------------------------------------------------------------------- #
class TestOverlap:
    def test_sliding_overlap(self):
        previous = tuple(range(10))
        current = tuple(range(3, 13))
        assert overlap_length(previous, current) == 7

    def test_disjoint_windows(self):
        assert overlap_length((1, 2, 3), (4, 5, 6)) == 0

    def test_identical_windows(self):
        facts = tuple(range(5))
        assert overlap_length(facts, facts) == 5

    def test_empty_sides(self):
        assert overlap_length((), (1,)) == 0
        assert overlap_length((1,), ()) == 0

    def test_current_contained_in_previous_suffix(self):
        assert overlap_length((1, 2, 3, 4), (3, 4)) == 2


class TestFactsDiff:
    def test_sliding_shape_is_one_copy_run(self):
        previous = tuple(make_atom("p", value) for value in range(20))
        current = previous[5:] + tuple(make_atom("p", value) for value in range(100, 105))
        ops = diff_facts(previous, current)
        assert ops[0] == (5, 15)  # the shared suffix, one copy op
        assert apply_facts_diff(previous, ops) == current

    def test_regrouped_shape_copies_each_group(self):
        # A predicate-regrouping partitioner keeps the shared content
        # mid-sequence, per predicate group -- one copy run per group.
        group_a = tuple(make_atom("a", value) for value in range(12))
        group_b = tuple(make_atom("b", value) for value in range(12))
        previous = group_a + group_b
        current = (
            group_a[4:] + tuple(make_atom("a", value) for value in range(100, 103))
            + group_b[4:] + tuple(make_atom("b", value) for value in range(200, 203))
        )
        ops = diff_facts(previous, current)
        copy_ops = [op for op in ops if isinstance(op[0], int)]
        assert len(copy_ops) == 2
        assert sum(length for _, length in copy_ops) == 16
        assert apply_facts_diff(previous, ops) == current

    def test_disjoint_content_is_all_literal(self):
        previous = tuple(make_atom("p", value) for value in range(10))
        current = tuple(make_atom("p", value) for value in range(100, 110))
        ops = diff_facts(previous, current)
        assert len(ops) == 1 and not isinstance(ops[0][0], int)
        assert apply_facts_diff(previous, ops) == current

    def test_duplicate_facts_round_trip(self):
        repeated = make_atom("p", 1)
        previous = (repeated,) * 10
        current = (repeated,) * 7 + tuple(make_atom("q", value) for value in range(3))
        ops = diff_facts(previous, current)
        assert apply_facts_diff(previous, ops) == current

    def test_out_of_range_copy_op_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            apply_facts_diff((make_atom("p", 1),), ((0, 5),))


class TestDeltaCodec:
    def test_round_trip_reconstructs_every_window(self):
        stream = traffic_stream(120)
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        for delta in CountWindow(size=40, slide=10).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), delta=delta, track=2, epoch=delta.index)
            kind, payload = shipper.encode_frames(item)[-1]
            rebuilt = decoder.decode(kind, payload)
            assert rebuilt.facts == item.facts
            assert rebuilt.track == 2 and rebuilt.epoch == delta.index
            assert rebuilt.wants_incremental == item.wants_incremental

    def test_sliding_delta_frames_are_measurably_smaller(self):
        """Acceptance: steady-state sliding windows ship WindowDelta-sized frames."""
        stream = traffic_stream(400)
        shipper = DeltaShipper()
        sizes = {FrameKind.WORK: [], FrameKind.DELTA: []}
        for delta in CountWindow(size=150, slide=25).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), delta=delta, track=0, epoch=delta.index)
            kind, payload = shipper.encode_frames(item)[-1]
            sizes[kind].append(len(payload))
        assert len(sizes[FrameKind.WORK]) == 1  # only the first window ships full
        assert len(sizes[FrameKind.DELTA]) >= 8  # every slide after that is a delta
        full = sizes[FrameKind.WORK][0]
        assert max(sizes[FrameKind.DELTA]) < full / 2  # slide is 1/6 of the window
        assert sum(sizes[FrameKind.DELTA]) / len(sizes[FrameKind.DELTA]) < full / 3

    def test_tumbling_windows_ship_full(self):
        stream = traffic_stream(120)
        shipper = DeltaShipper()
        kinds = []
        for delta in CountWindow(size=40).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), delta=delta, track=0, epoch=delta.index)
            kinds.append(shipper.encode_frames(item)[-1][0])
        assert all(kind is FrameKind.WORK for kind in kinds)

    def test_decoder_rejects_delta_without_previous_window(self):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        first = work_item(count=10, track=7)
        shipper.encode_frames(first)
        overlapping = WorkItem(facts=first.facts[2:] + (make_atom("item", 99),), track=7, epoch=1)
        kind, payload = shipper.encode_frames(overlapping)[-1]
        assert kind is FrameKind.DELTA
        with pytest.raises(ProtocolError):
            decoder.decode(kind, payload)

    def test_forget_resets_to_full_shipping(self):
        shipper = DeltaShipper()
        item = work_item(count=10)
        shipper.encode_frames(item)
        shipper.forget()
        kind, _ = shipper.encode_frames(item)[-1]
        assert kind is FrameKind.WORK


# --------------------------------------------------------------------------- #
# Interned-id shipping (the symbol_ids capability)
# --------------------------------------------------------------------------- #
class TestIdRuns:
    def test_round_trip_with_overlap(self):
        previous = tuple(range(100, 140))
        current = previous[10:] + tuple(range(500, 510))
        ops = diff_id_runs(previous, current)
        assert any(isinstance(op, tuple) for op in ops)  # a copy run was found
        assert apply_id_runs(previous, ops) == current

    def test_two_int_literal_run_is_not_mistaken_for_a_copy(self):
        # The regression the tagged diff core exists for: over id tuples a
        # two-int literal run is structurally identical to a (start, length)
        # copy op; the id form disambiguates by packing literals to bytes.
        previous = ()
        current = (5, 7)
        ops = diff_id_runs(previous, current)
        assert all(isinstance(op, bytes) for op in ops)
        assert apply_id_runs(previous, ops) == current

    def test_out_of_range_copy_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            apply_id_runs((1, 2), ((0, 5),))


class TestSymbolIdCodec:
    @staticmethod
    def pump(shipper, decoder, item):
        """Ship one item through the paired codec, returning (kinds, rebuilt)."""
        kinds, rebuilt = [], None
        for kind, payload in shipper.encode_frames(item):
            kinds.append(kind)
            if kind is FrameKind.SYMBOLS:
                decoder.apply_symbols(payload)
            else:
                rebuilt = decoder.decode(kind, payload)
        return kinds, rebuilt

    def test_first_window_ships_symbols_then_id_work(self):
        shipper = DeltaShipper(symbol_ids=True)
        frames = shipper.encode_frames(work_item(count=5))
        assert [kind for kind, _ in frames] == [FrameKind.SYMBOLS, FrameKind.WORK]
        assert isinstance(pickle.loads(frames[1][1]), IdWorkItem)

    def test_steady_state_window_ships_only_an_id_delta(self):
        shipper, decoder = DeltaShipper(symbol_ids=True), DeltaDecoder()
        first = work_item(count=10, track=3)
        self.pump(shipper, decoder, first)
        overlapping = WorkItem(facts=first.facts[2:] + (make_atom("item", 99),), track=3, epoch=1)
        self.pump(shipper, decoder, overlapping)  # interns item(99)
        steady = WorkItem(facts=overlapping.facts, track=3, epoch=2)
        kinds, rebuilt = self.pump(shipper, decoder, steady)
        assert kinds == [FrameKind.DELTA]  # no new symbols, no full facts
        assert rebuilt.facts == steady.facts

    def test_round_trip_reconstructs_every_window(self):
        stream = traffic_stream(120)
        shipper, decoder = DeltaShipper(symbol_ids=True), DeltaDecoder()
        for delta in CountWindow(size=40, slide=10).deltas(stream):
            item = WorkItem(facts=tuple(delta.window), delta=delta, track=2, epoch=delta.index)
            kinds, rebuilt = self.pump(shipper, decoder, item)
            assert kinds[-1] in (FrameKind.WORK, FrameKind.DELTA)
            assert rebuilt.facts == item.facts
            assert rebuilt.track == 2 and rebuilt.epoch == delta.index
            assert rebuilt.wants_incremental == item.wants_incremental

    def test_id_frames_beat_pickles_on_a_recurring_universe(self):
        """Acceptance: known facts cross the wire as 4-byte ids.

        The scenario delta shipping cannot compress: windows drawn from a
        recurring fact universe but *reordered* each time (a hash
        partitioner regrouping facts, a shuffling source), which breaks the
        copy-run matcher and forces legacy shipping back to full pickled
        fact sets.  Interned shipping pickles each symbol once, in the
        first sync, and re-ships it as 4 bytes forever after.
        """
        import random

        universe = [make_atom("reading", index) for index in range(100)]
        shuffler = random.Random(11)
        legacy = DeltaShipper()
        interned = DeltaShipper(symbol_ids=True)
        legacy_bytes = interned_bytes = 0
        for epoch in range(10):
            facts = list(universe)
            shuffler.shuffle(facts)
            item = WorkItem(facts=tuple(facts), track=0, epoch=epoch)
            legacy_bytes += len(legacy.encode_frames(item)[-1][1])
            interned_bytes += sum(len(payload) for _, payload in interned.encode_frames(item))
        assert interned_bytes < legacy_bytes / 2

    def test_plain_delta_shipper_never_emits_symbol_frames(self):
        item = work_item(count=5)
        assert [kind for kind, _ in DeltaShipper().encode_frames(item)] == [FrameKind.WORK]

    def test_decoder_rejects_a_symbol_gap(self):
        shipper, decoder = DeltaShipper(symbol_ids=True), DeltaDecoder()
        frames = shipper.encode_frames(work_item(count=5))
        # Drop the SYMBOLS frame: the work frame's ids cannot resolve.
        work_kind, work_payload = frames[-1]
        with pytest.raises(IndexError):
            decoder.decode(work_kind, work_payload)

    def test_symbol_sync_applies_idempotently(self):
        shipper, decoder = DeltaShipper(symbol_ids=True), DeltaDecoder()
        frames = shipper.encode_frames(work_item(count=4))
        sync_payload = frames[0][1]
        assert decoder.apply_symbols(sync_payload) == 4
        assert decoder.apply_symbols(sync_payload) == 0  # replay is a no-op


class TestSymbolIdWire:
    def test_end_to_end_matches_inline(self):
        stream = traffic_stream(90)
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with WorkerServer() as server:
            with WorkerClient(server.address, pickle.dumps(reasoner)) as client:
                assert client.capabilities.get("symbol_ids") is True
                inline = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
                for delta in CountWindow(size=30, slide=10).deltas(stream):
                    item = WorkItem(facts=tuple(delta.window), delta=delta, epoch=delta.index)
                    over_the_wire = client.submit_item(item)
                    local = inline.reason_item(item)
                    assert set(over_the_wire.answers) == set(local.answers)
                assert client.stats.symbol_frames > 0
                assert client.stats.bytes_symbols > 0

    def test_client_can_decline_symbol_ids(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload(), symbol_ids=False) as client:
                assert "symbol_ids" not in client.capabilities
                assert client.submit_item(work_item()).answers
                assert client.stats.symbol_frames == 0

    def test_server_can_refuse_symbol_ids(self):
        with WorkerServer(capabilities={"delta_shipping": True, "symbol_ids": False}) as server:
            with WorkerClient(server.address, choice_payload()) as client:
                assert "symbol_ids" not in client.capabilities
                assert client.submit_item(work_item()).answers


# --------------------------------------------------------------------------- #
# Handshake
# --------------------------------------------------------------------------- #
class TestHandshake:
    def test_version_mismatch_is_refused_with_both_versions(self):
        with WorkerServer(protocol_version=99) as server:
            with pytest.raises(HandshakeError) as outcome:
                WorkerClient(server.address, choice_payload(), attempts=1)
            message = str(outcome.value)
            assert "99" in message and "1" in message

    def test_mismatched_client_does_not_kill_the_server(self):
        with WorkerServer(protocol_version=99) as server:
            with pytest.raises(HandshakeError):
                WorkerClient(server.address, choice_payload(), attempts=1)
            assert server.running
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload(), attempts=1) as client:
                assert client.submit_item(work_item()).answers

    def test_capability_negotiation_degrades_to_full_shipping(self):
        stream = traffic_stream(90)
        reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
        with WorkerServer(capabilities={"delta_shipping": False}) as server:
            with WorkerClient(server.address, pickle.dumps(reasoner)) as client:
                assert "delta_shipping" not in client.capabilities
                for delta in CountWindow(size=30, slide=10).deltas(stream):
                    item = WorkItem(facts=tuple(delta.window), delta=delta, epoch=delta.index)
                    client.submit_item(item)
                assert client.stats.items_delta == 0
                assert client.stats.items_full > 0

    def test_delta_capability_negotiated_by_default(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload()) as client:
                assert client.capabilities.get("delta_shipping") is True

    def test_client_can_decline_delta_shipping(self):
        with WorkerServer() as server:
            with WorkerClient(server.address, choice_payload(), delta_shipping=False) as client:
                assert "delta_shipping" not in client.capabilities

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


def _json_hello(**capabilities):
    return _compact_json({"protocol": PROTOCOL_VERSION, "capabilities": capabilities})


def _reject_payload(reason, dumps=_compact_json):
    return dumps({"protocol": PROTOCOL_VERSION, "reason": reason})


#: The server's refusals: (client bytes, serve_worker_connection keywords,
#: ServedConnection.rejected, kinds of the frames the server sends before it
#: closes, the REJECT payload or None for a silent close).
REFUSALS = {
    "bad magic": (b"XXXX", {}, "bad magic", [], None),
    "non-HELLO first frame": (
        MAGIC + frame_bytes(FrameKind.PING), {}, "expected HELLO, got PING", [], None,
    ),
    "pickled HELLO to a restricted-only daemon": (
        MAGIC + frame_bytes(FrameKind.HELLO, _pickled({"protocol": PROTOCOL_VERSION, "capabilities": {}})),
        {"codec": "restricted"},
        "restricted codec required",
        [FrameKind.REJECT],
        _reject_payload("restricted codec required"),
    ),
    "protocol mismatch": (
        # A pickled HELLO is answered in pickle: the REJECT follows the peer's encoding.
        MAGIC + frame_bytes(FrameKind.HELLO, _pickled({"protocol": 99, "capabilities": {}})),
        {},
        f"protocol 99 != {PROTOCOL_VERSION}",
        [FrameKind.REJECT],
        _reject_payload("protocol version mismatch", dumps=_pickled),
    ),
    "pickle peer to a restricted-only daemon": (
        MAGIC + frame_bytes(FrameKind.HELLO, _json_hello(delta_shipping=True)),
        {"codec": "restricted"},
        "restricted codec required",
        [FrameKind.REJECT],
        _reject_payload("restricted codec required"),
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
}


class TestServerRefusals:
    """Every way ``serve_worker_connection`` refuses a peer, pinned to the byte."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal(self, case):
        sent, keywords, rejected, kinds, reject_payload = REFUSALS[case]
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
        frames = list(FrameParser().feed(received))
        assert record.rejected == rejected
        assert [kind for kind, _ in frames] == kinds
        if reject_payload is not None:
            assert frames[-1] == (FrameKind.REJECT, reject_payload)


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
            connect_with_backoff(
                ("127.0.0.1", self._free_port()),
                attempts=4,
                base_delay=0.05,
                max_delay=0.15,
                sleep=sleeps.append,
            )
        # attempts - 1 pauses, doubling up to the cap: 0.05, 0.1, 0.15.
        assert sleeps == [0.05, 0.1, 0.15]

    def test_connects_once_the_worker_comes_back(self):
        port = self._free_port()
        server = WorkerServer(port=port)
        attempts = {"count": 0}

        def sleep_then_start(delay):
            attempts["count"] += 1
            if attempts["count"] == 2:
                server.start()  # the worker "restarts" during the backoff

        try:
            connection = connect_with_backoff(
                ("127.0.0.1", port), attempts=5, base_delay=0.01, sleep=sleep_then_start
            )
            connection.close()
            assert attempts["count"] >= 2
        finally:
            server.stop()

    def test_at_least_one_attempt_required(self):
        with pytest.raises(ValueError):
            connect_with_backoff(("127.0.0.1", 1), attempts=0)


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
            backend = TcpBackend([first.address, second.address], reconnect_attempts=1, base_delay=0.01)
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            solutions = []
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                for index, delta in enumerate(window.deltas(stream)):
                    if index == 2:
                        first.stop()  # one worker dies mid-stream
                    result = session.evaluate_window(list(delta.window), delta=delta)
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
            backend = TcpBackend(
                [server.address for server in servers], reconnect_attempts=1, base_delay=0.01
            )
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, partitioner=partitioner, backend=backend) as session:
                deltas = list(window.deltas(stream))
                session.evaluate_window(list(deltas[0].window), delta=deltas[0])
                for server in servers:
                    server.stop()  # the whole fleet goes dark
                result = session.evaluate_window(list(deltas[1].window), delta=deltas[1])
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
        backend = TcpBackend([server.address], reconnect_attempts=1, base_delay=0.01)
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
            backend = TcpBackend([first.address, second.address], reconnect_attempts=1, base_delay=0.01)
            with StreamSession(choice_reasoner(), backend=backend, inline_fallback=False) as session:
                session.evaluate_window([make_atom("item", 1)])
                first.stop()
                imposter = WorkerServer(port=first_port, protocol_version=99)
                imposter.start()
                result = session.evaluate_window([make_atom("item", 2)])
                assert result.answers  # rerouted to the survivor
                assert [str(e) for e in backend.fleet.alive_endpoints] == [
                    f"{second.address[0]}:{second.address[1]}"
                ]
        finally:
            first.stop()
            second.stop()
            if imposter is not None:
                imposter.stop()

    def test_heartbeat_discovers_a_dead_worker_between_windows(self):
        first, second = WorkerServer(), WorkerServer()
        first.start()
        second.start()
        try:
            backend = TcpBackend(
                [first.address, second.address],
                heartbeat_interval=0.05,
                reconnect_attempts=1,
                base_delay=0.01,
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
            fleet = WorkerFleet([dead_address, alive.address], connect_attempts=1, base_delay=0.01)
            fleet.start(choice_payload())
            try:
                assert [str(e) for e in fleet.alive_endpoints] == [f"{alive.address[0]}:{alive.address[1]}"]
                assert fleet.roundtrip(0, work_item()).answers  # slot 0 rerouted
            finally:
                fleet.close()

    def test_start_with_no_reachable_worker_raises(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()
        fleet = WorkerFleet([address], connect_attempts=1, base_delay=0.01)
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


# --------------------------------------------------------------------------- #
# Wire statistics: delta shipping visible end to end
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
                    session.evaluate_window(list(delta.window), delta=delta)
            stats = backend.wire_statistics()  # final snapshot survives close
        assert stats["items_delta"] > stats["items_full"]
        assert stats["bytes_delta"] / stats["items_delta"] < stats["bytes_full"] / stats["items_full"]

    def test_delta_shipping_disabled_ships_everything_full(self):
        stream = traffic_stream(120)
        window = CountWindow(size=60, slide=20)
        with WorkerServer() as server:
            backend = TcpBackend([server.address], delta_shipping=False)
            reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
            with StreamSession(reasoner, backend=backend) as session:
                for delta in window.deltas(stream):
                    session.evaluate_window(list(delta.window), delta=delta)
            stats = backend.wire_statistics()
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
                pickle.dumps({"protocol": PROTOCOL_VERSION, "capabilities": {}}),
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
