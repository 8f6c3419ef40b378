"""The SRW1 protocol core and the slot table, tested as pure functions.

``ClientConnection`` (handshake, ticket FIFO, frame sequence), ``FrameParser``
and ``SlotTable`` hold everything the blocking stack (``net.py`` +
``fleet.py``) and the asyncio stack (``aio.py``) must agree on, with no
socket, lock, thread or event loop inside -- so most of this file feeds them
bytes and fake connections and never opens a socket.  The socket-backed part
at the end is differential: both I/O drivers, pointed at the same in-process
server, must fail with the same exception and put the same bytes on the wire.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.syntax.parser import parse_program
from repro.streamrule.aio import AioTcpBackend, AsyncWorkerClient
from repro.streamrule.backends import TcpBackend
from repro.streamrule.codec import encode_reasoner_spec
from repro.streamrule.errors import BackendConnectionError, HandshakeError, ProtocolError
from repro.streamrule.fleet import SlotTable, WorkerEndpoint
from repro.streamrule.net import (
    MAGIC,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ClientConnection,
    FrameKind,
    FrameParser,
    ResultEncoder,
    Ticket,
    WireStats,
    WorkerClient,
    frame_bytes,
    parse_frame_header,
    recv_exactly,
    recv_frame,
    send_frame,
    serve_worker_connection,
)
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer
from tests.conftest import make_atom

ADDRESS = ("127.0.0.1", 7000)

def reasoner():
    """One cheap answer set per window: these tests are about the wire, not the solver."""
    return Reasoner(parse_program("seen(X) :- item(X)."), input_predicates=["item"])


def sliding_items(count=6, size=10, slide=2):
    """``count`` consecutive windows of one track, each sliding by ``slide`` facts."""
    return [
        WorkItem(facts=tuple(make_atom("item", index) for index in range(start, start + size)), epoch=epoch)
        for epoch, start in enumerate(range(0, count * slide, slide))
    ]


def control(**fields):
    return json.dumps(fields).encode("utf-8")


def welcome(**extra):
    return FrameKind.WELCOME, control(protocol=PROTOCOL_VERSION, **extra)


# --------------------------------------------------------------------------- #
# Framing
# --------------------------------------------------------------------------- #
frames_strategy = st.lists(st.tuples(st.sampled_from(list(FrameKind)), st.binary(max_size=64)), max_size=8)


class TestFrameParser:
    @given(frames=frames_strategy, cuts=st.lists(st.integers(min_value=0, max_value=600), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_same_frames_however_the_stream_is_cut(self, frames, cuts):
        stream = b"".join(frame_bytes(kind, payload) for kind, payload in frames)
        bounds = sorted({0, len(stream), *(cut for cut in cuts if cut < len(stream))})
        parser = FrameParser()
        parsed = []
        for start, end in zip(bounds, bounds[1:]):
            parsed.extend(parser.feed(stream[start:end]))
        assert parsed == frames

    def test_frames_ahead_of_a_bad_header_are_still_delivered(self):
        parser = FrameParser()
        feed = parser.feed(frame_bytes(FrameKind.RESULT, b"ok") + b"\x00\x00\x00\x00\xfe")
        assert next(feed) == (FrameKind.RESULT, b"ok")
        with pytest.raises(ProtocolError, match="unknown frame kind 254"):
            next(feed)

    @pytest.mark.parametrize(
        "header, message",
        [
            (struct.pack(">IB", 0, 254), "unknown frame kind 254"),
            (
                struct.pack(">IB", MAX_FRAME_BYTES + 1, FrameKind.WORK),
                f"frame of {MAX_FRAME_BYTES + 1} bytes exceeds the {MAX_FRAME_BYTES}-byte bound",
            ),
        ],
    )
    def test_header_violations_read_the_same_on_every_path(self, header, message):
        """One validation behind the pure function, the parser and the blocking reader."""
        with pytest.raises(ProtocolError) as pure:
            parse_frame_header(header)
        with pytest.raises(ProtocolError) as incremental:
            list(FrameParser().feed(header))  # rejected before any payload is waited for
        left, right = socket.socketpair()
        try:
            left.sendall(header)
            with pytest.raises(ProtocolError) as blocking:
                recv_frame(right)
        finally:
            left.close()
            right.close()
        assert str(pure.value) == str(incremental.value) == str(blocking.value) == message


# --------------------------------------------------------------------------- #
# Handshake: one table of failures, the exception class and message of each
# --------------------------------------------------------------------------- #
#: (case, client keywords, answer to HELLO, answer to REASONER, exception, message).
#: ``None`` as an answer means the peer hangs up instead.  Messages are the
#: ones ``WorkerClient`` and ``AsyncWorkerClient`` raised before they shared a
#: core; ``{worker}`` stands for the peer.
HANDSHAKE_FAILURES = [
    (
        "reject-instead-of-welcome",
        {},
        (FrameKind.REJECT, control(protocol=7, reason="protocol version mismatch")),
        None,
        HandshakeError,
        "{worker} rejected the handshake: protocol version mismatch (worker protocol 7, ours 4)",
    ),
    (
        "version-mismatch",
        {},
        (FrameKind.WELCOME, control(protocol=99)),
        None,
        HandshakeError,
        "{worker} speaks protocol 99, this client speaks 4",
    ),
    (
        # A version-1 daemon refuses a version-4 client.
        "version-1-daemon",
        {},
        (FrameKind.REJECT, control(protocol=1, reason="protocol version mismatch")),
        None,
        HandshakeError,
        "{worker} rejected the handshake: protocol version mismatch (worker protocol 1, ours 4)",
    ),
    (
        # So does a version-2 daemon, whichever codec it was started with.
        "version-2-daemon",
        {},
        (FrameKind.REJECT, control(protocol=2, reason="protocol version mismatch")),
        None,
        HandshakeError,
        "{worker} rejected the handshake: protocol version mismatch (worker protocol 2, ours 4)",
    ),
    (
        # And a version-3 daemon, which still reads an incremental flag in every WORK header.
        "version-3-daemon",
        {},
        (FrameKind.REJECT, control(protocol=3, reason="protocol version mismatch")),
        None,
        HandshakeError,
        "{worker} rejected the handshake: protocol version mismatch (worker protocol 3, ours 4)",
    ),
    ("wrong-kind-for-welcome", {}, (FrameKind.PONG, b""), None, ProtocolError, "expected WELCOME, got PONG"),
    (
        "nonce-without-token",
        {},
        welcome(nonce="abc"),
        None,
        HandshakeError,
        "{worker} requires token auth and this client has no token",
    ),
    (
        # The daemon could not rebuild the reasoner from its spec.
        "invalid-reasoner",
        {},
        welcome(),
        (FrameKind.REJECT, control(protocol=4, reason="invalid reasoner: ParseError: unexpected end of input")),
        HandshakeError,
        "{worker} rejected the handshake: invalid reasoner: ParseError: unexpected end of input",
    ),
    (
        "reject-instead-of-ready",
        {"auth_token": "wrong"},
        welcome(nonce="abc"),
        (FrameKind.REJECT, control(protocol=1, reason="authentication failed")),
        HandshakeError,
        "{worker} rejected the handshake: authentication failed",
    ),
    ("wrong-kind-for-ready", {}, welcome(), (FrameKind.PONG, b""), ProtocolError, "expected READY, got PONG"),
]
FAILURE_IDS = [case[0] for case in HANDSHAKE_FAILURES]


def expected_message(template, address):
    return template.format(worker=f"worker {address[0]}:{address[1]}")


def shake_hands(connection, hello_answer, reasoner_answer=(FrameKind.READY, b"")):
    """Drive the pure handshake; returns every chunk the client would send."""
    sent = connection.open(b"reasoner-bytes")
    sent += connection.receive_frame(*hello_answer)
    sent += connection.receive_frame(*reasoner_answer)
    return sent


class TestHandshakeCore:
    def test_happy_path_frame_sequence(self):
        connection = ClientConnection(ADDRESS, auth_token="secret")
        sent = shake_hands(connection, welcome(nonce="abc"))
        frames = list(FrameParser().feed(b"".join(sent[1:])))
        assert sent[0] == MAGIC
        assert [kind for kind, _ in frames] == [FrameKind.HELLO, FrameKind.AUTH, FrameKind.REASONER]
        assert frames[2][1] == b"reasoner-bytes"
        assert connection.is_open
        assert frames[0][1] == b'{"protocol":4}'

    def test_unknown_welcome_fields_are_ignored(self):
        connection = ClientConnection(ADDRESS)
        sent = shake_hands(connection, welcome(capabilities={"from_the_future": True}, extension=[1, 2]))
        assert connection.is_open
        assert [kind for kind, _ in FrameParser().feed(b"".join(sent[1:]))] == [FrameKind.HELLO, FrameKind.REASONER]

    @pytest.mark.parametrize("case, keywords, hello, ready, failure, message", HANDSHAKE_FAILURES, ids=FAILURE_IDS)
    def test_failure_table(self, case, keywords, hello, ready, failure, message):
        connection = ClientConnection(ADDRESS, **keywords)
        with pytest.raises(failure) as outcome:
            shake_hands(connection, hello, ready or (FrameKind.READY, b""))
        assert type(outcome.value) is failure
        assert str(outcome.value) == expected_message(message, ADDRESS)
        assert not connection.is_open

    def test_eof_means_handshake_error_before_ready_and_connection_error_after(self):
        eof = EOFError("peer closed the connection")
        connection = ClientConnection(ADDRESS)
        connection.open(b"r")
        mid_handshake = connection.connection_lost(eof)
        assert type(mid_handshake) is HandshakeError
        assert str(mid_handshake) == f"handshake with {ADDRESS} failed: {eof!r}"
        connection.receive_frame(*welcome())
        assert type(connection.connection_lost(eof)) is HandshakeError  # REASONER sent, READY not in yet
        connection.receive_frame(FrameKind.READY, b"")
        after_ready = connection.connection_lost(eof)
        assert type(after_ready) is BackendConnectionError
        assert str(after_ready) == f"connection to worker 127.0.0.1:7000 lost: {eof!r}"  # the peer's name


# --------------------------------------------------------------------------- #
# After READY: the ticket FIFO
# --------------------------------------------------------------------------- #
def open_connection():
    connection = ClientConnection(ADDRESS)
    shake_hands(connection, welcome())
    return connection


def counted_ticket(wakes, name):
    def wake():
        wakes[name] = wakes.get(name, 0) + 1

    return Ticket(wake)


class TestTicketQueue:
    def test_responses_settle_tickets_in_request_order(self):
        connection = open_connection()
        first, second = Ticket(), Ticket()
        connection.expect(first)
        connection.expect(second)
        assert connection.pending_count == 2
        connection.receive_frame(FrameKind.PONG, b"")
        assert first.done and first.kind is FrameKind.PONG and not second.done
        connection.take_pong(first)
        assert connection.stats.pings == 1 and connection.pending_count == 1

    def test_unsolicited_frame_is_a_protocol_error(self):
        connection = open_connection()
        with pytest.raises(ProtocolError, match=r"unsolicited RESULT frame from \('127.0.0.1', 7000\)"):
            connection.receive_frame(FrameKind.RESULT, b"")

    def test_a_violation_after_ready_fails_every_queued_ticket_exactly_once(self):
        connection = open_connection()
        wakes = {}
        tickets = [counted_ticket(wakes, name) for name in ("head", "second", "third")]
        for ticket in tickets:
            connection.expect(ticket)
        connection.receive_frame(FrameKind.PONG, b"")  # the worker answers a WORK frame with a PONG
        with pytest.raises(ProtocolError, match="expected RESULT, got PONG") as violation:
            connection.take_result(tickets[0])
        assert connection.abort(violation.value) is violation.value  # what a driver does with it
        for ticket in tickets[1:]:
            # A ProtocolError *is* a BackendConnectionError: the fleet reroutes on it.
            assert ticket.error is violation.value and isinstance(ticket.error, BackendConnectionError)
            with pytest.raises(ProtocolError):
                connection.take_result(ticket)
        # Aborting again, or a frame straggling in, reaches no ticket twice.
        connection.abort(BackendConnectionError("again"))
        with pytest.raises(ProtocolError, match="unsolicited"):
            connection.receive_frame(FrameKind.RESULT, b"late")
        assert wakes == {"head": 1, "second": 1, "third": 1}
        assert connection.closed and connection.pending_count == 0
        with pytest.raises(BackendConnectionError, match="is closed"):
            connection.expect(Ticket())
        with pytest.raises(BackendConnectionError, match="is closed"):
            connection.encode_item(sliding_items(1)[0])

    def test_waiters_always_get_a_connection_error(self):
        connection = open_connection()
        ticket = Ticket()
        connection.expect(ticket)
        lost = connection.connection_lost(EOFError("gone"))
        connection.abort(lost)
        assert ticket.error is lost  # already the rerouting signal: passed through

        connection = open_connection()
        ticket = Ticket()
        connection.expect(ticket)
        connection.abort(KeyboardInterrupt())  # anything else is wrapped into one
        assert type(ticket.error) is BackendConnectionError
        assert str(ticket.error) == "connection to worker 127.0.0.1:7000 aborted: KeyboardInterrupt()"

    def test_item_frames_are_counted_as_they_are_encoded(self):
        """Per item: one chunk per frame (an optional SYMBOLS, then WORK), one RESULT back."""
        connection = open_connection()
        first, second, third = sliding_items(3)
        chunks = [connection.encode_item(item) for item in (first, second, third)]
        kinds = [[kind for kind, _ in FrameParser().feed(b"".join(item_chunks))] for item_chunks in chunks]
        assert kinds == [[FrameKind.SYMBOLS, FrameKind.WORK]] * 3
        assert [len(item_chunks) for item_chunks in chunks] == [2, 2, 2]  # each frame its own write
        stats = connection.stats
        assert (stats.items_full, stats.items_delta, stats.symbol_frames) == (1, 2, 3)
        assert stats.bytes_out == stats.bytes_full + stats.bytes_delta + stats.bytes_symbols > 0
        # The steady state: the same facts again need no table sync and copy every id.
        steady = WorkItem(facts=third.facts, epoch=3)
        assert [kind for kind, _ in FrameParser().feed(b"".join(connection.encode_item(steady)))] == [FrameKind.WORK]
        tickets = [Ticket() for _ in range(4)]
        for ticket in tickets:
            connection.expect(ticket)
        results, expected = ResultEncoder(), []
        for item in (first, second, third, steady):
            expected.append(reasoner().reason_item(item))
            connection.receive_frame(FrameKind.RESULT, results.encode(expected[-1]))
        assert [connection.take_result(ticket).answers for ticket in tickets] == [e.answers for e in expected]
        assert connection.pending_count == 0

    def test_a_malformed_result_fails_its_ticket_and_is_a_protocol_error(self):
        connection = open_connection()
        ticket = Ticket()
        connection.expect(ticket)
        with pytest.raises(ProtocolError, match="malformed RESULT from worker 127.0.0.1:7000 payload"):
            connection.receive_frame(FrameKind.RESULT, b"\x00\xff")
        assert ticket.done and isinstance(ticket.error, ProtocolError)
        with pytest.raises(ProtocolError):
            connection.take_result(ticket)


# --------------------------------------------------------------------------- #
# The slot table
# --------------------------------------------------------------------------- #
def fake_connection():
    return SimpleNamespace(alive=True, stats=WireStats(items_full=1), pending_count=0)


def fresh_table(endpoints, slots):
    table = SlotTable([f"10.0.0.{index}:7000" for index in range(endpoints)], slots)
    for index in range(endpoints):
        table.connections[index] = fake_connection()
    return table


def counters(table):
    return (table.reroutes, table.readoptions, table.adoptions, table.retirements)


table_operations = st.lists(
    st.tuples(st.sampled_from(["mark_dead", "readopt", "adopt", "retire"]), st.integers(min_value=0, max_value=7)),
    max_size=24,
)


class TestSlotTable:
    def test_canonical_layout_and_rerouting(self):
        table = fresh_table(endpoints=2, slots=4)
        assert table.owners == [0, 1, 0, 1]
        corpse = table.mark_dead(0)
        assert corpse is not None and table.retired_stats.items_full == 1
        assert table.owners == [1, 1, 1, 1] and table.reroutes == 2
        assert table.readopt(0, fake_connection()) and table.owners == [0, 1, 0, 1]
        assert not table.readopt(0, fake_connection())  # not dead any more: nothing installed
        assert table.adopt(WorkerEndpoint("10.0.0.9", 7000), fake_connection()) == 2
        assert table.owners == [0, 1, 2, 1]  # the widened layout: slot % 3 == 2
        assert counters(table) == (2, 1, 1, 0)

    def test_nobody_left(self):
        table = fresh_table(endpoints=1, slots=2)
        table.mark_dead(0)
        assert table.route(1) == (None, 0)
        with pytest.raises(ValueError, match="slot 2 out of range for a 2-slot fleet"):
            table.route(2)

    def test_a_broken_connection_stays_routable_until_its_driver_decides(self):
        """Routing never hides a just-broken connection behind "no worker left":
        the failed submit is what triggers the driver's reconnect."""
        table = fresh_table(endpoints=1, slots=1)
        table.connections[0].alive = False
        connection, owner = table.route(0)
        assert connection is table.connections[0] and owner == 0
        assert table.alive_indexes() == []

    @given(endpoints=st.integers(1, 4), slots=st.integers(1, 9), operations=table_operations)
    @settings(max_examples=300, deadline=None)
    def test_every_slot_reaches_a_live_endpoint_and_counters_only_grow(self, endpoints, slots, operations):
        table = fresh_table(endpoints, slots)
        for name, pick in operations:
            before = counters(table)
            index = pick % len(table.endpoints)
            if name == "mark_dead":
                table.mark_dead(index)
            elif name == "readopt":
                table.readopt(index, fake_connection())
            elif name == "retire":
                table.retire(index)
            elif len(table.endpoints) < 8:
                table.adopt(WorkerEndpoint("10.0.1.1", 7000 + len(table.endpoints)), fake_connection())
            assert all(now >= then for now, then in zip(counters(table), before))
            alive = table.alive_indexes()
            assert all(not table.dead[index] for index in alive)
            for slot in range(slots):
                connection, owner = table.route(slot)
                if alive:
                    assert owner in alive and connection is table.connections[owner]
                else:
                    assert connection is None
        installed = sum(connection is not None for connection in table.connections)
        assert len(table.reset()) == installed
        assert table.owners == [slot % len(table.endpoints) for slot in range(slots)] and not any(table.dead)


# --------------------------------------------------------------------------- #
# Differential: both drivers against one in-process server
# --------------------------------------------------------------------------- #
class ScriptedServer:
    """Speaks just enough SRW1 to answer a handshake from a script.

    Each connection gets ``hello_answer`` after its ``HELLO``,
    ``reasoner_answer`` after its ``REASONER`` and ``work_answer`` after
    its first ``WORK``; ``None`` hangs up instead.  ``port`` 0 binds an
    ephemeral port; a given one lets the script stand in for a worker that
    was restarted on its old address.
    """

    def __init__(self, hello_answer, reasoner_answer, work_answer=None, port=0):
        self._answers = (hello_answer, reasoner_answer, work_answer)
        self._listener = socket.create_server(("127.0.0.1", port))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            with connection:
                try:
                    recv_exactly(connection, len(MAGIC))
                    for awaited, answer in zip((FrameKind.HELLO, FrameKind.REASONER, FrameKind.WORK), self._answers):
                        kind = None
                        while kind is not awaited:  # AUTH may precede REASONER, SYMBOLS a WORK
                            kind, _ = recv_frame(connection)
                        if answer is None:
                            break
                        send_frame(connection, *answer)
                except (OSError, EOFError):
                    pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive()


def sync_failure(address, keywords):
    with pytest.raises(Exception) as outcome:
        WorkerClient(address, b"reasoner-bytes", attempts=1, **keywords)
    return outcome.value


def async_failure(address, keywords):
    async def connect():
        with pytest.raises(Exception) as outcome:
            await AsyncWorkerClient.connect(address, b"reasoner-bytes", attempts=1, **keywords)
        return outcome.value

    return asyncio.run(connect())


class TestDriversAgree:
    @pytest.mark.parametrize("case, keywords, hello, ready, failure, message", HANDSHAKE_FAILURES, ids=FAILURE_IDS)
    def test_handshake_failures(self, case, keywords, hello, ready, failure, message):
        with ScriptedServer(hello, ready) as server:
            for raised in (sync_failure(server.address, keywords), async_failure(server.address, keywords)):
                assert type(raised) is failure
                assert str(raised) == expected_message(message, server.address)

    @pytest.mark.parametrize("driver", ["sync", "async"])
    def test_a_malformed_result_aborts_the_connection(self, driver):
        item = sliding_items(1)[0]
        with ScriptedServer(welcome(), (FrameKind.READY, b""), (FrameKind.RESULT, b"\x00\xff")) as server:
            if driver == "sync":
                client = WorkerClient(server.address, b"reasoner-bytes", attempts=1)
                with pytest.raises(ProtocolError, match="malformed RESULT"):
                    client.submit_item(item)
            else:

                async def submit():
                    client = await AsyncWorkerClient.connect(server.address, b"reasoner-bytes", attempts=1)
                    try:
                        with pytest.raises(ProtocolError, match="malformed RESULT"):
                            await client.submit_item(item)
                    finally:
                        await client.close()
                    return client

                client = asyncio.run(submit())
        assert not client.alive and client.pending_count == 0

    @pytest.mark.parametrize("hello", [None, welcome()], ids=["after-hello", "after-reasoner"])
    def test_a_peer_that_hangs_up_mid_handshake_is_a_handshake_error(self, hello):
        with ScriptedServer(hello, None) as server:
            for raised in (sync_failure(server.address, {}), async_failure(server.address, {})):
                assert type(raised) is HandshakeError
                assert str(raised).startswith(f"handshake with {server.address} failed: ")


class RecordingSocket:
    """A server-side socket that keeps every byte the client sent."""

    def __init__(self, connection, log):
        self._connection = connection
        self._log = log

    def recv(self, count):
        data = self._connection.recv(count)
        self._log.extend(data)
        return data

    def __getattr__(self, name):
        return getattr(self._connection, name)


def record_wire(drive, reasoner_payload, keywords):
    """Serve one connection with the real worker loop; return the client's bytes.

    With an ``auth_token`` among the client ``keywords`` the server demands
    the same token.
    """
    log = bytearray()
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        connection, _ = listener.accept()
        serve_worker_connection(RecordingSocket(connection, log), auth_token=keywords.get("auth_token"))

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    try:
        drive(listener.getsockname()[:2], reasoner_payload, keywords)
    finally:
        server.join(timeout=10.0)
        listener.close()
    assert not server.is_alive()
    return bytes(log)


def drive_sync(address, reasoner_payload, keywords):
    with WorkerClient(address, reasoner_payload, **keywords) as client:
        return [client.submit_item(item) for item in sliding_items()]


def drive_async(address, reasoner_payload, keywords):
    async def run():
        client = await AsyncWorkerClient.connect(address, reasoner_payload, **keywords)
        try:
            return [await client.submit_item(item) for item in sliding_items()]
        finally:
            await client.close()

    return asyncio.run(run())


#: Client keywords of the differential run: plain, and behind token auth
#: (whose nonce, and so whose MAC, differs per connection).
WIRE_SETUPS = {"plain": {}, "token": {"auth_token": "secret"}}


class TestDifferentialWire:
    @pytest.mark.parametrize("setup", WIRE_SETUPS)
    def test_both_drivers_put_the_same_bytes_on_the_wire(self, setup):
        keywords = WIRE_SETUPS[setup]
        payload = encode_reasoner_spec(reasoner())
        blocking = record_wire(drive_sync, payload, keywords)
        streams = record_wire(drive_async, payload, keywords)
        frames = [list(FrameParser().feed(wire[len(MAGIC) :])) for wire in (blocking, streams)]
        assert blocking.startswith(MAGIC) and streams.startswith(MAGIC)
        if keywords:  # the AUTH frames answer different nonces; everything else is equal
            assert [kind for kind, _ in frames[0]] == [kind for kind, _ in frames[1]]
            frames = [[frame for frame in sent if frame[0] is not FrameKind.AUTH] for sent in frames]
        assert frames[0] == frames[1]
        kinds = [kind for kind, _ in frames[0]]
        assert kinds[:2] == [FrameKind.HELLO, FrameKind.REASONER]
        assert frames[0][1][1] == payload
        assert kinds.count(FrameKind.WORK) == 6
        assert FrameKind.SYMBOLS in kinds


# --------------------------------------------------------------------------- #
# One statistics dict for both fleet-backed backends
# --------------------------------------------------------------------------- #
TRANSPORT_KEYS = {
    "items_full",
    "items_delta",
    "bytes_full",
    "bytes_delta",
    "symbol_frames",
    "bytes_symbols",
    "bytes_out",
    "bytes_in",
    "pings",
    "reroutes",
    "readoptions",
    "adoptions",
    "retirements",
    "alive_workers",
}


def tcp_statistics(address):
    backend = TcpBackend([address])
    backend.start(reasoner())
    try:
        backend.submit(sliding_items(1)[0]).result(timeout=30)
        return backend, backend.transport_statistics()
    finally:
        backend.close()


def aio_statistics(address):
    async def run():
        backend = AioTcpBackend([address])
        await backend.astart(reasoner())
        try:
            await asyncio.wrap_future(backend.submit(sliding_items(1)[0]))
            return backend, backend.transport_statistics()
        finally:
            await backend.aclose()

    return asyncio.run(run())


@pytest.mark.parametrize("statistics_of", [tcp_statistics, aio_statistics], ids=["tcp", "aio-tcp"])
def test_transport_statistics_keys_do_not_depend_on_the_backend(statistics_of):
    """The Prometheus endpoint exports one series per key: same backend, same series."""
    with WorkerServer(port=0) as server:
        backend, live = statistics_of(server.address)
    assert set(live) == TRANSPORT_KEYS
    assert live["items_full"] == 1.0 and live["alive_workers"] == 1.0 and live["bytes_in"] > 0
    assert all(isinstance(value, float) for value in live.values())
    final = backend.transport_statistics()  # the final snapshot survives close
    assert set(final) == TRANSPORT_KEYS and final["items_full"] == 1.0
