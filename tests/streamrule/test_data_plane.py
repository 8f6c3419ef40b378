"""Properties of the one data plane every transport shares.

``SYMBOLS`` + ``WORK`` frames (``DeltaShipper`` -> ``DeltaDecoder``) and
``RESULT`` frames (``ResultEncoder`` -> ``ResultDecoder``) are what TCP and
the shared-memory rings send.  Three properties pin them down:

* **round trip** -- over generated window sequences on several tracks
  (triples, atoms with nested function terms, duplicates, windows that
  slide, regroup by predicate or reshuffle), the decoder rebuilds every
  ``WorkItem`` exactly, and the result pair rebuilds every
  ``ReasonerResult`` exactly;
* **hostile bytes** -- arbitrary or mutated payloads make the decoders
  raise ``ProtocolError`` and nothing else (never ``struct.error``,
  ``IndexError``, ``KeyError`` or ``UnicodeDecodeError``): the client
  aborts a connection only on ``ProtocolError``, so any other exception
  would leave the stream desynced;
* **no unpickling** -- whole sessions over sync TCP, asyncio TCP and
  shared memory, each with a worker failure, run with ``pickle.loads``
  patched to raise.
"""

from __future__ import annotations

import asyncio
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant, FunctionTerm, Variable
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.generator import SyntheticStreamConfig, generate_window
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow
from repro.streamrule.aio import AioTcpBackend, AsyncStreamSession
from repro.streamrule.backends import InlineBackend, SharedMemoryBackend, TcpBackend
from repro.streamrule.errors import BackendError, ProtocolError
from repro.streamrule.metrics import LatencyBreakdown, ReasonerMetrics
from repro.streamrule.net import (
    DeltaDecoder,
    DeltaShipper,
    FrameKind,
    ResultDecoder,
    ResultEncoder,
    loads_json,
    parse_welcome_fields,
)
from repro.streamrule.reasoner import Reasoner, ReasonerResult
from repro.streamrule.session import StreamSession
from repro.streamrule.work import WorkItem
from repro.streamrule.worker import WorkerServer

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
values = st.one_of(st.integers(-(2**40), 2**40), st.text(max_size=5))
constants = st.builds(
    lambda value, quoted: Constant(value, quoted and isinstance(value, str)), values, st.booleans()
)
terms = st.recursive(
    constants,
    lambda inner: st.builds(FunctionTerm, st.sampled_from(["f", "g"]), st.lists(inner, min_size=1, max_size=3)),
    max_leaves=6,
)
atoms = st.builds(Atom, st.sampled_from(["item", "speed", "near"]), st.lists(terms, max_size=3))
timestamps = st.one_of(st.none(), st.integers(0, 10**6), st.floats(allow_nan=False, allow_infinity=False))
triples = st.builds(Triple, values, st.sampled_from(["speed", "near", "level"]), values, timestamps)
facts = st.one_of(atoms, triples)


@st.composite
def window_sequences(draw):
    """Work items of up to four tracks, cut from one stream with repeats."""
    universe = draw(st.lists(facts, min_size=1, max_size=12))
    stream = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=60))
    cursors = {}
    items = []
    for epoch in range(draw(st.integers(1, 10))):
        track = draw(st.integers(0, 3))
        start = cursors.get(track, 0) + draw(st.integers(0, 6))
        cursors[track] = start
        window = stream[start : start + draw(st.integers(0, 24))]
        shape = draw(st.sampled_from(["slide", "regroup", "shuffle"]))
        if shape == "regroup":  # what a predicate-grouping partitioner does
            window = sorted(window, key=lambda fact: fact.predicate)
        elif shape == "shuffle":
            window = draw(st.permutations(window))
        items.append(WorkItem(facts=tuple(window), track=track, epoch=epoch, incremental=draw(st.booleans())))
    return items


finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
counts = st.integers(0, 10**6)
metrics = st.builds(
    ReasonerMetrics,
    window_size=counts,
    latency_seconds=finite,
    breakdown=st.builds(LatencyBreakdown, finite, finite, finite, finite, finite),
    partition_sizes=st.lists(counts, max_size=4),
    answer_count=counts,
    duplication_ratio=finite,
    cache_hits=counts,
    cache_misses=counts,
    assumption_resolves=counts,
    solver_full_solves=counts,
    encoding_repairs=counts,
    solver_clauses_retained=counts,
    solver_clauses_dropped=counts,
    solver_strata_reused=counts,
    evaluation_wall_seconds=st.one_of(st.none(), finite),
    worker_wall_seconds=st.lists(finite, max_size=4),
)
results = st.builds(
    ReasonerResult,
    answers=st.lists(st.frozensets(atoms, max_size=6), max_size=4).map(tuple),
    metrics=metrics,
)


def ship(shipper, decoder, item):
    rebuilt = None
    for kind, payload in shipper.encode_frames(item):
        if kind is FrameKind.SYMBOLS:
            decoder.apply_symbols(payload)
        else:
            assert kind is FrameKind.WORK
            rebuilt = decoder.decode(payload)
    return rebuilt


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
class TestRoundTrip:
    @given(items=window_sequences())
    @settings(max_examples=150, deadline=None)
    def test_every_work_item_is_rebuilt_exactly(self, items):
        shipper, decoder = DeltaShipper(), DeltaDecoder()
        for item in items:
            rebuilt = ship(shipper, decoder, item)
            assert rebuilt == item
            assert type(rebuilt.incremental) is bool

    @given(sequence=st.lists(results, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_every_result_is_rebuilt_exactly(self, sequence):
        encoder, decoder = ResultEncoder(), ResultDecoder("worker w:1")
        for result in sequence:
            assert decoder.decode(encoder.encode(result)) == result

    def test_no_data_frame_decode_unpickles(self, monkeypatch):
        """Data frames, answer results and control frames decode without ``pickle.loads``."""

        def forbidden(*args, **kwargs):
            raise AssertionError("pickle.loads reached from a data-plane decode path")

        monkeypatch.setattr(pickle, "loads", forbidden)
        item = WorkItem(facts=(Atom("item", (Constant(1),)), Triple("s", "speed", 3, 1.0)), epoch=4)
        assert ship(DeltaShipper(), DeltaDecoder(), item) == item
        result = ReasonerResult(answers=(frozenset({Atom("seen", (Constant(1),))}),), metrics=ReasonerMetrics(1, 0.5))
        encoded = ResultEncoder().encode(result)
        assert ResultDecoder("w").decode(encoded) == result
        encoded = ResultEncoder().encode_failure(KeyError("k"))
        failure = ResultDecoder("w").decode(encoded)
        assert type(failure) is BackendError
        welcome = b'{"protocol": 3, "nonce": "abc"}'
        assert parse_welcome_fields(FrameKind.WELCOME, welcome, ("h", 1)) == {"protocol": 3, "nonce": "abc"}
        with pytest.raises(ProtocolError):
            loads_json(pickle.dumps({"protocol": 3}))


# --------------------------------------------------------------------------- #
# Hostile bytes
# --------------------------------------------------------------------------- #
def warm_decoder():
    """A decoder holding a synced table and a previous window on track 0."""
    shipper, decoder = DeltaShipper(), DeltaDecoder()
    item = WorkItem(facts=tuple(Atom("item", (Constant(index),)) for index in range(8)))
    ship(shipper, decoder, item)
    return shipper, decoder


def valid_frames():
    shipper, _ = warm_decoder()
    frames = shipper.encode_frames(WorkItem(facts=tuple(Atom("item", (Constant(index),)) for index in range(2, 12))))
    symbols, work = (payload for _, payload in frames)
    result = ReasonerResult(answers=(frozenset({Atom("seen", (Constant(1),))}),), metrics=ReasonerMetrics(1, 0.5))
    return {
        "symbols": symbols,
        "work": work,
        "result": ResultEncoder().encode(result),
        "failure": ResultEncoder.encode_failure(ValueError("worker-side boom")),
    }


VALID = valid_frames()


@st.composite
def mutations(draw, payload):
    """A valid payload truncated, extended, or with a few bytes overwritten."""
    data = bytearray(payload)
    for _ in range(draw(st.integers(1, 4))):
        action = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if action == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        elif action == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        else:
            position = draw(st.integers(0, len(data)))
            data[position:position] = draw(st.binary(min_size=1, max_size=8))
    return bytes(data)


def hostile(name):
    return st.one_of(st.binary(max_size=64), mutations(VALID[name]))


class TestHostileBytes:
    @given(payload=hostile("work"))
    @settings(max_examples=400, deadline=None)
    def test_work_decoder_raises_only_protocol_errors(self, payload):
        _, decoder = warm_decoder()
        try:
            item = decoder.decode(payload)
        except ProtocolError:
            return
        assert isinstance(item, WorkItem)

    @given(payload=hostile("symbols"))
    @settings(max_examples=400, deadline=None)
    def test_symbols_decoder_raises_only_protocol_errors(self, payload):
        _, decoder = warm_decoder()
        try:
            decoder.apply_symbols(payload)
        except ProtocolError:
            return

    @given(payload=st.one_of(st.binary(max_size=64), mutations(VALID["result"])))
    @settings(max_examples=400, deadline=None)
    def test_result_decoder_raises_only_protocol_errors(self, payload):
        try:
            outcome = ResultDecoder("worker w:1").decode(payload)
        except ProtocolError:
            return
        assert isinstance(outcome, (ReasonerResult, BackendError))

    @given(payload=st.one_of(st.binary(max_size=64), mutations(VALID["failure"])).map(lambda data: b"\x01" + data[1:]))
    @settings(max_examples=400, deadline=None)
    def test_failure_envelopes_raise_only_protocol_errors(self, payload):
        try:
            outcome = ResultDecoder("worker w:1").decode(payload)
        except ProtocolError:
            return
        assert type(outcome) is BackendError and str(outcome).startswith("worker w:1 failed: ")


# --------------------------------------------------------------------------- #
# No unpickling: whole sessions, a worker failure included
# --------------------------------------------------------------------------- #
WINDOW = CountWindow(size=30, slide=15)
#: A fact grounding refuses: the worker-side failure every session below hits.
NON_GROUND = Atom("car_speed", (Variable("C"), Constant(0)))


def traffic_reasoner():
    return Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)


def traffic_stream():
    config = SyntheticStreamConfig(window_size=75, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=43)
    return list(generate_window(config))


def stream_windows():
    return [list(window) for window in WINDOW.windows(traffic_stream())]


def inline_answers():
    with StreamSession(traffic_reasoner(), backend=InlineBackend()) as session:
        return [set(session.evaluate_window(window).answers) for window in stream_windows()]


@pytest.fixture
def no_unpickling(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pickle.loads reached from a coordinator or in-process worker")

    monkeypatch.setattr(pickle, "loads", forbidden)


def run_sync_session(backend):
    """Every window, then the failing one, then one more: answers and the failure."""
    with StreamSession(traffic_reasoner(), backend=backend) as session:
        windows = stream_windows()
        answers = [set(session.evaluate_window(window).answers) for window in windows]
        with pytest.raises(BackendError) as failure:
            session.evaluate_window([NON_GROUND])
        assert set(session.evaluate_window(windows[0]).answers) == answers[0]  # the worker survived
        assert session.fallbacks == 0
    return answers, failure.value


class TestNoUnpickling:
    """The coordinator, and a worker in this process, never call ``pickle.loads``."""

    def test_sync_tcp_session(self, no_unpickling):
        with WorkerServer(port=0) as server:
            host, port = server.address
            answers, failure = run_sync_session(TcpBackend([server.address]))
        assert answers == inline_answers()
        assert type(failure) is BackendError
        assert str(failure).startswith(f"worker {host}:{port} failed: GroundingError: ")

    def test_asyncio_session(self, no_unpickling):
        async def run():
            with WorkerServer(port=0) as server:
                async with AsyncStreamSession(
                    traffic_reasoner(), window=WINDOW, backend=AioTcpBackend([server.address]), max_inflight=2
                ) as session:
                    await session.push(traffic_stream())
                    await session.finish()
                    answers = [set(solution.answers) for solution in await session.results_list()]
                    await session.push_window([NON_GROUND])
                    with pytest.raises(BackendError) as failure:
                        await session.results_list()
                    assert session.fallbacks == 0
                return answers, failure.value

        answers, failure = asyncio.run(run())
        assert answers == inline_answers()
        assert type(failure) is BackendError and "failed: GroundingError: " in str(failure)

    @pytest.mark.slow  # spawns a shared-memory worker process
    def test_shared_memory_session(self, no_unpickling):
        answers, failure = run_sync_session(SharedMemoryBackend(max_workers=1))
        assert answers == inline_answers()
        assert type(failure) is BackendError
        assert str(failure).startswith("shared-memory worker 0 failed: GroundingError: ")
