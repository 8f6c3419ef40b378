"""Properties of the one data plane every transport shares.

``SYMBOLS`` + ``WORK`` frames (``DeltaShipper`` -> ``DeltaDecoder``) and
``RESULT`` frames (``ResultEncoder`` -> ``ResultDecoder``) are what both TCP
codecs and the shared-memory rings send.  Two properties pin them down:

* **round trip** -- over generated window sequences on several tracks
  (triples, atoms with nested function terms, duplicates, windows that
  slide, regroup by predicate or reshuffle), the decoder rebuilds every
  ``WorkItem`` exactly, and the result pair rebuilds every
  ``ReasonerResult`` exactly, under both codecs;
* **hostile bytes** -- arbitrary or mutated payloads make the decoders
  raise ``ProtocolError`` and nothing else (never ``struct.error``,
  ``IndexError``, ``KeyError`` or ``UnicodeDecodeError``): the client
  aborts a connection only on ``ProtocolError``, so any other exception
  would leave the stream desynced.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant, FunctionTerm
from repro.streaming.triples import Triple
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
from repro.streamrule.reasoner import ReasonerResult
from repro.streamrule.work import WorkItem

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

    @given(sequence=st.lists(results, min_size=1, max_size=5), restricted=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_every_result_is_rebuilt_exactly(self, sequence, restricted):
        encoder, decoder = ResultEncoder(restricted=restricted), ResultDecoder("worker w:1", restricted=restricted)
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
        for restricted in (False, True):
            encoded = ResultEncoder(restricted=restricted).encode(result)
            assert ResultDecoder("w", restricted=restricted).decode(encoded) == result
        encoded = ResultEncoder(restricted=True).encode_failure(KeyError("k"))
        failure = ResultDecoder("w", restricted=True).decode(encoded)
        assert type(failure) is BackendError
        welcome = b'{"protocol": 2, "capabilities": {"restricted_codec": true}}'
        assert parse_welcome_fields(FrameKind.WELCOME, welcome, {"restricted_codec": True}, ("h", 1))[0]
        with pytest.raises(ProtocolError):
            loads_json(pickle.dumps({"protocol": 2}))


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
    return {"symbols": symbols, "work": work, "result": ResultEncoder().encode(result)}


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
    def test_restricted_result_decoder_raises_only_protocol_errors(self, payload):
        try:
            outcome = ResultDecoder("worker w:1", restricted=True).decode(payload)
        except ProtocolError:
            return
        assert isinstance(outcome, (ReasonerResult, BackendError))

    @given(payload=st.one_of(st.binary(max_size=64), mutations(VALID["result"])).map(lambda data: b"\x00" + data[1:]))
    @settings(max_examples=400, deadline=None)
    def test_answer_results_raise_only_protocol_errors_under_the_pickle_codec(self, payload):
        try:
            outcome = ResultDecoder("worker w:1").decode(payload)
        except ProtocolError:
            return
        assert isinstance(outcome, ReasonerResult)
