"""Ingest-once: a session converts each pushed item one time, and nothing else changes.

The contract under test: whatever mix of items is pushed -- triples of
rejected predicates, duplicate triples, unary-marker triples, ready-made
atoms -- and however the stream is windowed, the session yields exactly the
windows an independent slicer cuts from the *raw* pushed stream (a rejected
item keeps its slot), and each window's answers are those of a from-scratch
``Reasoner.reason`` over that slice.  The streams are slices of
:func:`eventful_traffic_stream` with such items spliced in, so the answers
compared include both kinds of event.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asp.syntax.atoms import Atom
from repro.asp.syntax.terms import Constant
from repro.core import DependencyPartitioner, build_input_dependency_graph, decompose
from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
from repro.streaming.processor import StreamQueryProcessor
from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, TimeWindow
from repro.streamrule.backends import InlineBackend, ThreadPoolBackend
from repro.streamrule import session as session_module
from repro.streamrule.reasoner import Reasoner
from repro.streamrule.session import StreamSession
from tests.streamrule.conftest import InThreadTcpBackend, eventful_traffic_stream

LOCATIONS = ["a", "b", "c"]
CARS = ["c1", "c2"]

locations = st.sampled_from(LOCATIONS)
cars = st.sampled_from(CARS)
#: Items spliced into the eventful stream: small pools, so joins fire and
#: duplicate triples are common.
items = st.one_of(
    st.builds(Triple, locations, st.just("average_speed"), st.sampled_from([5, 15, 40])),
    st.builds(Triple, locations, st.just("car_number"), st.sampled_from([10, 50])),
    st.builds(Triple, locations, st.just("traffic_light"), st.just("true")),  # unary marker
    st.builds(Triple, cars, st.just("car_in_smoke"), st.sampled_from(["high", "low"])),
    st.builds(Triple, cars, st.just("car_speed"), st.sampled_from([0, 30])),
    st.builds(Triple, cars, st.just("car_location"), locations),
    st.builds(Triple, locations, st.just("weather"), st.just("rain")),  # not an input predicate
    st.builds(lambda car, place: Atom("car_location", (Constant(car), Constant(place))), cars, locations),
    st.builds(lambda place: Atom("traffic_light", (Constant(place),)), locations),
)
#: Both kinds of event fire in 40-item windows of this stream.
EVENTFUL = eventful_traffic_stream(120)


@st.composite
def streams(draw):
    """A slice of :data:`EVENTFUL` with spliced-in items and duplicates of its own."""
    start = draw(st.integers(0, len(EVENTFUL)))
    stream = EVENTFUL[start : start + draw(st.integers(0, len(EVENTFUL)))]
    for _ in range(draw(st.integers(0, 12))):
        extra = draw(st.one_of(items, st.sampled_from(stream))) if stream else draw(items)
        stream.insert(draw(st.integers(0, len(stream))), extra)
    return stream


WINDOWS = {
    "tumbling": CountWindow(size=40, slide=40),
    "sliding": CountWindow(size=40, slide=15),
    "hopping": CountWindow(size=25, slide=35),
}


def oracle_windows(stream, policy):
    """Slice ``stream`` by the window policy alone (no stepper involved)."""
    size, slide, total = policy.size, policy.slide or policy.size, len(stream)
    full = 0 if total < size else (total - size) // slide + 1
    windows = [stream[index * slide : index * slide + size] for index in range(full)]
    covered = (full - 1) * slide + size if full else 0
    if policy.emit_partial and total > covered and full * slide < total:
        windows.append(stream[full * slide :])
    return windows


def reference_answers(window):
    accepted = [item for item in window if item.predicate in INPUT_PREDICATES]
    reasoner = Reasoner(traffic_program(), INPUT_PREDICATES, EVENT_PREDICATES)
    return accepted, {frozenset(answer) for answer in reasoner.reason(accepted).answers}


def make_session(policy, backend, **kwargs):
    program = traffic_program()
    plan = decompose(build_input_dependency_graph(program, INPUT_PREDICATES)).plan
    return StreamSession(
        program,
        window=policy,
        partitioner=DependencyPartitioner(plan),
        backend=backend,
        input_predicates=INPUT_PREDICATES,
        output_predicates=EVENT_PREDICATES,
        query_processor=StreamQueryProcessor(set(INPUT_PREDICATES)),
        **kwargs,
    )


def check_stream(session, stream, policy, chunk):
    for start in range(0, len(stream), chunk):
        session.push(stream[start : start + chunk])
    session.finish()
    solutions = list(session.results())
    expected = oracle_windows(stream, policy)
    assert [solution.window_index for solution in solutions] == list(range(len(expected)))
    for solution, window in zip(solutions, expected):
        accepted, answers = reference_answers(window)
        assert solution.window_size == len(accepted)
        assert {frozenset(answer) for answer in solution.answers} == answers


@pytest.mark.parametrize("window_kind", sorted(WINDOWS))
@settings(max_examples=25, deadline=None)
@given(stream=streams(), chunk=st.integers(min_value=1, max_value=11))
@example(stream=EVENTFUL, chunk=7)
def test_inline_session_matches_the_sliced_stream(window_kind, stream, chunk):
    policy = WINDOWS[window_kind]
    with make_session(policy, InlineBackend()) as session:
        check_stream(session, stream, policy, chunk)
        processor = session.query_processor
        assert processor.accepted_count + processor.rejected_count == len(stream)  # each item filtered once


@pytest.mark.parametrize("window_kind", sorted(WINDOWS))
@settings(max_examples=8, deadline=None)
@given(stream=streams(), chunk=st.integers(min_value=1, max_value=11))
@example(stream=EVENTFUL, chunk=7)
def test_thread_pool_session_matches_the_sliced_stream(window_kind, stream, chunk):
    policy = WINDOWS[window_kind]
    with make_session(policy, ThreadPoolBackend(max_workers=2)) as session:
        check_stream(session, stream, policy, chunk)


@pytest.mark.slow
@pytest.mark.parametrize("window_kind", sorted(WINDOWS))
def test_tcp_session_matches_the_sliced_stream(window_kind):
    """One worker connection serves every generated stream: stale track state must only ever cost a rebuild."""
    policy = WINDOWS[window_kind]
    backend = InThreadTcpBackend(1)
    session = make_session(policy, backend)

    @settings(max_examples=8, deadline=None)
    @given(stream=streams(), chunk=st.integers(min_value=1, max_value=11))
    @example(stream=EVENTFUL, chunk=7)
    def run(stream, chunk):
        check_stream(session, stream, policy, chunk)

    with session:
        run()
        assert session.fallbacks == 0


def test_process_matches_push():
    stream = [
        Triple("a", "average_speed", 5),
        Triple("a", "weather", "rain"),
        Triple("a", "car_number", 50),
        Atom("traffic_light", (Constant("b"),)),
        Triple("a", "average_speed", 5),
        Triple("c1", "car_speed", 0),
        Triple("c1", "car_location", "a"),
    ] * 3
    policy = WINDOWS["sliding"]
    with make_session(policy, InlineBackend()) as pushed:
        pushed.push(stream)
        pushed.finish()
        via_push = [(s.window_index, s.window_size, set(s.answers)) for s in pushed.results()]
    with make_session(policy, InlineBackend()) as processed:
        via_process = [(s.window_index, s.window_size, set(s.answers)) for s in processed.process(iter(stream))]
    assert via_push == via_process and via_push


def test_work_items_carry_the_ingested_atoms():
    """Conversion happens once: what is dispatched are the very atoms the stepper buffered."""
    dispatched = []

    class Recording(InlineBackend):
        def _submit(self, item):
            dispatched.append(item)
            return super()._submit(item)

    stream = [Triple("a", "average_speed", 5), Triple("a", "car_number", 50), Triple("a", "traffic_light", "true")]
    with StreamSession(
        traffic_program(), window=CountWindow(size=2, slide=1), backend=Recording(), input_predicates=INPUT_PREDICATES
    ) as session:
        session.push(stream)
    first, second = (item.facts for item in dispatched)
    assert all(isinstance(fact, Atom) for fact in first + second)
    assert first[1] is second[0]  # the shared item is one object in both windows


@pytest.mark.parametrize("eager", [False, True])
def test_time_windows_keep_their_timestamps(eager):
    stream = [
        Triple("a", "average_speed", 5, timestamp=0.0),
        Triple("a", "weather", "rain", timestamp=0.5),
        Triple("a", "car_number", 50, timestamp=1.0),
        Triple("b", "average_speed", 5, timestamp=2.5),
        Triple("b", "car_number", 50),  # inherits 2.5
        Triple("c", "average_speed", 40, timestamp=4.5),
    ]
    policy = TimeWindow(duration=2.0)
    with make_session(policy, InlineBackend(), eager_time_windows=eager) as session:
        for item in stream:
            session.push(item)
        session.finish()
        solutions = list(session.results())
    expected = list(policy.windows(stream))
    assert [solution.window_index for solution in solutions] == list(range(len(expected)))
    for solution, window in zip(solutions, expected):
        accepted, answers = reference_answers(window)
        assert solution.window_size == len(accepted)
        assert {frozenset(answer) for answer in solution.answers} == answers


class FakeClock:
    """A ``perf_counter`` stand-in: each reading advances it by a microsecond."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1e-6
        return self.now


def test_ingestion_time_is_billed_to_the_windows(monkeypatch):
    """Conversion at push time still shows up as the windows' transformation time.

    The clock is fake and ingestion advances it by a millisecond per item,
    so the one bulk push costs a known 0.4 s and each window's share
    follows from the pro-rating alone: no pause on the host can move it.
    """
    clock = FakeClock()
    monkeypatch.setattr(session_module.time, "perf_counter", clock)
    stream = eventful_traffic_stream(400)
    with make_session(CountWindow(size=100, slide=25), InlineBackend()) as session:
        admit = session.query_processor.process  # runs at ingestion only

        def timed_ingestion(items):
            clock.now += 1e-3 * len(items)
            return admit(items)

        monkeypatch.setattr(session.query_processor, "process", timed_ingestion)
        session.push(stream)
        session.finish()
        solutions = list(session.results())
    billed = [solution.metrics.breakdown.transformation_seconds for solution in solutions]
    # Beside its share of the push, a window's own reasoner reads the clock
    # a few times: microseconds of fake time.
    assert len(billed) == 13 and sum(billed) == pytest.approx(0.4, abs=1e-3)
    # One bulk push converted every item up front; the first window covers
    # four slides' worth of new items, every later one a single slide's.
    assert billed[0] == pytest.approx(0.1, abs=1e-4)
    assert billed[1:] == pytest.approx([0.025] * 12, abs=1e-4)
    for solution in solutions:
        assert solution.metrics.latency_seconds >= solution.metrics.breakdown.transformation_seconds
