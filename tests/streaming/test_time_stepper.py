"""TimeWindowStepper: push-based time windowing equals the batch path.

The contract (mirroring ``CountWindowStepper``): for any stream the
stepper accepts, feeding item-wise and flushing yields exactly the delta
sequence of :meth:`TimeWindow.deltas` -- which itself now *drives* the
stepper after sorting, so these tests pin the push-specific behaviour:
in-order exactness, the tolerated-disorder envelope, and the late-arrival
gate that protects already-evaluated windows.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.triples import Triple
from repro.streaming.window import LateArrivalError, TimeWindow


def stamped(values):
    return [Triple(f"s{i}", "p", i, timestamp=stamp) for i, stamp in enumerate(values)]


def feed_all(stepper, triples):
    deltas = []
    for triple in triples:
        deltas.extend(stepper.feed(triple))
    deltas.extend(stepper.flush())
    return deltas


class TestInOrderEquivalence:
    @given(
        stamps=st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=60),
        duration=st.floats(min_value=0.5, max_value=20.0),
        slide=st.one_of(st.none(), st.floats(min_value=0.5, max_value=25.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_push_equals_batch_for_sorted_streams(self, stamps, duration, slide):
        stream = stamped(sorted(stamps))
        policy = TimeWindow(duration=duration, slide=slide)
        batch = list(policy.deltas(stream))
        pushed = feed_all(policy.stepper(), stream)
        assert pushed == batch

    @given(
        stamps=st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False), min_size=1, max_size=40),
        none_positions=st.sets(st.integers(min_value=0, max_value=39)),
    )
    @settings(max_examples=100, deadline=None)
    def test_timestampless_items_inherit_like_the_batch_path(self, stamps, none_positions):
        triples = []
        for index, stamp in enumerate(sorted(stamps)):
            effective = None if index in none_positions else stamp
            triples.append(Triple(f"s{index}", "p", index, timestamp=effective))
        policy = TimeWindow(duration=7.0, slide=3.0)
        batch = list(policy.deltas(triples))
        pushed = feed_all(policy.stepper(), triples)
        assert pushed == batch

    def test_fully_timestampless_stream_defaults_to_zero(self):
        triples = [Triple(f"s{i}", "p", i) for i in range(5)]
        policy = TimeWindow(duration=10.0)
        batch = list(policy.deltas(triples))
        pushed = feed_all(policy.stepper(), triples)
        assert pushed == batch
        assert len(pushed) == 1 and len(pushed[0].window) == 5

    def test_arrived_counts_per_slide(self):
        # [0, 8) [4, 12) [8, 16) [12, 20) [16, 24) [20, 28): the last window
        # holds only stamp 21, which [16, 24) already had.
        stream = stamped([0, 1, 2, 5, 6, 9, 12, 13, 17, 21])
        deltas = feed_all(TimeWindow(duration=8.0, slide=4.0).stepper(), stream)
        assert [delta.arrived_count for delta in deltas] == [5, 1, 2, 1, 1, 0]
        assert [delta.carries_over for delta in deltas] == [False, True, True, True, True, True]

    def test_arrived_counts_after_disorder_within_open_windows(self):
        # Stamp 11 arrives after 12, while [5, 15) is still open: both are
        # arrivals of [5, 15), and [10, 20) holds nothing new.
        stream = stamped([0.0, 6.0, 12.0, 11.0, 21.0])
        deltas = feed_all(TimeWindow(duration=10.0, slide=5.0).stepper(), stream)
        assert [sorted(t.timestamp for t in d.window) for d in deltas] == [
            [0.0, 6.0],
            [6.0, 11.0, 12.0],
            [11.0, 12.0],
            [21.0],
            [21.0],
        ]
        assert [delta.arrived_count for delta in deltas] == [2, 2, 0, 1, 0]


class TestToleratedDisorder:
    def test_disorder_before_first_emission_shifts_the_grid(self):
        # 10 then 7: no window closed yet, so the grid starts at 7 -- the
        # batch path would sort and do the same.
        stream = stamped([10.0, 7.0, 8.0, 25.0])
        policy = TimeWindow(duration=10.0)
        batch = list(policy.deltas(sorted(stream, key=lambda t: t.timestamp)))
        pushed = feed_all(policy.stepper(), stream)
        assert pushed == batch
        assert [len(d.window) for d in pushed] == [3, 1]

    def test_disorder_within_open_windows_is_exact(self):
        # Window [0, 10) closes at stamp 11; 12 then 11 back-fills an open
        # region only.
        stream = stamped([0.0, 3.0, 12.0, 11.0, 22.0])
        policy = TimeWindow(duration=10.0)
        pushed = feed_all(policy.stepper(), stream)
        assert [sorted(t.timestamp for t in d.window) for d in pushed] == [[0.0, 3.0], [11.0, 12.0], [22.0]]


class TestLateArrivals:
    def test_late_item_raises_by_default(self):
        policy = TimeWindow(duration=10.0)
        stepper = policy.stepper()
        feed_list = stamped([0.0, 15.0])  # stamp 15 closes [0, 10)
        for triple in feed_list:
            stepper.feed(triple)
        with pytest.raises(LateArrivalError):
            stepper.feed(Triple("late", "p", 1, timestamp=5.0))

    def test_drop_policy_counts_and_continues(self):
        policy = TimeWindow(duration=10.0)
        stepper = policy.stepper(late="drop")
        for triple in stamped([0.0, 15.0]):
            stepper.feed(triple)
        assert stepper.feed(Triple("late", "p", 1, timestamp=5.0)) == []
        assert stepper.late_dropped == 1
        deltas = stepper.flush()
        assert all("late" not in {t.subject for t in d.window} for d in deltas)

    def test_boundary_stamp_is_not_late(self):
        policy = TimeWindow(duration=10.0)
        stepper = policy.stepper()
        for triple in stamped([0.0, 15.0]):
            stepper.feed(triple)
        # Stamp 10.0 == closed end: belongs only to still-open windows.
        assert stepper.feed(Triple("edge", "p", 1, timestamp=10.0)) == []

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TimeWindow(duration=1.0).stepper(late="ignore")


class TestSessionEagerMode:
    def test_eager_push_equals_deferred_push(self):
        from repro.programs.traffic import EVENT_PREDICATES, INPUT_PREDICATES, traffic_program
        from repro.streaming.generator import SyntheticStreamConfig, generate_window
        from repro.streamrule.session import StreamSession

        stream = generate_window(
            SyntheticStreamConfig(
                window_size=120, input_predicates=INPUT_PREDICATES, scheme="traffic", seed=11
            )
        )
        window = TimeWindow(duration=40.0, slide=20.0)

        def run(eager):
            with StreamSession(
                traffic_program(),
                input_predicates=INPUT_PREDICATES,
                output_predicates=EVENT_PREDICATES,
                window=window,
                eager_time_windows=eager,
            ) as session:
                pushed = session.push(stream)
                session.finish()
                solutions = [(s.window_index, set(s.answers)) for s in session.results()]
                return pushed, solutions

        deferred_pushed, deferred = run(False)
        eager_pushed, eager = run(True)
        assert deferred == eager
        assert deferred_pushed == 0  # deferred mode stages everything
        assert eager_pushed > 0  # eager mode streams results before finish
