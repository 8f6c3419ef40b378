"""Property tests for window-coverage invariants.

The reference semantics of a count window with parameters ``(size, slide)``
over a stream ``s`` is the slice family ``s[j*slide : j*slide + size]`` for
``j = 0, 1, ...`` -- full windows only, plus (under ``emit_partial``) one
trailing partial window when leftover items never appeared in a full window.
The properties below pin :class:`CountWindow` to that specification and
derive the classic coverage corollaries:

* every *interior* item of a sliding stream appears in exactly
  ``ceil(size / slide)`` full windows,
* hopping windows honour their gaps (skipped items appear in no window),
* the delta API's ``arrived_count`` is the number of items the window does
  not share with the previous emitted window, and ``carries_over`` holds
  exactly when that is fewer than the whole window.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, TimeWindow


def stream_of(length):
    return [Triple(f"s{i}", "p", i, timestamp=float(i)) for i in range(length)]


def reference_windows(items, size, slide):
    """The specification: full windows are contiguous slices at multiples of slide."""
    full = []
    position = 0
    while position + size <= len(items):
        full.append(items[position : position + size])
        position += slide
    return full, position


window_parameters = st.tuples(
    st.integers(min_value=1, max_value=12),  # size
    st.integers(min_value=1, max_value=15),  # slide
    st.integers(min_value=0, max_value=60),  # stream length
)


class TestCountWindowSpecification:
    @given(window_parameters)
    @settings(max_examples=200, deadline=None)
    def test_windows_match_reference_slices(self, parameters):
        size, slide, length = parameters
        items = stream_of(length)
        expected, resume_position = reference_windows(items, size, slide)
        emitted = list(CountWindow(size=size, slide=slide).windows(items))
        full_emitted = [window for window in emitted if len(window) == size]
        # Every full window is exactly the reference slice.
        assert full_emitted[: len(expected)] == expected
        # A trailing partial (full_emitted may contain a size-length partial
        # only when the leftover happens to have `size` items -- impossible:
        # a size-length buffer is always emitted as a full window).
        extras = emitted[len(expected) :]
        assert len(extras) <= 1
        if extras:
            # The partial must contain at least one item no full window had.
            covered = {triple.object for window in expected for triple in window}
            assert any(triple.object not in covered for triple in extras[0])

    @given(window_parameters)
    @settings(max_examples=200, deadline=None)
    def test_interior_items_appear_in_ceil_size_over_slide_windows(self, parameters):
        size, slide, length = parameters
        items = stream_of(length)
        full, _ = reference_windows(items, size, slide)
        emitted = [w for w in CountWindow(size=size, slide=slide, emit_partial=False).windows(items)]
        assert emitted == full
        if slide > size or not full:
            return
        counts = {}
        for window in emitted:
            for triple in window:
                counts[triple.object] = counts.get(triple.object, 0) + 1
        # Interior items: covered by the first window's last item onwards and
        # ending before the last window's first item (edge items appear fewer
        # times as the stream ramps up / drains).  When slide divides size,
        # every interior item appears in exactly size/slide = ceil(size/slide)
        # windows; otherwise coverage alternates between floor and ceil.
        first_full_coverage = size - 1
        last_window_start = (len(emitted) - 1) * slide
        for position in range(first_full_coverage, last_window_start):
            count = counts.get(position, 0)
            if size % slide == 0:
                assert count == size // slide, position
            else:
                assert math.floor(size / slide) <= count <= math.ceil(size / slide), position

    @given(window_parameters)
    @settings(max_examples=200, deadline=None)
    def test_hopping_gaps_are_honored(self, parameters):
        size, slide, length = parameters
        if slide <= size:
            slide = size + slide  # force a hopping configuration
        items = stream_of(length)
        emitted = list(CountWindow(size=size, slide=slide).windows(items))
        seen = {triple.object for window in emitted for triple in window}
        for position in range(length):
            cycle_offset = position % slide
            in_gap = cycle_offset >= size
            if in_gap:
                assert position not in seen, position


def assert_arrived_counts(deltas):
    """Over distinct items: arrived = window minus what the previous window held."""
    previous = set()
    for delta in deltas:
        current = {triple.object for triple in delta.window}
        assert delta.arrived_count == len(delta.window) - len(current & previous)
        assert delta.carries_over == (delta.arrived_count < len(delta.window))
        previous = current


class TestArrivedCount:
    @given(window_parameters, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_count_deltas_count_what_arrived(self, parameters, emit_partial):
        size, slide, length = parameters
        items = stream_of(length)
        policy = CountWindow(size=size, slide=slide, emit_partial=emit_partial)
        deltas = list(policy.deltas(items))
        assert_arrived_counts(deltas)
        # The deltas agree with the plain window iteration.
        assert [list(d.window) for d in deltas] == list(policy.windows(items))

    @given(
        st.integers(min_value=1, max_value=8),  # duration
        st.integers(min_value=1, max_value=10),  # slide
        st.integers(min_value=0, max_value=40),  # stream length
    )
    @settings(max_examples=200, deadline=None)
    def test_time_deltas_count_what_arrived(self, duration, slide, length):
        items = stream_of(length)
        policy = TimeWindow(duration=float(duration), slide=float(slide))
        deltas = list(policy.deltas(items))
        assert_arrived_counts(deltas)
        assert [list(d.window) for d in deltas] == list(policy.windows(items))

    @given(
        stamps=st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), max_size=40),
        duration=st.floats(min_value=0.5, max_value=20.0),
        slide=st.one_of(st.none(), st.floats(min_value=0.5, max_value=25.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_time_deltas_count_what_arrived_under_irregular_stamps(self, stamps, duration, slide):
        # Shuffled and repeated stamps: the batch path sorts, empty windows
        # are skipped, and the count still compares against the previous
        # *emitted* window.
        items = [Triple(f"s{i}", "p", i, timestamp=stamp) for i, stamp in enumerate(stamps)]
        assert_arrived_counts(TimeWindow(duration=duration, slide=slide).deltas(items))

    @given(
        stamps=st.lists(st.floats(min_value=0.0, max_value=60.0, allow_nan=False), max_size=40),
        duration=st.floats(min_value=0.5, max_value=20.0),
        slide=st.one_of(st.none(), st.floats(min_value=0.5, max_value=25.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_pushed_time_deltas_count_what_arrived_under_disorder(self, stamps, duration, slide):
        # Unsorted pushes: items landing in a closed window are dropped, the
        # rest back-fill open windows, and the count still holds.
        stepper = TimeWindow(duration=duration, slide=slide).stepper(late="drop")
        deltas = []
        for i, stamp in enumerate(stamps):
            deltas.extend(stepper.feed(Triple(f"s{i}", "p", i, timestamp=stamp)))
        assert_arrived_counts(deltas + stepper.flush())


class TestTimeWindowCoverage:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_time_window_coverage(self, duration, slide, length):
        """Each triple appears in exactly the emitted windows covering its timestamp."""
        items = stream_of(length)
        policy = TimeWindow(duration=float(duration), slide=float(slide))
        emitted = list(policy.windows(items))
        if not items:
            assert emitted == []
            return
        start = items[0].timestamp
        counts = {}
        for window in emitted:
            for triple in window:
                counts[triple.object] = counts.get(triple.object, 0) + 1
        end_time = items[-1].timestamp + 1e-9
        for triple in items:
            covering = 0
            window_start = start
            while window_start <= end_time:
                if window_start <= triple.timestamp < window_start + duration:
                    covering += 1
                window_start += slide
            assert counts.get(triple.object, 0) == covering, triple.object


class TestCountWindowStepper:
    @given(window_parameters, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_stepper_matches_batch_deltas(self, parameters, emit_partial):
        """Feeding items one at a time yields the exact delta sequence of deltas()."""
        size, slide, length = parameters
        items = stream_of(length)
        policy = CountWindow(size=size, slide=slide, emit_partial=emit_partial)
        expected = list(policy.deltas(items))

        stepper = policy.stepper()
        stepped = [delta for item in items if (delta := stepper.feed(item)) is not None]
        tail = stepper.flush()
        if tail is not None:
            stepped.append(tail)
        assert stepped == expected

    def test_flush_is_idempotent(self):
        policy = CountWindow(size=4, slide=4)
        stepper = policy.stepper()
        for item in stream_of(6):
            stepper.feed(item)
        assert stepper.flush() is not None  # the 2-item tail
        assert stepper.flush() is None  # already emitted
