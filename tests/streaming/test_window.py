"""Unit tests for windowing policies."""

import pytest

from repro.streaming.triples import Triple
from repro.streaming.window import CountWindow, TimeWindow


def triples(count, step=1.0):
    return [Triple(f"s{i}", "p", i, timestamp=i * step) for i in range(count)]


def objects(window):
    return [triple.object for triple in window]


class TestCountWindow:
    def test_tumbling_windows(self):
        windows = list(CountWindow(size=3).windows(triples(7)))
        assert [len(window) for window in windows] == [3, 3, 1]

    def test_exact_multiple_has_no_trailing_window(self):
        windows = list(CountWindow(size=3).windows(triples(6)))
        assert [len(window) for window in windows] == [3, 3]

    def test_sliding_windows_overlap(self):
        windows = list(CountWindow(size=3, slide=1).windows(triples(5)))
        assert windows[0][0].subject == "s0"
        assert windows[1][0].subject == "s1"
        assert all(len(window) <= 3 for window in windows)

    def test_sliding_windows_no_duplicate_tail(self):
        # The last full window is [2,3,4]; the leftover buffer [3,4] is a
        # pure suffix of it and must not be re-emitted as a partial window.
        windows = list(CountWindow(size=3, slide=1).windows(triples(5)))
        assert [objects(window) for window in windows] == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]

    def test_sliding_partial_with_new_content_is_emitted(self):
        # After the last full window [0,1,2] the stream still delivers item 3:
        # the trailing partial [1,2,3] carries unseen content and is emitted.
        windows = list(CountWindow(size=3, slide=2).windows(triples(4)))
        assert [objects(window) for window in windows] == [[0, 1, 2], [2, 3]]

    def test_hopping_windows_skip_items(self):
        # size=2, slide=3: one item is skipped between consecutive windows.
        windows = list(CountWindow(size=2, slide=3).windows(triples(8)))
        assert [objects(window) for window in windows] == [[0, 1], [3, 4], [6, 7]]

    def test_hopping_trailing_partial(self):
        windows = list(CountWindow(size=2, slide=3).windows(triples(7)))
        assert [objects(window) for window in windows] == [[0, 1], [3, 4], [6]]

    def test_emit_partial_false_suppresses_trailing_window(self):
        windows = list(CountWindow(size=3, emit_partial=False).windows(triples(7)))
        assert [objects(window) for window in windows] == [[0, 1, 2], [3, 4, 5]]

    def test_short_stream_partial(self):
        windows = list(CountWindow(size=5).windows(triples(2)))
        assert [objects(window) for window in windows] == [[0, 1]]
        assert list(CountWindow(size=5, emit_partial=False).windows(triples(2))) == []

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CountWindow(size=0)
        with pytest.raises(ValueError):
            CountWindow(size=3, slide=0)

    def test_empty_stream(self):
        assert list(CountWindow(size=3).windows([])) == []


class TestCountWindowDeltas:
    def test_first_window_is_all_arrived(self):
        [delta] = CountWindow(size=3).deltas(triples(3))
        assert delta.index == 0
        assert delta.arrived_count == len(delta.window) == 3
        assert not delta.carries_over

    def test_sliding_deltas_count_the_slide(self):
        deltas = list(CountWindow(size=3, slide=1).deltas(triples(6)))
        assert [delta.arrived_count for delta in deltas] == [3, 1, 1, 1]
        assert [delta.carries_over for delta in deltas] == [False, True, True, True]

    def test_hopping_deltas_share_nothing(self):
        deltas = list(CountWindow(size=2, slide=3).deltas(triples(8)))
        assert [objects(delta.window) for delta in deltas] == [[0, 1], [3, 4], [6, 7]]
        assert all(delta.arrived_count == len(delta.window) for delta in deltas)
        assert not any(delta.carries_over for delta in deltas)

    def test_partial_delta_flagged(self):
        deltas = list(CountWindow(size=3).deltas(triples(7)))
        assert [delta.partial for delta in deltas] == [False, False, True]
        assert deltas[-1].arrived_count == 1

    def test_sliding_partial_counts_only_its_new_items(self):
        # The tail [2, 3] shares item 2 with the last full window [0, 1, 2].
        deltas = list(CountWindow(size=3, slide=2).deltas(triples(4)))
        assert [(objects(delta.window), delta.arrived_count) for delta in deltas] == [([0, 1, 2], 3), ([2, 3], 1)]
        assert deltas[-1].partial and deltas[-1].carries_over


class TestTimeWindow:
    def test_windows_by_duration(self):
        windows = list(TimeWindow(duration=3.0).windows(triples(9)))
        assert [len(window) for window in windows] == [3, 3, 3]

    def test_sliding_time_window(self):
        windows = list(TimeWindow(duration=4.0, slide=2.0).windows(triples(8)))
        assert len(windows) >= 3
        assert all(window for window in windows)

    def test_missing_timestamps_are_tolerated(self):
        data = [Triple("a", "p", 1), Triple("b", "p", 2)]
        windows = list(TimeWindow(duration=10.0).windows(data))
        assert sum(len(window) for window in windows) == 2

    def test_missing_timestamp_not_duplicated_into_overlapping_windows(self):
        # "b" inherits the preceding timestamp (0.0): it must appear exactly
        # once per window *covering t=0*, not in every overlapping window.
        data = [Triple("a", "p", 1, timestamp=0.0), Triple("b", "p", 2), Triple("c", "p", 3, timestamp=3.0)]
        windows = list(TimeWindow(duration=2.0, slide=1.0).windows(data))
        occurrences = sum(1 for window in windows for triple in window if triple.subject == "b")
        assert occurrences == 1

    def test_missing_timestamp_inherits_previous(self):
        data = [
            Triple("a", "p", 1, timestamp=0.0),
            Triple("b", "p", 2, timestamp=5.0),
            Triple("c", "p", 3),  # effectively t=5.0
        ]
        windows = list(TimeWindow(duration=2.0).windows(data))
        assert [sorted(t.subject for t in window) for window in windows] == [["a"], ["b", "c"]]

    def test_sliding_deltas_count_the_slide(self):
        # [0, 4) [2, 6) [4, 8) [6, 10) [8, 12): the last window holds only
        # items 8 and 9, both already in [6, 10).
        deltas = list(TimeWindow(duration=4.0, slide=2.0).deltas(triples(10)))
        assert [delta.arrived_count for delta in deltas] == [4, 2, 2, 2, 0]
        assert [delta.carries_over for delta in deltas] == [False, True, True, True, True]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeWindow(duration=0)
        with pytest.raises(ValueError):
            TimeWindow(duration=1.0, slide=0)

    def test_empty_stream(self):
        assert list(TimeWindow(duration=5.0).windows([])) == []

