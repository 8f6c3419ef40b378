"""Unit tests for the latency/metrics records."""

import dataclasses
import time

import pytest

from repro.streamrule.metrics import IngestionStats, LatencyBreakdown, ReasonerMetrics, Timer


class TestTimer:
    def test_measures_elapsed_time(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.seconds >= 0.009

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.seconds
        with timer:
            time.sleep(0.005)
        assert timer.seconds >= first


class TestLatencyBreakdown:
    def test_totals(self):
        breakdown = LatencyBreakdown(
            transformation_seconds=0.1,
            grounding_seconds=0.2,
            solving_seconds=0.3,
            partitioning_seconds=0.05,
            combining_seconds=0.05,
        )
        assert breakdown.reasoning_seconds == pytest.approx(0.5)
        assert breakdown.total_seconds == pytest.approx(0.7)

    def test_merged_with(self):
        first = LatencyBreakdown(grounding_seconds=0.1)
        second = LatencyBreakdown(grounding_seconds=0.2, solving_seconds=0.3)
        merged = first.merged_with(second)
        assert merged.grounding_seconds == pytest.approx(0.3)
        assert merged.solving_seconds == pytest.approx(0.3)

    def test_defaults_are_zero(self):
        assert LatencyBreakdown().total_seconds == 0.0


class TestReasonerMetrics:
    def test_millisecond_conversion(self):
        metrics = ReasonerMetrics(window_size=10, latency_seconds=0.25)
        assert metrics.latency_milliseconds == pytest.approx(250.0)

    def test_as_dict_contains_all_stages(self):
        metrics = ReasonerMetrics(
            window_size=10,
            latency_seconds=0.25,
            breakdown=LatencyBreakdown(grounding_seconds=0.1, solving_seconds=0.15),
            partition_sizes=[5, 5],
            answer_count=1,
            duplication_ratio=0.2,
        )
        record = metrics.as_dict()
        assert record["window_size"] == 10
        assert record["latency_ms"] == pytest.approx(250.0)
        assert record["grounding_ms"] == pytest.approx(100.0)
        assert record["duplication_ratio"] == pytest.approx(0.2)


class TestIngestionStats:
    def test_as_dict_exports_every_field_and_nothing_else(self):
        # The query server turns each key into a streamrule_session_* family.
        stats = IngestionStats(windows_dispatched=3, backpressure_stalls=1, backpressure_wait_seconds=0.5)
        exported = stats.as_dict()
        assert set(exported) == {field.name for field in dataclasses.fields(IngestionStats)} == {
            "windows_dispatched",
            "windows_gathered",
            "inflight_high_water",
            "dispatched_ahead",
            "backpressure_stalls",
            "backpressure_wait_seconds",
        }
        assert exported["windows_dispatched"] == 3.0 and exported["backpressure_wait_seconds"] == 0.5
