"""Tests for metric collection."""

import math

import pytest

from repro.simcore.monitor import Counter, Gauge, Monitor, SampleSeries, TimeSeries


def test_counter_accumulates():
    counter = Counter("bytes")
    counter.add(10)
    counter.add(5.5)
    assert counter.value == 15.5


def test_counter_is_strictly_monotonic():
    counter = Counter("bytes")
    counter.add(10)
    with pytest.raises(ValueError, match="monotonic"):
        counter.add(-1)
    assert counter.value == 10
    counter.add(0)  # zero is a legal (no-op) delta


def test_gauge_moves_both_directions():
    gauge = Gauge("queue.depth")
    gauge.set(5.0)
    gauge.add(2.0)
    gauge.add(-4.0)
    assert gauge.value == 3.0


def test_sample_series_statistics():
    series = SampleSeries("latency")
    for value in [1.0, 2.0, 3.0, 4.0]:
        series.add(value)
    assert series.mean() == 2.5
    assert series.minimum() == 1.0
    assert series.maximum() == 4.0
    assert series.percentile(50) == 2.5
    assert series.percentile(0) == 1.0
    assert series.percentile(100) == 4.0
    assert series.count == 4


def test_sample_series_empty_is_nan():
    series = SampleSeries("empty")
    assert math.isnan(series.mean())
    assert math.isnan(series.percentile(50))
    assert math.isnan(series.stddev())


def test_sample_percentile_rejects_bad_q():
    series = SampleSeries("x")
    series.add(1.0)
    with pytest.raises(ValueError):
        series.percentile(101)


def test_timeseries_time_weighted_mean():
    series = TimeSeries("load")
    series.record(0.0, 0.0)
    series.record(10.0, 1.0)   # value 0 held for 10 s
    series.record(20.0, 1.0)   # value 1 held for 10 s
    assert series.time_weighted_mean() == pytest.approx(0.5)
    # Extending the horizon holds the final value longer.
    assert series.time_weighted_mean(until=40.0) == pytest.approx((0 * 10 + 1 * 30) / 40)


def test_timeseries_rejects_time_going_backwards():
    series = TimeSeries("x")
    series.record(5.0, 1.0)
    with pytest.raises(ValueError):
        series.record(4.0, 2.0)


def test_timeseries_last_and_max():
    series = TimeSeries("x")
    assert series.last() is None
    series.record(0.0, 3.0)
    series.record(1.0, 7.0)
    series.record(2.0, 5.0)
    assert series.last() == 5.0
    assert series.maximum() == 7.0


def test_monitor_creates_and_reuses_metrics():
    monitor = Monitor()
    monitor.counter("a").add()
    monitor.counter("a").add()
    assert monitor.counter_value("a") == 2
    assert monitor.counter_value("missing", default=-1) == -1
    assert monitor.sample("s") is monitor.sample("s")
    assert monitor.timeseries("t") is monitor.timeseries("t")


def test_monitor_gauge_registry_and_summary_key():
    monitor = Monitor()
    monitor.gauge("g").set(4.0)
    assert monitor.gauge("g") is monitor.gauge("g")
    assert monitor.summary()["gauge.g"] == 4.0


def test_monitor_summary_contains_all_kinds():
    monitor = Monitor()
    monitor.counter("c").add(3)
    monitor.sample("s").add(1.0)
    monitor.sample("s").add(2.0)
    monitor.timeseries("t").record(0.0, 1.0)
    monitor.timeseries("t").record(1.0, 2.0)
    summary = monitor.summary()
    assert summary["counter.c"] == 3
    assert summary["sample.s.mean"] == 1.5
    assert summary["sample.s.count"] == 2
    assert "series.t.mean" in summary
    assert summary["series.t.last"] == 2.0
