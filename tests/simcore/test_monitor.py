"""Tests for metric collection."""

import math

import pytest

import numpy as np

from repro.simcore.monitor import DEFAULT_BUCKETS, Counter, Gauge, Monitor, SampleSeries


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
    assert series.sum == 10.0
    assert series.count == 4
    buckets = dict(series.cumulative_buckets())
    assert list(buckets) == list(DEFAULT_BUCKETS)
    assert buckets[0.5] == 0
    assert buckets[1.0] == 1      # a value on a bound lands in that bucket
    assert buckets[2.5] == 2
    assert buckets[5.0] == buckets[10.0] == 4


def test_sample_series_empty_is_nan():
    series = SampleSeries("empty")
    assert math.isnan(series.mean())
    assert series.count == 0
    assert all(cumulative == 0 for _, cumulative in series.cumulative_buckets())


def test_sample_series_skips_nan():
    series = SampleSeries("x")
    series.add(float("nan"))
    series.add_many(np.array([0.2, float("nan"), 20.0]))
    series.add(0.2)
    assert series.count == 3
    assert series.sum == pytest.approx(20.4)
    assert series.bucket_counts[-1] == 1    # 20.0 is above every bound
    assert dict(series.cumulative_buckets())[0.25] == 2


def test_sample_series_size_does_not_grow_with_observations():
    series = SampleSeries("x")
    series.add_many(np.linspace(0.0, 20.0, 10_000))
    for value in range(1000):
        series.add(value / 100.0)
    assert series.count == 11_000
    assert len(series.bucket_counts) == len(DEFAULT_BUCKETS) + 1
    assert set(vars(series)) == {"name", "count", "sum", "bucket_counts"}


def test_monitor_creates_and_reuses_metrics():
    monitor = Monitor()
    monitor.counter("a").add()
    monitor.counter("a").add()
    assert monitor.counter_value("a") == 2
    assert monitor.counter_value("missing", default=-1) == -1
    assert monitor.sample("s") is monitor.sample("s")


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
    monitor.gauge("g").set(2.0)
    summary = monitor.summary()
    assert summary["counter.c"] == 3
    assert summary["sample.s.mean"] == 1.5
    assert summary["sample.s.count"] == 2
    assert summary["gauge.g"] == 2.0
