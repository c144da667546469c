"""Tests for trajectory traces and contact intervals."""

import pytest

from repro.geometry.vector import Vec2
from repro.mobility.traces import TrajectoryTrace, contact_intervals


def build_trace(name, samples):
    trace = TrajectoryTrace(name)
    for time, x, y in samples:
        trace.record(time, Vec2(x, y), speed=1.0)
    return trace


def test_record_and_interpolate():
    trace = build_trace("a", [(0, 0, 0), (10, 100, 0)])
    assert trace.position_at(5.0) == Vec2(50, 0)
    assert trace.position_at(-1.0) == Vec2(0, 0)
    assert trace.position_at(20.0) == Vec2(100, 0)


def test_times_must_not_decrease():
    trace = TrajectoryTrace("a")
    trace.record(1.0, Vec2(0, 0))
    with pytest.raises(ValueError):
        trace.record(0.5, Vec2(1, 1))


def test_distance_duration_speed():
    trace = build_trace("a", [(0, 0, 0), (10, 30, 40)])
    assert trace.total_distance() == 50.0
    assert trace.duration() == 10.0
    assert trace.mean_speed() == 5.0


def test_empty_trace_behaviour():
    trace = TrajectoryTrace("empty")
    assert trace.position_at(1.0) is None
    assert trace.mean_speed() == 0.0


def test_contact_intervals_detects_encounter():
    # Node b approaches a, stays close, then leaves.
    a = build_trace("a", [(0, 0, 0), (30, 0, 0)])
    b = build_trace("b", [(0, 200, 0), (10, 50, 0), (20, 50, 0), (30, 200, 0)])
    intervals = contact_intervals(a, b, radius=100.0)
    assert len(intervals) == 1
    start, end = intervals[0]
    assert start <= 10.0
    assert end >= 20.0


def test_contact_intervals_empty_when_never_close():
    a = build_trace("a", [(0, 0, 0), (10, 0, 0)])
    b = build_trace("b", [(0, 1000, 0), (10, 1000, 0)])
    assert contact_intervals(a, b, radius=100.0) == []
