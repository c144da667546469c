"""Unit tests for the Prometheus exposition renderer and its bridges."""

import math

import pytest

from repro.service.app import create_app
from repro.service.testing import ASGITestClient
from repro.simcore.monitor import Monitor
from repro.telemetry.prometheus import (
    CONTENT_TYPE,
    HistogramPoint,
    escape_label_value,
    format_value,
    monitor_points,
    point,
    render_exposition,
    sanitize_metric_name,
)

from tests.telemetry.test_check_metrics import check_exposition


# ----------------------------------------------------------------- primitives


def test_sanitize_metric_name():
    assert sanitize_metric_name("radio.frames_delivered") == (
        "repro_radio_frames_delivered"
    )
    assert sanitize_metric_name("weird-name!x") == "repro_weird_name_x"
    assert sanitize_metric_name("x", namespace="") == "x"


def test_escape_label_value():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


def test_format_value():
    assert format_value(3.0) == "3"
    assert format_value(3.5) == "3.5"
    assert format_value(float("nan")) == "NaN"
    assert format_value(float("inf")) == "+Inf"
    assert format_value(float("-inf")) == "-Inf"
    assert format_value(1e18) == repr(1e18)  # too big to collapse to int


# ------------------------------------------------------------------ rendering


def test_counter_gets_total_suffix_and_sorted_families():
    text = render_exposition(
        [
            point("z.last", "gauge", 1.0),
            point("a.first", "counter", 2.0, help="help text"),
        ]
    )
    lines = text.splitlines()
    assert lines[0] == "# HELP repro_a_first_total help text"
    assert lines[1] == "# TYPE repro_a_first_total counter"
    assert lines[2] == "repro_a_first_total 2"
    assert lines[-1] == "repro_z_last 1"
    assert text.endswith("\n")
    assert check_exposition(text) == []


def test_label_values_escaped_in_output():
    text = render_exposition(
        [point("m", "gauge", 1.0, labels={"scenario": 'ur"ban\ngrid'})]
    )
    assert 'scenario="ur\\"ban\\ngrid"' in text
    assert check_exposition(text) == []


def test_kind_conflict_raises():
    with pytest.raises(ValueError, match="claimed as both"):
        render_exposition(
            [point("m_total", "counter", 1.0), point("m_total", "gauge", 2.0)]
        )


def test_duplicate_sample_raises():
    with pytest.raises(ValueError, match="duplicate sample"):
        render_exposition(
            [
                point("m", "gauge", 1.0, labels={"a": "x"}),
                point("m", "gauge", 2.0, labels={"a": "x"}),
            ]
        )


def test_histogram_rendering_is_cumulative_with_inf():
    monitor = Monitor()
    for value in [0.004, 0.02, 0.02, 9.0, 100.0]:
        monitor.sample("lat").add(value)
    (histogram,) = monitor_points(monitor)
    assert isinstance(histogram, HistogramPoint)
    text = render_exposition([histogram])
    lines = text.splitlines()
    assert 'repro_lat_bucket{le="0.005"} 1' in lines
    assert 'repro_lat_bucket{le="0.025"} 3' in lines
    assert 'repro_lat_bucket{le="10"} 4' in lines
    assert 'repro_lat_bucket{le="+Inf"} 5' in lines
    assert "repro_lat_sum 109.044" in lines
    assert "repro_lat_count 5" in lines
    assert check_exposition(text) == []


def test_point_rejects_unknown_kind():
    with pytest.raises(ValueError, match="counter/gauge"):
        point("m", "histogram", 1.0)


# -------------------------------------------------------------- monitor bridge


def test_monitor_points_covers_every_metric_kind():
    monitor = Monitor()
    monitor.counter("radio.frames").add(3)
    monitor.gauge("queue.depth").set(7.0)
    monitor.sample("task.latency").add(0.1)
    monitor.sample("task.latency").add(0.3)
    monitor.sample("empty.series")  # zero observations: not exported

    points = monitor_points(monitor, {"scenario": "urban-grid"})
    by_name = {p.name: p for p in points}
    assert by_name["radio.frames"].kind == "counter"
    assert by_name["radio.frames"].value == 3
    assert by_name["queue.depth"].kind == "gauge"
    assert by_name["queue.depth"].value == 7.0
    assert by_name["task.latency"].kind == "histogram"
    assert by_name["task.latency"].count == 2
    assert "empty.series" not in by_name
    assert all(p.labels == (("scenario", "urban-grid"),) for p in points)
    assert check_exposition(render_exposition(points)) == []


def test_monitor_points_is_read_only():
    monitor = Monitor()
    monitor.counter("a").add()
    before = monitor.summary()
    monitor_points(monitor)
    assert monitor.summary() == before


# ------------------------------------------------------------ service /metrics


def _create(client, **overrides):
    payload = {
        "scenario": "urban-grid",
        "n": 4,
        "seed": 0,
        "duration": 5.0,
        "step_slice": 100,
    }
    payload.update(overrides)
    response = client.post("/sessions", payload)
    assert response.status == 201, response.body
    return response.json()["id"]


def test_service_metrics_aggregates_concurrent_sessions():
    with ASGITestClient(create_app(auto_drive=False)) as client:
        first = _create(client)
        second = _create(
            client, scenario="intersection", seed=1, knobs={"fast_math": True}
        )
        for session_id in (first, second):
            client.post(f"/sessions/{session_id}/start")
            client.post(f"/sessions/{session_id}/step")
        response = client.get("/metrics")
        assert response.status == 200
        assert response.headers["content-type"] == CONTENT_TYPE
        text = response.body.decode("utf-8")
        assert check_exposition(text) == []
        # Both sessions contribute, each under its own label set.
        assert f'session_id="{first}"' in text
        assert f'session_id="{second}"' in text
        assert 'scenario="urban_grid"' in text
        assert 'scenario="intersection"' in text
        assert 'tier="exact"' in text
        assert 'tier="statistical"' in text
        # Service-level families ride along.
        assert 'repro_service_sessions{state="running"} 2' in text
        assert "repro_service_scheduler_passes_total" in text


def test_service_metrics_excludes_evicted_sessions():
    with ASGITestClient(create_app(auto_drive=False)) as client:
        session_id = _create(client)
        client.post(f"/sessions/{session_id}/start")
        client.post(f"/sessions/{session_id}/step")
        client.post(f"/sessions/{session_id}/pause")
        assert client.post(f"/sessions/{session_id}/evict").status == 200
        text = client.get("/metrics").body.decode("utf-8")
        assert f'session_id="{session_id}"' not in text
        assert 'repro_service_sessions{state="evicted"} 1' in text
        assert check_exposition(text) == []
