"""Tests for the lidar sensor model."""

import numpy as np

from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.data.sensors import LidarSensor
from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.simcore.simulator import Simulator


def make_sensor(ground_truth, visibility=None, **kwargs):
    sim = Simulator(seed=8)
    pond = DataPond("ego")
    sensor = LidarSensor(
        sim,
        "ego",
        position_provider=lambda: Vec2(0, 0),
        ground_truth=lambda: ground_truth,
        pond=pond,
        visibility=visibility,
        **kwargs,
    )
    return sim, pond, sensor


def test_detects_visible_in_range_agents():
    sim, pond, sensor = make_sensor([("target", Vec2(20, 0)), ("ego", Vec2(0, 0))], miss_rate=0.0)
    frame = sensor.capture()
    assert frame.detected_labels() == ["target"]
    assert frame.data_type == DataType.LIDAR_SCAN
    assert pond.frame_count(DataType.LIDAR_SCAN) == 1


def test_out_of_range_agents_are_missed():
    sim, pond, sensor = make_sensor([("far", Vec2(500, 0))], range_m=80.0, miss_rate=0.0)
    assert sensor.capture().detections == []


def test_occluded_agents_are_missed():
    visibility = VisibilityMap([Rectangle(5, -5, 15, 5)])
    sim, pond, sensor = make_sensor([("hidden", Vec2(30, 0))], visibility=visibility, miss_rate=0.0)
    assert sensor.capture().detections == []


def test_position_noise_is_applied_but_small():
    sim, pond, sensor = make_sensor([("t", Vec2(20, 0))], miss_rate=0.0, noise_std_m=0.2)
    frame = sensor.capture()
    detection = frame.detections[0]
    assert detection.position.distance_to(Vec2(20, 0)) < 2.0
    assert detection.position != Vec2(20, 0)


def test_miss_rate_one_never_detects():
    sim, pond, sensor = make_sensor([("t", Vec2(20, 0))], miss_rate=1.0)
    for _ in range(5):
        assert sensor.capture().detections == []


def test_periodic_capture_fills_pond():
    sim, pond, sensor = make_sensor([("t", Vec2(20, 0))], period=0.1)
    sim.run(until=1.0)
    assert sensor.frames_captured >= 9
    assert pond.frame_count(DataType.LIDAR_SCAN) >= 9
    sensor.stop()
    count = sensor.frames_captured
    sim.run(until=2.0)
    assert sensor.frames_captured == count


def test_confidences_are_clamped_like_np_clip():
    """Confidences stay in [0, 1] and match an ``np.clip`` replay of the stream."""
    targets = [(f"t{i}", Vec2(1.0 + i * 0.3, 0.5 * (i % 7))) for i in range(200)]
    sim, pond, sensor = make_sensor(targets, miss_rate=0.05, noise_std_m=0.2)
    frame = sensor.capture()
    confidences = [d.confidence for d in frame.detections]
    assert all(0.0 <= c <= 1.0 for c in confidences)
    # Replay the same draws, in the same order, from a fresh copy of the stream.
    rng = Simulator(seed=8).streams.get("lidar:ego")
    expected = []
    for label, _ in targets:
        if rng.random() < 0.05:
            continue
        rng.normal(0.0, 0.2)
        rng.normal(0.0, 0.2)
        expected.append((label, float(np.clip(rng.normal(0.9, 0.05), 0.0, 1.0))))
    assert [(d.label, d.confidence) for d in frame.detections] == expected
    assert 1.0 in confidences  # the seed draws some values past the clamp
