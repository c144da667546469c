"""Tests for data ponds."""

import pytest

from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.data.sensors import Detection, SensorFrame
from repro.geometry.vector import Vec2


def frame_at(time, origin=Vec2(0, 0), detections=None, range_m=80.0):
    return SensorFrame(
        data_type=DataType.LIDAR_SCAN,
        timestamp=time,
        origin=origin,
        detections=detections or [],
        range_m=range_m,
    )


def test_store_and_query_by_age():
    pond = DataPond("n", retention_s=5.0)
    pond.store(frame_at(0.0))
    pond.store(frame_at(3.0))
    assert pond.frame_count(DataType.LIDAR_SCAN) == 2
    recent = pond.frames(DataType.LIDAR_SCAN, now=4.0, max_age=2.0)
    assert len(recent) == 1
    assert recent[0].timestamp == 3.0


def test_retention_evicts_old_frames():
    pond = DataPond("n", retention_s=2.0)
    pond.store(frame_at(0.0))
    pond.store(frame_at(1.5))
    assert pond.frame_count(DataType.LIDAR_SCAN) == 2
    frames = pond.frames(DataType.LIDAR_SCAN, now=3.0)
    assert len(frames) == 1
    assert pond.frame_count(DataType.LIDAR_SCAN) == 1


def test_per_type_cap_evicts_oldest():
    pond = DataPond("n", max_frames_per_type=3)
    for i in range(5):
        pond.store(frame_at(float(i)))
    frames = pond.frames(DataType.LIDAR_SCAN, now=4.0)
    assert [f.timestamp for f in frames] == [2.0, 3.0, 4.0]


def test_latest_and_empty_behaviour():
    pond = DataPond("n")
    assert pond.latest(DataType.LIDAR_SCAN, now=0.0) is None
    assert pond.quality_of(DataType.LIDAR_SCAN, now=0.0) is None
    assert pond.summary(now=0.0) == {}
    pond.store(frame_at(1.0))
    pond.store(frame_at(2.0))
    assert pond.latest(DataType.LIDAR_SCAN, now=2.5).timestamp == 2.0


@pytest.mark.parametrize(
    "timestamps, now",
    [
        ([], 1.0),  # empty bucket
        ([0.0, 1.0], 10.0),  # every frame stale
        ([0.0, 1.0, 4.0], 5.5),  # stale head, fresh tail
        ([4.0, 1.0, 3.5], 6.0),  # out of order, all within retention
        ([4.0, 3.5, 0.5], 6.0),  # out of order, stale tail behind a fresh head
        ([5.0, 0.5, 0.2], 6.0),  # out of order, only the head is fresh
        ([2.0, 2.0, 2.0], 2.0),  # equal timestamps: the newest-stored wins
    ],
)
def test_latest_is_the_last_frame_within_retention(timestamps, now):
    stored = [frame_at(time) for time in timestamps]
    reference, pond = DataPond("n", retention_s=5.0), DataPond("n", retention_s=5.0)
    for frame in stored:
        reference.store(frame)
        pond.store(frame)
    frames = reference.frames(DataType.LIDAR_SCAN, now)
    expected = frames[-1] if frames else None
    assert pond.latest(DataType.LIDAR_SCAN, now) is expected
    # Both queries evict the same stale head and create no bucket.
    assert pond.frame_count() == reference.frame_count()
    assert pond._frames.keys() == reference._frames.keys()


def test_quality_reflects_freshness_and_confidence():
    pond = DataPond("n")
    detections = [Detection("x", Vec2(1, 1), confidence=0.8)]
    pond.store(frame_at(1.0, detections=detections, range_m=60.0))
    quality = pond.quality_of(DataType.LIDAR_SCAN, now=1.5)
    assert quality.freshness_s == pytest.approx(0.5)
    assert quality.coverage_radius_m == 60.0
    assert quality.accuracy == pytest.approx(0.8)


def test_summary_digest_format():
    pond = DataPond("n")
    pond.store(frame_at(1.0, range_m=70.0))
    digest = pond.summary(now=1.2)
    assert DataType.LIDAR_SCAN.value in digest
    coverage, freshness, score = digest[DataType.LIDAR_SCAN.value]
    assert coverage == 70.0
    assert freshness == pytest.approx(0.2)
    assert 0.0 <= score <= 1.0


def test_coverage_center_is_latest_origin():
    pond = DataPond("n")
    pond.store(frame_at(0.0, origin=Vec2(0, 0)))
    pond.store(frame_at(1.0, origin=Vec2(5, 5)))
    assert pond.coverage_center(DataType.LIDAR_SCAN, now=1.0) == Vec2(5, 5)


def test_invalid_retention():
    with pytest.raises(ValueError):
        DataPond("n", retention_s=0.0)
