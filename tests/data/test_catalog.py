"""Tests for data catalogs."""

from repro.data.catalog import DataCatalog
from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.data.quality import DataQuality
from repro.data.sensors import Detection, SensorFrame
from repro.geometry.vector import Vec2


def pond_with_frame(origin=Vec2(0, 0), time=1.0, range_m=80.0, confidence=0.95):
    pond = DataPond("node")
    pond.store(
        SensorFrame(
            data_type=DataType.LIDAR_SCAN,
            timestamp=time,
            origin=origin,
            detections=[Detection("x", origin + Vec2(5, 0), confidence=confidence)],
            range_m=range_m,
        )
    )
    return pond


def test_catalog_from_pond_lists_types():
    catalog = DataCatalog.from_pond(pond_with_frame(), now=1.2)
    assert DataType.LIDAR_SCAN in catalog
    assert catalog.data_types() == [DataType.LIDAR_SCAN]
    entry = catalog.entry(DataType.LIDAR_SCAN)
    assert entry.frame_count == 1
    assert entry.coverage_center == Vec2(0, 0)
    assert 0.0 <= entry.score() <= 1.0


def test_empty_pond_gives_empty_catalog():
    catalog = DataCatalog.from_pond(DataPond("n"), now=0.0)
    assert catalog.data_types() == []
    assert catalog.entry(DataType.LIDAR_SCAN) is None


def test_satisfies_quality_and_region():
    catalog = DataCatalog.from_pond(pond_with_frame(range_m=80.0), now=1.2)
    relaxed = DataQuality(freshness_s=1.0, coverage_radius_m=40.0, resolution=0.5, accuracy=0.5)
    assert catalog.satisfies(DataType.LIDAR_SCAN, relaxed)
    # Region 60 m away is within 80 m coverage.
    assert catalog.satisfies(
        DataType.LIDAR_SCAN, relaxed, region_center=Vec2(60, 0), region_radius=10.0
    )
    # Region 200 m away is not.
    assert not catalog.satisfies(
        DataType.LIDAR_SCAN, relaxed, region_center=Vec2(200, 0), region_radius=10.0
    )


def test_satisfies_fails_on_missing_type_or_quality():
    catalog = DataCatalog.from_pond(pond_with_frame(confidence=0.5), now=1.2)
    strict = DataQuality(freshness_s=0.5, coverage_radius_m=40.0, resolution=0.5, accuracy=0.95)
    assert not catalog.satisfies(DataType.LIDAR_SCAN, strict)
    assert not catalog.satisfies(DataType.CAMERA_FRAME, strict)
