"""Tests for the three description models."""

import pytest

from repro.core.models import (
    DataDescription,
    NeighborDescription,
    NetworkDescription,
    TaskDescription,
    TaskResult,
)
from repro.data.datatypes import DataType
from repro.geometry.vector import Vec2


def make_neighbor(name="n1", data_types=("lidar_scan",), headroom=1e9):
    return NeighborDescription(
        name=name,
        position=Vec2(10, 0),
        velocity=Vec2(0, 0),
        distance_m=10.0,
        link_rate_bps=10e6,
        link_snr_db=20.0,
        compute_headroom_ops=headroom,
        queue_length=0,
        data_summary={t: (80.0, 0.1, 0.9) for t in data_types},
        trust_score=0.9,
        beacon_age_s=0.2,
        predicted_contact_time_s=30.0,
    )


def test_task_description_validation_and_ids(two_nodes):
    # A description gets its id when submitted, from the requester's
    # simulation, so two submissions of one description are two tasks.
    task = TaskDescription(function_name="noop", operations=1e7)
    assert task.task_id == -1
    first = two_nodes[0].submit_task(task).task
    second = two_nodes[0].submit_task(task).task
    assert first.task_id != second.task_id
    assert task.task_id == -1
    with pytest.raises(ValueError):
        TaskDescription(function_name="f", operations=0)
    with pytest.raises(ValueError):
        TaskDescription(function_name="f", redundancy=0)


def test_with_requester_stamps_requester_and_id():
    task = TaskDescription(function_name="f", parameters={"a": 1})
    stamped = task.with_requester("ego", 5)
    assert stamped.requester == "ego"
    assert stamped.task_id == 5
    assert task.requester == "" and task.task_id == -1
    assert stamped.parameters == {"a": 1}
    assert stamped.parameters is not task.parameters


def test_neighbor_description_has_data():
    neighbor = make_neighbor()
    assert neighbor.has_data(DataType.LIDAR_SCAN)
    assert not neighbor.has_data(DataType.CAMERA_FRAME)


def test_network_description_queries():
    neighbors = [make_neighbor("a", headroom=1e9), make_neighbor("b", data_types=(), headroom=2e9)]
    network = NetworkDescription(owner="me", time=1.0, position=Vec2(0, 0), neighbors=neighbors)
    assert len(network) == 2
    assert network.names() == ["a", "b"]
    assert network.neighbor("a").name == "a"
    assert network.neighbor("missing") is None
    assert network.total_headroom_ops() == 3e9


def test_data_description_defaults():
    description = DataDescription()
    assert description.data_type == DataType.LIDAR_SCAN
    assert description.region_center is None


def test_task_result_fields():
    result = TaskResult(task_id=1, executor="a", success=True, value=42, total_latency_s=0.5)
    assert result.success and result.value == 42
    failed = TaskResult(task_id=2, executor="", success=False, failure_reason="no candidates")
    assert not failed.success and failed.failure_reason
