"""Tests for the compute node executor."""

import pytest

from repro.compute.node import ComputeNode, TaskExecution
from repro.compute.resources import ResourceRequirement, ResourceSpec
from repro.simcore.simulator import Simulator


def make_node(cores=1, rate=1e9, **kwargs):
    sim = Simulator()
    node = ComputeNode(sim, ResourceSpec(cpu_ops_per_second=rate, cores=cores), **kwargs)
    return sim, node


def test_execution_takes_operations_over_rate_seconds():
    sim, node = make_node(rate=1e9)
    finished = []
    node.submit(TaskExecution(ResourceRequirement(operations=2e9),
                              on_complete=lambda e: finished.append(sim.now)))
    sim.run(until=1.0)
    assert finished == []
    sim.run(until=3.0)
    assert finished == [pytest.approx(2.0)]


def test_queueing_on_single_core():
    sim, node = make_node(cores=1, rate=1e9)
    order = []
    executions = [
        TaskExecution(ResourceRequirement(operations=1e9), label=label,
                      on_complete=lambda e: order.append((e.label, sim.now)))
        for label in ("first", "second")
    ]
    for execution in executions:
        node.submit(execution)
    assert node.queue_length == 1
    sim.run(until=5.0)
    assert order == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]
    assert sim.monitor.counter_value("compute.completed") == 2
    assert [e.queueing_delay for e in executions] == [0.0, pytest.approx(1.0)]


def test_multicore_runs_in_parallel():
    sim, node = make_node(cores=2, rate=1e9)
    done = []
    for _ in range(2):
        node.submit(TaskExecution(ResourceRequirement(operations=1e9),
                                  on_complete=lambda e: done.append(sim.now)))
    sim.run(until=1.5)
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


def test_rejection_when_static_resources_insufficient():
    sim, node = make_node()
    execution = TaskExecution(ResourceRequirement(operations=1e8, memory_mb=1e6))
    accepted = node.submit(execution)
    assert not accepted
    assert execution.rejected
    assert node.rejected_count == 1


def test_headroom_shrinks_with_load_and_respects_reserve():
    sim, node = make_node(cores=2, rate=1e9, reserve_fraction=0.5)
    assert node.headroom_ops() == pytest.approx(2e9 * 0.5)
    node.submit(TaskExecution(ResourceRequirement(operations=5e9)))
    assert node.headroom_ops() == pytest.approx(1e9 * 0.5)
    node.submit(TaskExecution(ResourceRequirement(operations=5e9)))
    assert node.headroom_ops() == 0.0
    assert node.load == pytest.approx(1.0)


def test_utilization_reflects_busy_time():
    sim, node = make_node(cores=1, rate=1e9)
    node.submit(TaskExecution(ResourceRequirement(operations=5e9)))
    sim.run(until=10.0)
    assert node.utilization() == pytest.approx(0.5, abs=0.05)


def test_invalid_reserve_fraction():
    sim = Simulator()
    with pytest.raises(ValueError):
        ComputeNode(sim, reserve_fraction=1.0)
