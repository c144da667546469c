"""Tests for workload generators and generic functions."""

import pytest

from repro.compute.faas import FunctionRegistry
from repro.scenarios.workloads import GenericComputeWorkload, register_generic_functions
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.conftest import make_static_airdnd_nodes


def test_register_generic_functions_idempotent_names():
    registry = FunctionRegistry()
    register_generic_functions(registry)
    assert "generic_compute" in registry
    assert "map_update" in registry
    body_result = registry.get("generic_compute").body({"operations": 5.0, "label": "x"}, None)
    assert body_result == {"operations": 5.0, "label": "x"}
    assert registry.get("generic_compute").cost_model({"operations": 3e8}) == 3e8


def test_map_update_counts_pond_frames():
    registry = FunctionRegistry()
    register_generic_functions(registry)
    assert registry.get("map_update").body({"now": 0.0}, None) == {"frames_used": 0}


def test_workload_submits_tasks_at_roughly_the_requested_rate():
    sim = Simulator(seed=21)
    registry = FunctionRegistry()
    register_generic_functions(registry)
    environment = RadioEnvironment(sim, LinkBudget())
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    workload = GenericComputeWorkload(sim, nodes, registry, arrival_rate_per_s=2.0)
    sim.run(until=30.0)
    submitted = workload.submitted
    assert 30 <= submitted <= 100        # Poisson(60) within generous bounds
    total_lifecycles = sum(len(n.orchestrator.lifecycles) for n in nodes)
    assert total_lifecycles == submitted


def test_workload_stop_halts_submissions():
    sim = Simulator(seed=22)
    registry = FunctionRegistry()
    register_generic_functions(registry)
    environment = RadioEnvironment(sim, LinkBudget())
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0)])
    workload = GenericComputeWorkload(sim, nodes, registry, arrival_rate_per_s=5.0)
    sim.run(until=5.0)
    count = workload.submitted
    workload.stop()
    sim.run(until=10.0)
    assert workload.submitted == count


def test_workload_rejects_bad_rate():
    sim = Simulator()
    registry = FunctionRegistry()
    register_generic_functions(registry)
    with pytest.raises(ValueError):
        GenericComputeWorkload(sim, [], registry, arrival_rate_per_s=0.0)


def test_workload_rejects_bad_redundancy():
    sim = Simulator()
    registry = FunctionRegistry()
    register_generic_functions(registry)
    with pytest.raises(ValueError):
        GenericComputeWorkload(sim, [], registry, redundancy=0)


def test_workload_stamps_redundancy_on_every_task():
    sim = Simulator(seed=23)
    registry = FunctionRegistry()
    register_generic_functions(registry)
    environment = RadioEnvironment(sim, LinkBudget())
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    workload = GenericComputeWorkload(
        sim, nodes, registry, arrival_rate_per_s=3.0, redundancy=3
    )
    sim.run(until=5.0)
    tasks = [lifecycle.task for node in nodes for lifecycle in node.orchestrator.lifecycles]
    assert len(tasks) == workload.submitted > 0
    assert all(task.redundancy == 3 for task in tasks)


def test_suspended_node_originates_no_tasks_until_resumed():
    sim = Simulator(seed=24)
    registry = FunctionRegistry()
    register_generic_functions(registry)
    environment = RadioEnvironment(sim, LinkBudget())
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    workload = GenericComputeWorkload(sim, nodes, registry, arrival_rate_per_s=5.0)
    workload.suspend_node(nodes[0])
    sim.run(until=10.0)
    suspended_submissions = len(nodes[0].orchestrator.lifecycles)
    assert suspended_submissions == 0
    assert len(nodes[1].orchestrator.lifecycles) > 0
    workload.resume_node(nodes[0])
    sim.run(until=20.0)
    assert len(nodes[0].orchestrator.lifecycles) > 0


def test_whole_fleet_suspended_keeps_arrival_process_alive():
    sim = Simulator(seed=25)
    registry = FunctionRegistry()
    register_generic_functions(registry)
    environment = RadioEnvironment(sim, LinkBudget())
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0)])
    workload = GenericComputeWorkload(sim, nodes, registry, arrival_rate_per_s=5.0)
    workload.suspend_node(nodes[0])
    sim.run(until=5.0)
    assert not workload.submitted
    workload.resume_node(nodes[0])
    sim.run(until=10.0)
    assert workload.submitted
