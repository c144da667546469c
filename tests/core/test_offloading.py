"""Tests for the executor-side offloading agent."""

import pytest

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDConfig
from repro.core.models import DataDescription, TaskDescription
from repro.core.offloading import TaskOffer, TaskReject, TaskResultMessage
from repro.core.task_model import build_task
from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from tests.conftest import make_static_airdnd_nodes


def offer_for(task, requester, at):
    return TaskOffer(task=task, requester=requester, sent_at=at, offer_id=0)


def test_executor_runs_offer_and_returns_result(sim, environment, registry):
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    requester, executor = nodes
    sim.run(until=2.0)
    results = []
    requester.mesh.on_receive(
        lambda src, kind, payload, size: results.append((kind, payload))
        if kind == "airdnd.result"
        else None
    )
    task = build_task(registry, "noop").with_requester(requester.name, sim.new_id("task"))
    requester.mesh.send_reliable(
        executor.name, offer_for(task, requester.name, sim.now), 600, kind="airdnd.offer"
    )
    sim.run(until=6.0)
    result_messages = [p for k, p in results if isinstance(p, TaskResultMessage)]
    assert len(result_messages) == 1
    assert result_messages[0].value == 42
    assert result_messages[0].executor == executor.name
    assert executor.executor.offers_accepted == 1
    assert executor.executor.results_sent == 1


def test_executor_rejects_unknown_function(sim, environment, registry):
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    requester, executor = nodes
    sim.run(until=2.0)
    rejects = []
    requester.mesh.on_receive(
        lambda src, kind, payload, size: rejects.append(payload)
        if kind == "airdnd.reject"
        else None
    )
    bogus = TaskDescription(function_name="not-registered", requester=requester.name)
    requester.mesh.send_reliable(
        executor.name, offer_for(bogus, requester.name, sim.now), 600, kind="airdnd.offer"
    )
    sim.run(until=6.0)
    assert len(rejects) == 1
    assert isinstance(rejects[0], TaskReject)
    assert "catalogue" in rejects[0].reason or "know" in rejects[0].reason
    assert executor.executor.offers_rejected == 1


def test_executor_rejects_when_data_missing(sim, environment, registry):
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    requester, executor = nodes
    sim.run(until=2.0)
    rejects = []
    requester.mesh.on_receive(
        lambda src, kind, payload, size: rejects.append(payload)
        if kind == "airdnd.reject"
        else None
    )
    task = build_task(
        registry,
        "noop",
        data=DataDescription(
            data_type=DataType.LIDAR_SCAN,
            required_quality=DataQuality(freshness_s=1.0, coverage_radius_m=10.0, resolution=0.5, accuracy=0.5),
        ),
    ).with_requester(requester.name, sim.new_id("task"))
    requester.mesh.send_reliable(
        executor.name, offer_for(task, requester.name, sim.now), 600, kind="airdnd.offer"
    )
    sim.run(until=6.0)
    assert len(rejects) == 1
    assert "data" in rejects[0].reason


def test_executor_rejects_when_queue_full(sim, environment, registry):
    config = AirDnDConfig(executor_max_queue=0)
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)], config=config)
    requester, executor = nodes
    sim.run(until=2.0)
    # Fill the executor's queue directly so queue_length >= max.
    from repro.compute.node import TaskExecution
    from repro.compute.resources import ResourceRequirement

    for _ in range(executor.compute.spec.cores + 1):
        executor.compute.submit(TaskExecution(ResourceRequirement(operations=5e10)))
    rejects = []
    requester.mesh.on_receive(
        lambda src, kind, payload, size: rejects.append(payload)
        if kind == "airdnd.reject"
        else None
    )
    task = build_task(registry, "noop").with_requester(requester.name, sim.new_id("task"))
    requester.mesh.send_reliable(
        executor.name, offer_for(task, requester.name, sim.now), 600, kind="airdnd.offer"
    )
    sim.run(until=6.0)
    assert len(rejects) == 1
    assert "queue" in rejects[0].reason


def test_malicious_executor_corrupts_result(sim, environment, registry):
    from repro.core.api import AirDnDNode
    from repro.geometry.vector import Vec2
    from repro.mobility.waypoints import StaticNode

    requester = make_static_airdnd_nodes(sim, environment, registry, [(0, 0)])[0]
    evil_mobile = StaticNode(sim, Vec2(50, 0), name="evil")
    evil = AirDnDNode(
        sim, environment, evil_mobile, registry, result_corruptor=lambda value: "corrupted"
    )
    sim.run(until=2.0)
    results = []
    requester.mesh.on_receive(
        lambda src, kind, payload, size: results.append(payload)
        if kind == "airdnd.result"
        else None
    )
    task = build_task(registry, "noop").with_requester(requester.name, sim.new_id("task"))
    requester.mesh.send_reliable(
        evil.name, offer_for(task, requester.name, sim.now), 600, kind="airdnd.offer"
    )
    sim.run(until=6.0)
    assert results and results[0].value == "corrupted"
