"""Tests for the mobility manager."""

import pytest

from repro.geometry.vector import Vec2
from repro.mobility.manager import MobilityManager
from repro.mobility.vehicle import Vehicle
from repro.mobility.waypoints import StaticNode
from repro.simcore.simulator import Simulator


def test_manager_advances_nodes_on_tick():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1)
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(100, 0)], initial_speed=10.0)
    manager.add_node(vehicle)
    sim.run(until=2.0)
    assert vehicle.position.x > 5.0
    assert manager.position_of(vehicle.name).x == vehicle.position.x


def test_duplicate_names_rejected():
    sim = Simulator()
    manager = MobilityManager(sim)
    manager.add_node(StaticNode(sim, Vec2(0, 0), name="x"))
    with pytest.raises(ValueError):
        manager.add_node(StaticNode(sim, Vec2(1, 1), name="x"))


def test_remove_node():
    sim = Simulator()
    manager = MobilityManager(sim)
    node = StaticNode(sim, Vec2(0, 0), name="x")
    manager.add_node(node)
    manager.remove_node("x")
    assert manager.nodes == []
    assert "x" not in manager.substrate


def test_tick_listener_called():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.5)
    manager.add_node(StaticNode(sim, Vec2(0, 0)))
    times = []
    manager.on_tick(lambda now: times.append(now))
    sim.run(until=2.0)
    assert times == [0.5, 1.0, 1.5, 2.0]


def test_traces_recorded_when_enabled():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1, record_traces=True)
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(50, 0)], initial_speed=5.0)
    manager.add_node(vehicle)
    sim.run(until=3.0)
    trace = manager.traces[vehicle.name]
    assert len(trace) > 10
    assert trace.total_distance() > 0


def test_stop_halts_updates():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1)
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(100, 0)], initial_speed=10.0)
    manager.add_node(vehicle)
    sim.run(until=1.0)
    x_at_stop = vehicle.position.x
    manager.stop()
    sim.run(until=3.0)
    assert vehicle.position.x == x_at_stop


def test_invalid_tick_rejected():
    with pytest.raises(ValueError):
        MobilityManager(Simulator(), tick=0.0)


def test_position_epoch_advances_on_ticks_and_membership():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1)
    start = manager.substrate.position_epoch
    node = StaticNode(sim, Vec2(0, 0), name="s")
    manager.add_node(node)
    assert manager.substrate.position_epoch == start + 1
    sim.run(until=1.0)
    after_ticks = manager.substrate.position_epoch
    assert after_ticks >= start + 1 + 10  # one bump per tick
    manager.remove_node("s")
    assert manager.substrate.position_epoch == after_ticks + 1


def test_manager_commits_each_position_once_per_tick():
    # Membership changes write the shared substrate; ticks only move the
    # nodes and close with exactly one commit, which covers every position.
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1)
    writes = []

    def counted(key, update=manager.substrate.update):
        writes.append(key)
        update(key)

    manager.substrate.update = counted
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(100, 0)], name="v", initial_speed=10.0)
    manager.add_node(vehicle)
    for index in range(2):
        manager.add_node(StaticNode(sim, Vec2(float(index), 0), name=f"s{index}"))
    assert writes == ["v", "s0", "s1"]
    epoch = manager.substrate.position_epoch
    sim.run(until=1.0)
    ticks = manager.substrate.commit_count
    assert ticks == 10
    assert writes == ["v", "s0", "s1"]
    assert manager.substrate.position_epoch == epoch + ticks
    assert "v" in manager.substrate
