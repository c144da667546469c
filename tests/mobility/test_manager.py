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


def test_manager_updates_spatial_index():
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1, cell_size=50.0)
    a = StaticNode(sim, Vec2(0, 0), name="a")
    b = Vehicle(sim, [Vec2(200, 0), Vec2(0, 0)], name="b", initial_speed=20.0)
    manager.add_node(a)
    manager.add_node(b)
    assert manager.neighbors_within("a", 100.0) == []
    sim.run(until=10.0)
    assert "b" in manager.neighbors_within("a", 100.0)


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
    assert manager.nodes_within(Vec2(0, 0), 10.0) == []


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


def test_manager_grid_is_the_substrate_grid():
    # The manager keeps no private spatial structure: `grid` is a view of
    # the shared substrate, and ticks sync it exactly once per node.
    sim = Simulator()
    manager = MobilityManager(sim, tick=0.1)
    assert manager.grid is manager.substrate.grid
    for index in range(3):
        manager.add_node(StaticNode(sim, Vec2(float(index), 0), name=f"s{index}"))
    inserted = manager.substrate.grid.update_calls
    assert inserted == 3
    sim.run(until=1.0)
    ticks = manager.substrate.commit_count
    assert ticks == 10
    assert manager.substrate.grid.update_calls == inserted + ticks * 3
    assert manager.neighbors_within("s0", 5.0) == ["s1", "s2"]
    assert manager.nodes_within(Vec2(0, 0), 1.5) == ["s0", "s1"]
