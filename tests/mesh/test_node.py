"""Tests for the bundled MeshNode stack."""

from dataclasses import replace

from repro.geometry.vector import Vec2
from repro.mesh.node import MeshNode
from repro.mobility.vehicle import Vehicle
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


def build_pair(distance=50.0):
    sim = Simulator(seed=6)
    env = RadioEnvironment(sim, LinkBudget())
    a = MeshNode(sim, env, StaticNode(sim, Vec2(0, 0), name="a"))
    b = MeshNode(sim, env, StaticNode(sim, Vec2(distance, 0), name="b"))
    return sim, env, a, b


def test_mesh_nodes_discover_and_exchange():
    sim, env, a, b = build_pair()
    sim.run(until=2.0)
    assert "b" in a.neighbors.names()
    assert "a" in b.neighbors.active_names(sim.now)
    received = []
    b.on_receive(lambda src, kind, payload, size: received.append(payload))
    a.send_reliable("b", "hello", 600)
    sim.run(until=4.0)
    assert received == ["hello"]


def test_beacon_carries_velocity_of_moving_vehicle():
    sim = Simulator(seed=7)
    env = RadioEnvironment(sim, LinkBudget())
    from repro.mobility.manager import MobilityManager

    manager = MobilityManager(sim, tick=0.1)
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(500, 0)], name="v", initial_speed=10.0)
    manager.add_node(vehicle)
    moving = MeshNode(sim, env, vehicle)
    static = MeshNode(sim, env, StaticNode(sim, Vec2(30, 0), name="s"))
    sim.run(until=3.0)
    entry = static.neighbors.entry("v")
    assert entry is not None
    assert entry.beacon.velocity.x > 0.0


def test_shutdown_removes_node_from_mesh_after_expiry():
    sim, env, a, b = build_pair()
    sim.run(until=2.0)
    assert "b" in a.neighbors.names()
    b.shutdown()
    sim.run(until=10.0)
    assert "b" not in a.neighbors.names()


def test_restart_keeps_hooks_and_counters_on_fresh_parts():
    sim, env, a, b = build_pair()
    received, frames = [], []
    b.on_receive(lambda src, kind, payload, size: received.append(payload))
    b.on_frame(lambda frame, time, sequence, snr, rate: frames.append(frame))
    b.add_enricher(lambda beacon: replace(beacon, queue_length=7))
    sim.run(until=2.0)
    old_interface, old_agent = b.interface, b.beacon_agent
    sent, heard = old_interface.bytes_sent, old_interface.frames_received
    assert sent > 0 and heard > 0 and old_agent.epoch == 1

    b.restart()
    assert b.interface is not old_interface and b.beacon_agent is not old_agent
    assert not old_interface.enabled
    assert env.interface_of("b") is b.interface
    assert len(b.neighbors) == 0 and b.beacon_agent.epoch == 0
    assert (b.interface.bytes_sent, b.interface.frames_received) == (sent, heard)

    frames.clear()
    sim.run(until=4.0)
    assert "a" in b.neighbors.names()
    assert "a" in [frame.sender for frame in frames]  # the frame tap followed
    assert any(frame.kind == "beacon" for frame in frames)  # beacons too
    assert a.neighbors.entry("b").beacon.queue_length == 7  # so did the enricher
    assert b.interface.bytes_sent > sent
    a.send_reliable("b", "after restart", 600)
    sim.run(until=6.0)
    assert received == ["after restart"]      # and the transfer receiver
