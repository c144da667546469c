"""Tests for asynchronous beaconing and neighbour discovery."""

from dataclasses import replace

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


def make_agents(positions, beacon_period=0.5, neighbor_lifetime=2.0):
    sim = Simulator(seed=5)
    env = RadioEnvironment(sim, LinkBudget())
    agents = {}
    for name, pos in positions.items():
        iface = env.attach(name, lambda p=pos: p)
        agents[name] = BeaconAgent(
            sim,
            iface,
            state_provider=lambda p=pos: (p, Vec2(0, 0)),
            beacon_period=beacon_period,
            neighbor_lifetime=neighbor_lifetime,
        )
    return sim, env, agents


def test_nodes_discover_each_other():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(60, 0)})
    sim.run(until=3.0)
    assert "b" in agents["a"].neighbors
    assert "a" in agents["b"].neighbors
    assert agents["a"].beacons_sent >= 4
    assert agents["a"].beacons_heard >= 4


def test_out_of_range_nodes_do_not_discover():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(5000, 0)})
    sim.run(until=3.0)
    assert len(agents["a"].neighbors) == 0


def test_neighbor_up_callback_and_expiry_leave():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(50, 0)}, neighbor_lifetime=1.5)
    ups = []
    agents["a"].on_neighbor_up(lambda name, beacon, time, sequence: ups.append(name))
    sim.run(until=2.0)
    assert ups == ["b"]
    assert agents["a"].epoch == 1
    assert sim.monitor.counter_value("mesh.leaves") == 0
    # Silence b: stop it beaconing and let a's table expire it.
    agents["b"].stop()
    sim.run(until=8.0)
    assert "b" not in agents["a"].neighbors
    assert agents["a"].epoch == 2  # one join, one leave
    # b still hears a, so the only leave fleet-wide is a evicting b.
    assert sim.monitor.counter_value("mesh.leaves") == 1


def test_epoch_increases_on_membership_changes():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    assert agents["a"].epoch == 0
    sim.run(until=2.0)
    assert agents["a"].epoch >= 1


def test_enricher_rewrites_outgoing_beacons():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    agents["a"].add_enricher(lambda beacon: replace(beacon, compute_headroom_ops=7e9))
    sim.run(until=2.0)
    entry = agents["b"].neighbors.entry("a")
    assert entry is not None
    assert entry.beacon.compute_headroom_ops == 7e9


def test_beacons_are_not_synchronised_across_nodes():
    sim, env, agents = make_agents({"a": Vec2(0, 0), "b": Vec2(50, 0), "c": Vec2(30, 30)})
    sim.run(until=5.0)
    # With per-node phase and jitter, send counts may differ slightly but all
    # nodes keep beaconing.
    counts = [agent.beacons_sent for agent in agents.values()]
    assert all(count >= 6 for count in counts)
