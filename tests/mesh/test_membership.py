"""Tests for each node's asynchronous view of its mesh.

A node's view is its beacon agent's neighbour table (read age-filtered
through ``active_names``); the agent's ``epoch`` counts the view's changes
and the monitor's ``mesh.joins`` / ``mesh.leaves`` count them fleet-wide.
"""

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


def build(positions, lifetime=1.5):
    sim = Simulator(seed=11)
    env = RadioEnvironment(sim, LinkBudget())
    agents = {}
    for name, pos in positions.items():
        iface = env.attach(name, lambda p=pos: p)
        agents[name] = BeaconAgent(
            sim, iface, lambda p=pos: (p, Vec2(0, 0)), beacon_period=0.4, neighbor_lifetime=lifetime
        )
    return sim, agents


def counted(sim):
    monitor = sim.monitor
    return monitor.counter_value("mesh.joins"), monitor.counter_value("mesh.leaves")


def test_view_includes_self_and_neighbors():
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0), "c": Vec2(80, 0)})
    sim.run(until=3.0)
    view = agents["a"].neighbors.active_names(sim.now)
    assert "b" in view
    assert "a" not in view  # the owner never hears itself
    assert len(view) >= 1


def test_join_and_leave_events_recorded():
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0)})
    sim.run(until=2.0)
    # Both nodes heard each other once: two joins fleet-wide.
    assert counted(sim) == (2, 0)
    assert agents["a"].epoch == 1
    agents["b"].stop()
    sim.run(until=8.0)
    # a evicted the silent b; b, still listening, keeps a.
    assert counted(sim) == (2, 1)
    # One join then one leave: a's view changed exactly twice.
    assert agents["a"].epoch == 2
    assert agents["b"].epoch == 1


def test_epochs_advance_per_node_independently():
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0), "c": Vec2(3000, 0)})
    sim.run(until=3.0)
    assert agents["a"].epoch >= 1
    assert agents["c"].epoch == 0   # isolated node never changes its view


def test_epoch_counts_each_evicted_name():
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0), "c": Vec2(0, 40)})
    sim.run(until=2.0)
    assert agents["a"].epoch == 2
    agents["b"].stop()
    agents["c"].stop()
    sim.run(until=8.0)
    # b and c went silent together; one sweep may evict both, and each
    # evicted name is one step.
    assert agents["a"].epoch == 4
    assert agents["a"].build_beacon().epoch == 4


def test_view_age_reports_staleness():
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0)})
    sim.run(until=2.0)
    entry = agents["a"].neighbors.entry("b")
    assert entry is not None and entry.age(sim.now) < 1.0
    assert agents["a"].neighbors.entry("unknown") is None


def test_silent_peer_leaves_view_within_lifetime_despite_sweep_phase():
    """Regression: view queries must not report entries past the lifetime.

    Eviction (and the ``leave`` event) happens on the periodic expiry sweep,
    which fires every half lifetime — up to 1.5 lifetimes after the last
    beacon.  The *view* (``active_names``) must go stale-free after one
    lifetime regardless of sweep phase.
    """
    lifetime = 1.5
    sim, agents = build({"a": Vec2(0, 0), "b": Vec2(40, 0)}, lifetime=lifetime)
    sim.run(until=2.0)
    assert agents["a"].neighbors.active_names(sim.now) == ["b"]
    agents["b"].stop()
    silent_from = sim.now
    # One lifetime (plus slack for an in-flight beacon) later the view is
    # clean, even though the entry may still await its sweep ...
    sim.run(until=silent_from + lifetime + 0.2)
    assert agents["a"].neighbors.active_names(sim.now) == []
    # ... and the leave is counted by the next sweep at the latest.
    sim.run(until=silent_from + 1.5 * lifetime + 0.2)
    assert counted(sim)[1] == 1
