"""Tests for asynchronous mesh membership views."""

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.mesh.membership import MeshMembership
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


def build(positions, lifetime=1.5):
    sim = Simulator(seed=11)
    env = RadioEnvironment(sim, LinkBudget())
    memberships = {}
    agents = {}
    for name, pos in positions.items():
        iface = env.attach(name, lambda p=pos: p)
        agent = BeaconAgent(
            sim, iface, lambda p=pos: (p, Vec2(0, 0)), beacon_period=0.4, neighbor_lifetime=lifetime
        )
        agents[name] = agent
        memberships[name] = MeshMembership(sim, agent)
    return sim, agents, memberships


def test_view_includes_self_and_neighbors():
    sim, agents, memberships = build({"a": Vec2(0, 0), "b": Vec2(40, 0), "c": Vec2(80, 0)})
    sim.run(until=3.0)
    view = memberships["a"].members()
    assert "a" in view
    assert "b" in view
    assert memberships["a"].size() >= 2
    assert memberships["a"].is_member("b")


def test_join_and_leave_events_recorded():
    sim, agents, memberships = build({"a": Vec2(0, 0), "b": Vec2(40, 0)})
    sim.run(until=2.0)
    stats = memberships["a"].stats
    assert (stats.joins, stats.leaves) == (1, 0)
    assert stats.contact_durations == []
    assert memberships["a"].epoch == 1
    agents["b"].stop()
    sim.run(until=8.0)
    assert (stats.joins, stats.leaves) == (1, 1)
    assert stats.total_membership_changes == 2
    (duration,) = stats.contact_durations
    assert duration > 0
    assert stats.mean_contact_duration() == duration
    # One join then one leave: the view changed exactly twice.
    assert memberships["a"].epoch == 2


def test_epochs_advance_per_node_independently():
    sim, agents, memberships = build({"a": Vec2(0, 0), "b": Vec2(40, 0), "c": Vec2(3000, 0)})
    sim.run(until=3.0)
    assert memberships["a"].epoch >= 1
    assert memberships["c"].epoch == 0   # isolated node never changes its view


def test_view_age_reports_staleness():
    sim, agents, memberships = build({"a": Vec2(0, 0), "b": Vec2(40, 0)})
    sim.run(until=2.0)
    age = memberships["a"].view_age("b")
    assert age is not None and age < 1.0
    assert memberships["a"].view_age("unknown") is None


def test_silent_peer_leaves_view_within_lifetime_despite_sweep_phase():
    """Regression: view queries must not report entries past the lifetime.

    Eviction (and the ``leave`` event) happens on the periodic expiry sweep,
    which fires every half lifetime — up to 1.5 lifetimes after the last
    beacon.  The *view* (``members`` / ``is_member`` / ``size``) must go
    stale-free after one lifetime regardless of sweep phase.
    """
    lifetime = 1.5
    sim, agents, memberships = build(
        {"a": Vec2(0, 0), "b": Vec2(40, 0)}, lifetime=lifetime
    )
    sim.run(until=2.0)
    assert memberships["a"].is_member("b")
    agents["b"].stop()
    silent_from = sim.now
    # One lifetime (plus slack for an in-flight beacon) later the view is
    # clean, even though the entry may still await its sweep ...
    sim.run(until=silent_from + lifetime + 0.2)
    assert not memberships["a"].is_member("b")
    assert memberships["a"].size() == 1
    assert "b" not in memberships["a"].members()
    # ... and the leave is counted by the next sweep at the latest.
    sim.run(until=silent_from + 1.5 * lifetime + 0.2)
    assert memberships["a"].stats.leaves == 1
