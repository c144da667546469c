"""Tests for topology snapshots and the observer."""

import pickle
import random
from types import SimpleNamespace

import pytest

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.mesh.topology import TopologyObserver, TopologySnapshot
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import reference_topology


def build(positions):
    sim = Simulator(seed=2)
    env = RadioEnvironment(sim, LinkBudget())
    agents = []
    for name, pos in positions.items():
        iface = env.attach(name, lambda p=pos: p)
        agents.append(
            BeaconAgent(sim, iface, lambda p=pos: (p, Vec2(0, 0)), beacon_period=0.4)
        )
    observer = TopologyObserver(sim, agents, period=1.0)
    return sim, observer


def test_chain_topology_is_connected():
    # a -- b -- c with a and c out of range of each other.
    sim, observer = build({"a": Vec2(0, 0), "b": Vec2(150, 0), "c": Vec2(300, 0)})
    sim.run(until=4.0)
    snapshot = observer.latest()
    assert snapshot is not None
    assert snapshot.node_count == 3
    assert snapshot.is_connected()
    assert snapshot.largest_component_size() == 3
    assert snapshot.edge_count == 2
    assert snapshot.mean_degree() > 1.0


def test_isolated_node_forms_own_component():
    sim, observer = build({"a": Vec2(0, 0), "b": Vec2(60, 0), "far": Vec2(9000, 0)})
    sim.run(until=4.0)
    snapshot = observer.latest()
    components = snapshot.components()
    assert len(components) == 2
    assert {"far"} in components
    assert not snapshot.is_connected()


def test_formation_time_detected():
    sim, observer = build({"a": Vec2(0, 0), "b": Vec2(60, 0)})
    sim.run(until=5.0)
    formation = observer.formation_time(min_size=2)
    assert formation is not None
    assert formation <= 3.0


def test_topology_gauges_hold_the_latest_tick():
    # a -- b -- c: the chain's two links join all three nodes from the
    # first tick that sees both directions of each link.
    sim, observer = build({"a": Vec2(0, 0), "b": Vec2(150, 0), "c": Vec2(300, 0)})
    sim.run(until=4.0)
    time, nodes, edges, largest = observer.rows[-1]
    assert len(observer.rows) == 4            # one row per tick
    assert (time, nodes, edges, largest) == (4.0, 3, 2, 3)
    gauges = sim.monitor.gauges
    assert gauges["mesh.largest_component"].value == largest
    assert gauges["mesh.edge_count"].value == edges


def test_link_lifetimes_recorded_when_node_stops():
    sim = Simulator(seed=2)
    env = RadioEnvironment(sim, LinkBudget())
    pos = {"a": Vec2(0, 0), "b": Vec2(60, 0)}
    agents = []
    for name, p in pos.items():
        iface = env.attach(name, lambda q=p: q)
        agents.append(BeaconAgent(sim, iface, lambda q=p: (q, Vec2(0, 0)), beacon_period=0.4,
                                  neighbor_lifetime=1.5))
    observer = TopologyObserver(sim, agents, period=0.5)
    sim.run(until=4.0)
    agents[1].stop()
    env.interface_of("b").enabled = False
    sim.run(until=12.0)
    assert observer.mean_link_lifetime() > 0.0


def test_empty_observer_has_no_snapshot_stats():
    sim = Simulator()
    observer = TopologyObserver(sim, [], period=1.0)
    snapshot = observer.take_snapshot()
    assert snapshot.node_count == 0
    assert snapshot.largest_component_size() == 0
    assert not snapshot.is_connected()
    assert observer.mean_link_lifetime() == 0.0


# ------------------------------------------- set-based snapshots vs networkx


class FakeAgent:
    """Just what the observer reads: an owner name and its active names."""

    def __init__(self, owner, names):
        self.interface = SimpleNamespace(node_name=owner)
        self.neighbors = SimpleNamespace(active_names=lambda now: list(names))


def random_tables(seed, nodes=30, outsiders=4):
    rng = random.Random(seed)
    owners = [f"n{index:02d}" for index in range(nodes)]
    # A few names nobody owns: heard, but not observer-tracked agents.
    pool = owners + [f"x{index}" for index in range(outsiders)]
    density = rng.uniform(0.03, 0.45)
    tables = []
    for owner in owners:
        heard = [name for name in pool if name != owner and rng.random() < density]
        rng.shuffle(heard)
        tables.append((owner, heard))
    return tables


def snapshot_of(tables, require_bidirectional):
    sim = Simulator()
    agents = [FakeAgent(owner, names) for owner, names in tables]
    observer = TopologyObserver(
        sim, agents, require_bidirectional=require_bidirectional
    )
    return observer.take_snapshot()


def assert_matches_reference(snapshot, reference):
    # Same node order as the graph: owners first, then heard names as
    # first observed — never hash order.
    assert list(snapshot.nodes) == list(reference["graph"].nodes)
    assert snapshot.node_count == reference["node_count"]
    assert snapshot.edge_count == reference["edge_count"]
    assert snapshot.largest_component_size() == reference["largest_component_size"]
    assert snapshot.mean_degree() == reference["mean_degree"]
    assert snapshot.is_connected() == reference["is_connected"]
    assert [frozenset(c) for c in snapshot.components()] == reference["components"]


@pytest.mark.parametrize("require_bidirectional", [True, False])
@pytest.mark.parametrize("seed", range(12))
def test_snapshot_statistics_match_networkx(seed, require_bidirectional):
    tables = random_tables(seed)
    snapshot = snapshot_of(tables, require_bidirectional)
    assert_matches_reference(
        snapshot, reference_topology(tables, require_bidirectional)
    )


def test_one_way_links_count_only_without_bidirectional_requirement():
    tables = [("a", ["b", "outside"]), ("b", [])]
    strict = snapshot_of(tables, True)
    assert (strict.node_count, strict.edge_count) == (2, 0)
    loose = snapshot_of(tables, False)
    # The non-agent endpoint is a node of the loose snapshot.
    assert loose.nodes == ("a", "b", "outside")
    assert loose.edges == {("a", "b"), ("a", "outside")}
    assert loose.is_connected()


def test_snapshot_pickle_round_trip_keeps_statistics():
    tables = random_tables(3)
    snapshot = snapshot_of(tables, True)
    restored = pickle.loads(pickle.dumps(snapshot))
    assert restored.nodes == snapshot.nodes
    assert restored.edges == snapshot.edges
    assert_matches_reference(restored, reference_topology(tables, True))
