"""Tests for greedy geographic routing."""

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.mesh.messages import DataMessage
from repro.mesh.routing import GreedyGeoRouter
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.scenarios import build_scenario
from repro.simcore.simulator import Simulator


def build(positions):
    sim = Simulator(seed=3)
    env = RadioEnvironment(sim, LinkBudget())
    routers = {}
    for name, pos in positions.items():
        iface = env.attach(name, lambda p=pos: p)
        agent = BeaconAgent(sim, iface, lambda p=pos: (p, Vec2(0, 0)), beacon_period=0.4)
        routers[name] = GreedyGeoRouter(sim, iface, agent.neighbors, lambda p=pos: p)
    return sim, routers


def outgoing(sim, destination, payload, size_bytes, **kwargs):
    """A message from "a", numbered by its simulation like the transport does."""
    return DataMessage(
        "a", destination, "data", payload, size_bytes,
        message_id=sim.new_id("message"), **kwargs,
    )


def test_direct_neighbor_delivery():
    sim, routers = build({"a": Vec2(0, 0), "b": Vec2(60, 0)})
    sim.run(until=2.0)   # let discovery settle
    received = []
    routers["b"].on_deliver(lambda message: received.append(message.payload))
    routers["a"].send(outgoing(sim, "b", "payload", 500))
    sim.run(until=3.0)
    assert received == ["payload"]
    assert routers["b"].messages_delivered == 1


def test_multi_hop_delivery_through_chain():
    # a can only reach c through b.
    sim, routers = build({"a": Vec2(0, 0), "b": Vec2(180, 0), "c": Vec2(360, 0)})
    sim.run(until=2.5)
    received = []
    routers["c"].on_deliver(lambda message: received.append(message))
    routers["a"].send(outgoing(sim, "c", "hop-hop", 500, hop_limit=5))
    sim.run(until=4.0)
    assert len(received) == 1
    assert received[0].payload == "hop-hop"
    assert received[0].hops_taken >= 1


def test_message_to_unknown_destination_without_neighbors_is_dropped():
    sim, routers = build({"a": Vec2(0, 0)})
    sim.run(until=1.0)
    ok = routers["a"].send(outgoing(sim, "ghost", None, 100))
    assert ok is False
    assert routers["a"].messages_dropped == 1


def test_ttl_exhaustion_drops_message():
    sim, routers = build({"a": Vec2(0, 0), "b": Vec2(60, 0)})
    sim.run(until=2.0)
    ok = routers["a"].send(outgoing(sim, "b", None, 100, hop_limit=0))
    assert ok is False
    assert sim.monitor.counter_value("mesh.routing_drops_ttl") == 1


def test_local_delivery_short_circuits():
    sim, routers = build({"a": Vec2(0, 0)})
    received = []
    routers["a"].on_deliver(lambda m: received.append(m.payload))
    routers["a"].send(outgoing(sim, "a", "self", 10))
    assert received == ["self"]


def test_delivered_message_ids_are_unique_in_a_faulted_run(monkeypatch):
    """The router keeps no seen-id set, because no id can arrive twice.

    Each send issues a fresh id, a forward is one unicast copy along one
    greedy path, and a retransmission takes fresh ids.  Crashes, loss bursts
    and k=3 redundant offers are where a repeat would show.
    """
    delivered = []
    deliver_local = GreedyGeoRouter._deliver_local

    def tap(router, message):
        delivered.append(message.message_id)
        deliver_local(router, message)

    monkeypatch.setattr(GreedyGeoRouter, "_deliver_local", tap)
    scenario = build_scenario(
        "urban-grid", n=12, seed=4, crash_rate=0.05, mean_downtime=2.0,
        loss_burst_rate=0.4, task_redundancy=3, task_rate_per_s=2.0,
    )
    report = scenario.run(15.0)
    assert report.extra["crashes_injected"] > 0
    assert report.extra["recoveries_injected"] > 0
    assert len(delivered) > 100
    assert len(set(delivered)) == len(delivered)
