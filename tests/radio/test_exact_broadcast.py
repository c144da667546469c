"""Exact-tier broadcast timing: contention and delivery order.

A broadcast's contention scale comes from its usable receivers, the set
``nodes_in_range(sender)`` names, and all its deliveries are scheduled in
name-sorted receiver order, so ties in arrival time fire in name order.
"""

import numpy as np

from repro.geometry.vector import Vec2
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import in_fire_order

SIZE_BYTES = 400
SPACING_S = 0.5


def build_fleet():
    sim = Simulator(seed=3)
    env = RadioEnvironment(sim, LinkBudget())
    positions = {"hub": Vec2(0.0, 0.0)}
    # Co-located, attached out of name order: identical links, identical
    # delays, so only the scheduling order separates their arrivals.
    for name in ("twin-c", "twin-a", "twin-b"):
        positions[name] = Vec2(60.0, 0.0)
    # Inside the spatial query radius of "hub" but past the usable range:
    # a broadcast candidate that nodes_in_range leaves out.
    positions["edge"] = Vec2(env.max_range + 3.0, 0.0)
    positions["far"] = Vec2(5000.0, 0.0)
    rng = np.random.default_rng(17)
    for index in range(12):
        x, y = rng.uniform(-250.0, 250.0, size=2)
        positions[f"v{index:02d}"] = Vec2(float(x), float(y))
    interfaces = {
        name: env.attach(name, lambda p=position: p)
        for name, position in positions.items()
    }
    return sim, env, interfaces


def test_broadcast_delay_and_order_follow_nodes_in_range():
    sim, env, interfaces = build_fleet()
    budget = env.link_budget
    assert not budget.quality(
        interfaces["hub"].position, interfaces["edge"].position, env.visibility
    ).usable
    deliveries = []
    for name, interface in interfaces.items():
        interface.on_broadcast(
            lambda frame, time, sequence, *link, name=name: deliveries.append(
                (time, sequence, frame.sender, name, *link)
            )
        )
    sent_at = {}
    in_range = {}

    def broadcast(sender):
        sent_at[sender] = sim.now
        interfaces[sender].send(sender, SIZE_BYTES, destination=None)
        # Same position epoch as the send, so the same sender plan.
        in_range[sender] = env.nodes_in_range(sender)

    for slot, sender in enumerate(sorted(interfaces)):
        sim.schedule_at(slot * SPACING_S, lambda sender=sender: broadcast(sender))
    sim.run(until=len(interfaces) * SPACING_S)
    deliveries = in_fire_order(deliveries)

    assert "edge" not in in_range["hub"]
    assert len(deliveries) == sim.monitor.counter_value("radio.frames_delivered")
    for now, _, sender, receiver, snr_db, rate_bps in deliveries:
        assert receiver in in_range[sender]
        # The fleet is static, so the arrival carries the scalar link's values.
        quality = budget.quality(
            interfaces[sender].position, interfaces[receiver].position, env.visibility
        )
        assert (snr_db, rate_bps) == (quality.snr_db, quality.rate_bps)
        concurrent = max(0, len(in_range[sender]) - 1)
        scale = 1.0 / (1.0 + env.contention_factor * concurrent)
        delay = (
            budget.transfer_time(SIZE_BYTES * 8, quality.rate_bps * scale)
            + quality.distance / 3e8
        )
        assert now == sent_at[sender] + delay

    for sender in interfaces:
        arrivals = [
            (now, receiver) for now, _, source, receiver, _, _ in deliveries
            if source == sender
        ]
        # Firing order is arrival time, ties broken by receiver name.
        assert arrivals == sorted(arrivals)
    twins = [
        receiver for _, _, source, receiver, _, _ in deliveries
        if source == "hub" and receiver.startswith("twin-")
    ]
    assert twins == ["twin-a", "twin-b", "twin-c"]
