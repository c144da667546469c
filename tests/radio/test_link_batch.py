"""Batched link-pipeline equivalence and behaviour tests.

The contract under test is *bit*-identity, not approximate equality: the
exact column kernel (:meth:`LinkBudget.exact_arrays_xy`, a batch of link
qualities for one sender) must reproduce scalar :meth:`LinkBudget.quality`
per pair, and the environment's sender plans, which serve broadcast and
unicast alike, must reproduce the grid-candidate plans over scalar per-pair
qualities of the oracle's :class:`~tests.oracle.ReferenceRadioEnvironment`
exactly, RNG draw for RNG draw.
"""

import random

import numpy as np

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.radio.propagation import FreeSpacePathLoss, LogDistancePathLoss
from repro.simcore.simulator import Simulator
from tests.oracle import ReferenceRadioEnvironment, in_fire_order


def quality_tuple(q):
    return (q.snr_db, q.rate_bps, q.packet_error_rate, q.usable, q.distance)


def exact_kernel(budget, tx, rxs, visibility=None):
    """:meth:`LinkBudget.exact_arrays_xy` on ``rxs``, one
    ``(snr_db, rate_bps, packet_error_rate, usable, distance)`` tuple per
    receiver."""
    xs = np.array([rx.x for rx in rxs], np.float64)
    ys = np.array([rx.y for rx in rxs], np.float64)
    snrs, rates, pers, usable, distances = budget.exact_arrays_xy(
        tx, xs, ys, visibility, rxs=rxs
    )
    return list(zip(snrs.tolist(), rates.tolist(), pers.tolist(),
                    usable.tolist(), distances.tolist()))


def test_quality_batch_empty_receiver_list():
    assert exact_kernel(LinkBudget(), Vec2(0, 0), []) == []


def test_quality_batch_bit_identical_to_scalar_quality():
    rng = random.Random(7)
    obstacles = [
        Rectangle(x, y, x + rng.uniform(5, 40), y + rng.uniform(5, 40))
        for x, y in ((rng.uniform(-200, 200), rng.uniform(-200, 200)) for _ in range(15))
    ]
    visibility = VisibilityMap(obstacles)
    for budget in (LinkBudget(), LinkBudget(FreeSpacePathLoss()),
                   LinkBudget(LogDistancePathLoss(exponent=3.2, nlos_penalty_db=20.0))):
        for _ in range(50):
            tx = Vec2(rng.uniform(-300, 300), rng.uniform(-300, 300))
            rxs = [
                Vec2(rng.uniform(-300, 300), rng.uniform(-300, 300))
                for _ in range(rng.randrange(1, 12))
            ]
            for vis in (None, visibility):
                batch = exact_kernel(budget, tx, rxs, vis)
                assert batch == [
                    quality_tuple(budget.quality(tx, rx, vis)) for rx in rxs
                ]


def test_quality_batch_covers_both_snr_branches():
    budget = LinkBudget()
    near, far = exact_kernel(budget, Vec2(0, 0), [Vec2(10, 0), Vec2(9000, 0)])
    _, rate, _, usable, _ = near
    assert usable and rate > 0
    _, rate, per, usable, _ = far
    assert not usable
    assert rate == 0.0 and per == 1.0


def test_path_loss_batch_applies_nlos_penalty_per_receiver():
    visibility = VisibilityMap([Rectangle(40.0, -10.0, 60.0, 10.0)])
    model = LogDistancePathLoss()
    tx = Vec2(0.0, 0.0)
    clear_rx = Vec2(0.0, 100.0)
    blocked_rx = Vec2(100.0, 0.0)
    losses = model.path_loss_db_batch(
        tx,
        [clear_rx, blocked_rx],
        [tx.distance_to(clear_rx), tx.distance_to(blocked_rx)],
        visibility,
    )
    assert losses[0] == model.path_loss_db(tx, clear_rx, visibility)
    assert losses[1] == model.path_loss_db(tx, blocked_rx, visibility)
    assert losses[1] - losses[0] > model.nlos_penalty_db / 2  # penalty landed


# ------------------------------------------------ environment plan semantics


def build_env(reference=False, n=12, seed=5):
    sim = Simulator(seed=seed)
    environment_class = ReferenceRadioEnvironment if reference else RadioEnvironment
    env = environment_class(sim, LinkBudget())
    rng = random.Random(99)
    for index in range(n):
        pos = Vec2(rng.uniform(0, 400), rng.uniform(0, 400))
        env.attach(f"n-{index:02d}", lambda p=pos: p)
    return sim, env


def plan_columns(env, src):
    """Every column of ``src``'s sender plan, as plain lists."""
    plan = env._sender_plan(env.interface_of(src))
    return [
        [receiver.node_name for receiver in plan.receivers],
        *(column.tolist() for column in (
            plan.indices, plan.slots, plan.snr_db, plan.rate_bps, plan.pers,
            plan.scaled_rates, plan.prop_delays,
        )),
        plan.out_of_range,
    ]


def test_environment_rows_identical_across_batched_flag():
    _, batched = build_env()
    _, reference = build_env(reference=True)
    names = batched.node_names
    for src in names:
        assert batched.nodes_in_range(src) == reference.nodes_in_range(src)
        assert plan_columns(batched, src) == plan_columns(reference, src)
        plan = batched._plans[src]
        tx = batched.interface_of(src).position
        for receiver, snr_db, rate_bps, per in zip(
            plan.receivers, plan.snr_db.tolist(), plan.rate_bps.tolist(),
            plan.pers.tolist(),
        ):
            scalar = batched.link_budget.quality(tx, receiver.position)
            assert (snr_db, rate_bps, per) == (
                scalar.snr_db, scalar.rate_bps, scalar.packet_error_rate
            )


def test_broadcast_delivery_identical_across_batched_flag():
    logs = {}
    for reference in (False, True):
        sim, env = build_env(reference)
        log = []
        for name in env.node_names:
            env.interface_of(name).on_broadcast(
                lambda frame, time, sequence, *link, receiver=name: log.append(
                    (time, sequence, frame.sender, receiver, *link)
                )
            )
        for name in env.node_names:
            env.interface_of(name).send(f"hello-{name}", 200, destination=None)
        sim.run(until=2.0)
        assert log, "broadcasts must deliver something for the check to bite"
        logs[reference] = in_fire_order(log)
    assert logs[False] == logs[True]


def test_unicast_reads_the_sender_plan(monkeypatch):
    """A unicast in the epoch of its sender's plan evaluates no link: its
    receiver's columns come from the plan a broadcast or range query built."""
    sim, env = build_env(n=6)
    src = env.node_names[0]
    in_range = env.nodes_in_range(src)
    assert in_range
    kernel = LinkBudget.exact_arrays_xy
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args[0])
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(LinkBudget, "exact_arrays_xy", counted)
    received = []
    env.interface_of(in_range[0]).on_unicast(
        lambda frame, time, sequence, snr_db, rate_bps: received.append(
            (frame.payload, time, snr_db, rate_bps)
        )
    )
    for _ in range(20):
        env.interface_of(src).send("hello", 100, destination=in_range[0])
    assert calls == []
    sim.run(until=1.0)
    assert received
    plan = env._plans[src]
    for payload, time, snr_db, rate_bps in received:
        assert type(time) is float and type(snr_db) is float
        assert (snr_db, rate_bps) == (plan.snr_db[0], plan.rate_bps[0])


def test_unicast_to_unattached_destination_is_dropped_quietly():
    sim, env = build_env(n=3)
    sender = env.interface_of(env.node_names[0])
    sender.send("to-nobody", 50, destination="ghost")
    sim.run(until=1.0)
    assert sim.monitor.counter_value("radio.frames_lost") == 0
    assert sim.monitor.counter_value("radio.frames_out_of_range") == 0


def test_sender_plan_is_built_once_per_epoch_and_flushed_on_bump():
    sim, env = build_env(n=6)
    src = env.node_names[0]
    in_range = env.nodes_in_range(src)
    plan = env._plans[src]
    assert [receiver.node_name for receiver in plan.receivers] == in_range
    env.interface_of(src).send("hello", 200)  # same epoch: same plan
    assert env._plans[src] is plan
    env.notify_positions_changed()
    assert env.nodes_in_range(src) == in_range  # nobody moved
    assert env._plans[src] is not plan

