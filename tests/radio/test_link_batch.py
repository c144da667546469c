"""Batched link-pipeline equivalence and behaviour tests.

The contract under test is *bit*-identity, not approximate equality: the
environment's column-kernel plans and link rows must reproduce the
grid-candidate plans and scalar per-pair rows of the oracle's
:class:`~tests.oracle.ReferenceRadioEnvironment` exactly, RNG draw for RNG
draw.
"""

import random

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


def test_quality_batch_empty_receiver_list():
    assert LinkBudget().quality_batch(Vec2(0, 0), []) == []


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
                batch = budget.quality_batch(tx, rxs, vis)
                for rx, batched in zip(rxs, batch):
                    scalar = budget.quality(tx, rx, vis)
                    assert quality_tuple(batched) == quality_tuple(scalar)
                    # Plain Python scalars, not numpy types, leave the kernel.
                    assert type(batched.snr_db) is float
                    assert type(batched.usable) is bool


def test_quality_batch_covers_both_snr_branches():
    budget = LinkBudget()
    qualities = budget.quality_batch(Vec2(0, 0), [Vec2(10, 0), Vec2(9000, 0)])
    assert qualities[0].usable and qualities[0].rate_bps > 0
    assert not qualities[1].usable
    assert qualities[1].rate_bps == 0.0 and qualities[1].packet_error_rate == 1.0


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


# ------------------------------------------------- environment row semantics


def build_env(reference=False, n=12, seed=5):
    sim = Simulator(seed=seed)
    environment_class = ReferenceRadioEnvironment if reference else RadioEnvironment
    env = environment_class(sim, LinkBudget())
    rng = random.Random(99)
    for index in range(n):
        pos = Vec2(rng.uniform(0, 400), rng.uniform(0, 400))
        env.attach(f"n-{index:02d}", lambda p=pos: p)
    return sim, env


def test_environment_rows_identical_across_batched_flag():
    _, batched = build_env()
    _, reference = build_env(reference=True)
    names = batched.node_names
    for src in names:
        assert batched.nodes_in_range(src) == reference.nodes_in_range(src)
        for dst in names:
            if dst == src:
                continue
            assert quality_tuple(batched.link_quality(src, dst)) == quality_tuple(
                reference.link_quality(src, dst)
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


def test_rows_are_filled_per_sender_and_flushed_on_epoch_bump():
    sim, env = build_env(n=6)
    src, *others = env.node_names
    env.nodes_in_range(src)
    assert env._quality_rows == {}  # broadcasts read the plan, not rows
    for dst in others[:3]:
        env.link_quality(src, dst)
    assert list(env._quality_rows) == [src]
    assert sorted(env._quality_rows[src]) == others[:3]
    env.notify_positions_changed()
    env.link_quality(src, others[0])  # refresh rebuilds the row, not grows it
    assert sorted(env._quality_rows[src]) == others[:1]


def test_unicast_to_unattached_destination_is_dropped_quietly():
    sim, env = build_env(n=3)
    sender = env.interface_of(env.node_names[0])
    sender.send("to-nobody", 50, destination="ghost")
    sim.run(until=1.0)
    assert "ghost" not in env._quality_rows.get(sender.node_name, {})
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


def test_quality_batch_falls_back_for_models_without_batch_method():
    """External models implementing only the pre-batch Protocol still work."""

    class MinimalModel:
        def path_loss_db(self, tx, rx, visibility=None):
            return 60.0 + tx.distance_to(rx) * 0.2

    budget = LinkBudget(MinimalModel())
    tx = Vec2(0.0, 0.0)
    rxs = [Vec2(30.0, 0.0), Vec2(0.0, 900.0)]
    batch = budget.quality_batch(tx, rxs)
    for rx, batched in zip(rxs, batch):
        assert quality_tuple(batched) == quality_tuple(budget.quality(tx, rx))
