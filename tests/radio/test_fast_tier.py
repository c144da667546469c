"""Unit tests for the statistical (``fast_math``) equivalence tier.

The aggregate contract lives in
``tests/properties/test_property_statistical_equivalence.py`` and the
speedup gate in benchmark E15; these tests pin the tier's pieces one by
one — knob validation, kernel agreement with the scalar reference, the
environment's broadcast path on the tier (the exact tier's deferred
arrivals and bulk commit), and the cache-flush triggers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon
from repro.mesh.neighbor import NeighborStore, NeighborTable
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import in_fire_order, tap_frames, tap_link_delays

#: The SIMD kernels and scalar libm differ in the last ulp; anything beyond
#: this tolerance is a real divergence, not rounding.
REL_TOL = 1e-9


# ------------------------------------------------------- knob validation


def test_fast_math_must_be_a_bool():
    with pytest.raises(ValueError, match="fast_math"):
        LinkBudget(fast_math=1)
    with pytest.raises(ValueError, match="fast_math"):
        LinkBudget(fast_math="true")
    assert LinkBudget(fast_math=True).fast_math is True
    assert LinkBudget().fast_math is False


# --------------------------------------------------- kernel equivalence


def lattice(count: int, step: float = 37.0) -> list:
    side = max(1, math.ceil(math.sqrt(count)))
    return [
        Vec2((index % side) * step, (index // side) * step)
        for index in range(count)
    ]


def assert_quality_close(fast, exact):
    assert fast.usable == exact.usable
    assert fast.snr_db == pytest.approx(exact.snr_db, rel=REL_TOL)
    assert fast.rate_bps == pytest.approx(exact.rate_bps, rel=REL_TOL)
    assert fast.packet_error_rate == pytest.approx(
        exact.packet_error_rate, rel=REL_TOL
    )
    assert fast.distance == pytest.approx(exact.distance, rel=REL_TOL)


def statistical_kernel(budget, tx, rxs, visibility=None):
    """:meth:`LinkBudget.quality_arrays_xy` on ``rxs``, with the
    sender→receiver distances from ``np.hypot``."""
    xs = np.array([rx.x for rx in rxs])
    ys = np.array([rx.y for rx in rxs])
    return budget.quality_arrays_xy(
        tx, xs, ys, visibility, rxs=rxs, distances=np.hypot(xs - tx.x, ys - tx.y)
    )


def test_quality_arrays_matches_scalar_reference():
    exact = LinkBudget()
    fast = LinkBudget(fast_math=True)
    tx = Vec2(5.0, -3.0)
    rxs = lattice(30)
    snrs, rates, pers, usable, distances = statistical_kernel(fast, tx, rxs)
    assert usable.dtype == np.dtype(bool)
    assert snrs.dtype == np.dtype(np.float64)
    for index, rx in enumerate(rxs):
        reference = exact.quality(tx, rx)
        assert bool(usable[index]) == reference.usable
        assert snrs[index] == pytest.approx(reference.snr_db, rel=REL_TOL)
        assert rates[index] == pytest.approx(reference.rate_bps, rel=REL_TOL)
        assert pers[index] == pytest.approx(
            reference.packet_error_rate, rel=REL_TOL
        )
        assert distances[index] == pytest.approx(
            reference.distance, rel=REL_TOL
        )


def test_quality_arrays_xy_applies_nlos_penalty():
    budget = LinkBudget(fast_math=True)
    visibility = VisibilityMap([Rectangle(40.0, -10.0, 60.0, 10.0)])
    tx = Vec2(0.0, 0.0)
    occluded = Vec2(100.0, 0.0)
    clear = Vec2(100.0, 80.0)
    snrs, *_ = statistical_kernel(budget, tx, [occluded, clear], visibility)
    baseline, *_ = statistical_kernel(budget, tx, [occluded, clear])
    assert snrs[0] < baseline[0]  # shadowed by the building
    assert snrs[1] == baseline[1]  # clear ray unaffected


def test_scalar_quality_is_the_exact_reference_on_both_tiers():
    """The tier is a plan-kernel choice: scalar probes stay exact."""
    visibility = VisibilityMap([Rectangle(40.0, -10.0, 60.0, 10.0)])
    tx = Vec2(0.0, 0.0)
    for rx in (Vec2(80.0, 15.0), Vec2(100.0, 0.0), Vec2(9000.0, 0.0)):
        assert LinkBudget(fast_math=True).quality(tx, rx, visibility) == (
            LinkBudget().quality(tx, rx, visibility)
        )


# ------------------------------------------------ environment fast path


def build_fleet(fast_math: bool, count: int = 16, seed: int = 9):
    sim = Simulator(seed=seed)
    tap_link_delays(sim)
    environment = RadioEnvironment(sim, LinkBudget(fast_math=fast_math))
    received = []
    positions = lattice(count, step=45.0)
    for index, position in enumerate(positions):
        interface = environment.attach(
            f"n-{index:02d}", lambda position=position: position
        )
        tap_frames(
            interface,
            lambda frame, time, sequence, snr_db, _, name=f"n-{index:02d}": (
                received.append((time, sequence, frame.sender, name, snr_db))
            ),
        )
    return sim, environment, received


def test_fast_plan_columns_come_from_the_statistical_kernel():
    """The tier is a kernel choice: a statistical-tier plan's columns are
    :meth:`LinkBudget.quality_arrays_xy` on the same positions and
    distances, bit for bit."""
    sim = Simulator(seed=4)
    environment = RadioEnvironment(sim, LinkBudget(fast_math=True))
    rng = np.random.default_rng(11)
    points = rng.uniform(-150.0, 150.0, size=(60, 2)).tolist()
    for index, (x, y) in enumerate(points):
        environment.attach(f"n-{index:02d}", lambda p=Vec2(x, y): p)
    environment._refresh()
    sender = environment.interface_of("n-00")
    plan = environment._sender_plan(sender)
    assert len(plan.receivers) > 20
    tx = sender.position
    xs = np.array([receiver.position.x for receiver in plan.receivers])
    ys = np.array([receiver.position.y for receiver in plan.receivers])
    dx, dy = xs - tx.x, ys - tx.y
    snrs, rates, pers, _, distances = environment.link_budget.quality_arrays_xy(
        tx,
        xs,
        ys,
        rxs=[receiver.position for receiver in plan.receivers],
        distances=np.sqrt(dx * dx + dy * dy),
    )
    assert plan.snr_db.tobytes() == snrs.tobytes()
    assert plan.rate_bps.tobytes() == rates.tobytes()
    assert plan.pers.tobytes() == pers.tobytes()
    assert plan.prop_delays.tobytes() == (distances / 3e8).tobytes()


def test_fast_broadcast_reaches_the_exact_receiver_set():
    logs = {}
    for tier, fast_math in (("exact", False), ("statistical", True)):
        sim, environment, received = build_fleet(fast_math)
        sim.schedule(
            0.1, lambda env=environment: env.interface_of("n-00").send(None, 200)
        )
        sim.run(until=1.0)
        logs[tier] = in_fire_order(received)
    exact_receivers = [row[2:4] for row in logs["exact"]]
    fast_receivers = [row[2:4] for row in logs["statistical"]]
    assert exact_receivers  # non-vacuous: someone was in range
    assert fast_receivers == exact_receivers
    for exact_row, fast_row in zip(logs["exact"], logs["statistical"]):
        assert fast_row[4] == pytest.approx(exact_row[4], rel=REL_TOL)


def test_fast_broadcast_defers_its_arrivals_into_the_bulk_commit():
    """A statistical-tier broadcast pushes no queue event: the simulator
    counts its arrivals, and the environment's commit writes them into the
    receivers' neighbour tables, as on the exact tier."""
    sim, environment, _ = build_fleet(True)
    store = NeighborStore.of(environment)
    tables = [
        NeighborTable(
            name, commit=environment.commit, store=store,
            slot=environment.interface_of(name).slot,
        )
        for name in environment.node_names
    ]
    queued = sim._queue.active_count()
    pending = sim.pending_events
    beacon = Beacon("n-00", 0.0, Vec2(0.0, 0.0), Vec2(0.0, 0.0))
    environment.interface_of("n-00").send(beacon, 200, kind="beacon")
    lost = sim.monitor.counter_value("radio.frames_lost")
    delivered = len(environment.nodes_in_range("n-00")) - lost
    assert delivered > 0
    assert sim._queue.active_count() == queued
    assert sim.pending_events == pending + delivered
    sim.step()
    assert sum("n-00" in table for table in tables) == delivered
    assert sim.monitor.counter_value("radio.frames_delivered") == delivered


def test_fast_broadcast_delivers_exactly_the_surviving_receivers():
    """Deferred arrivals carry the loss-draw survivors and nobody else."""
    sim, environment, received = build_fleet(True)
    environment.extra_loss_probability = 0.3

    def broadcast_round():
        for name in environment.node_names:
            environment.interface_of(name).send(None, 200)

    for round_index in range(4):
        sim.schedule(0.1 + 0.3 * round_index, broadcast_round)
    sim.run(until=2.0)
    monitor = sim.monitor
    assert monitor.counter_value("radio.frames_lost") > 0
    assert len(received) == monitor.counter_value("radio.frames_delivered") > 0
    # Every delivered frame left one raw delay on build_fleet's tap.
    assert len(monitor.sample("radio.link_delay").values) == len(received)


def test_fast_broadcast_with_extra_loss_keeps_the_scalar_interleaving():
    """Under a nonzero ``extra_loss_probability`` both tiers draw a PER
    value per receiver, then an extra-loss value for that receiver only if
    it survived, in name order."""
    sim, environment, received = build_fleet(True)
    environment.extra_loss_probability = 0.3
    environment._refresh()
    plan = environment._sender_plan(environment.interface_of("n-00"))
    replay = np.random.default_rng()
    replay.bit_generator.state = sim.streams.get("radio").bit_generator.state
    expected = [
        receiver.node_name
        for receiver, per in zip(plan.receivers, plan.pers.tolist())
        if replay.random() >= per and replay.random() >= 0.3
    ]
    environment.interface_of("n-00").send(None, 200)
    sim.run(until=1.0)
    assert 0 < len(expected) < len(plan.receivers)
    assert sorted(row[3] for row in received) == expected
    assert (
        sim.streams.get("radio").bit_generator.state == replay.bit_generator.state
    )


def test_fast_unicast_keeps_exact_delivery_semantics():
    """Unicast frames keep the exact tier's scheduling and receiver
    bookkeeping on the statistical tier (link qualities come from the tier's
    own plan kernel, so they agree to the ulp, not byte-for-byte)."""
    results = {}
    for tier, fast_math in (("exact", False), ("statistical", True)):
        sim, environment, received = build_fleet(fast_math)
        sim.schedule(
            0.1,
            lambda env=environment: env.interface_of("n-00").send(
                "payload", 200, destination="n-01"
            ),
        )
        sim.run(until=1.0)
        results[tier] = [
            (time, sender, name, snr_db)
            for time, _, sender, name, snr_db in in_fire_order(received)
        ]
        assert environment.sim.monitor.counter_value("radio.frames_delivered") == 1
    exact_rows = results["exact"]
    fast_rows = results["statistical"]
    # Only the addressee receives it, once, on both tiers.
    assert [row[1:3] for row in exact_rows] == [("n-00", "n-01")]
    assert [row[1:3] for row in fast_rows] == [("n-00", "n-01")]
    for exact_row, fast_row in zip(exact_rows, fast_rows):
        assert fast_row[0] == pytest.approx(exact_row[0], rel=REL_TOL)
        assert fast_row[3] == pytest.approx(exact_row[3], rel=REL_TOL)


def test_fast_plans_flush_when_positions_change():
    sim = Simulator(seed=3)
    environment = RadioEnvironment(sim, LinkBudget(fast_math=True))
    position = {"rx": Vec2(60.0, 0.0)}
    received = []
    sender = environment.attach("tx", lambda: Vec2(0.0, 0.0))
    receiver = environment.attach("rx", lambda: position["rx"])
    receiver.on_broadcast(
        lambda frame, time, sequence, snr_db, rate_bps: received.append(snr_db)
    )

    sim.schedule(0.1, lambda: sender.send(None, 200))

    def move_out_of_range() -> None:
        position["rx"] = Vec2(10_000.0, 0.0)
        environment.notify_positions_changed()

    sim.schedule(0.2, move_out_of_range)
    sim.schedule(0.3, lambda: sender.send(None, 200))
    sim.run(until=1.0)
    # One delivery at 60 m, then none: the cached plan from the first
    # broadcast must not survive the position change.
    at_60_m = environment.link_budget.quality(Vec2(0.0, 0.0), Vec2(60.0, 0.0), None)
    assert received == [pytest.approx(at_60_m.snr_db, rel=REL_TOL)]
