"""Unit tests for the statistical (``fast_math``) equivalence tier.

The aggregate contract lives in
``tests/properties/test_property_statistical_equivalence.py`` and the
speedup gate in benchmark E15; these tests pin the tier's pieces one by
one — knob validation, kernel agreement with the scalar reference, the
environment's fast broadcast path, and the cache-flush triggers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import tap_link_delays

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


def test_quality_arrays_matches_scalar_reference():
    exact = LinkBudget()
    fast = LinkBudget(fast_math=True)
    tx = Vec2(5.0, -3.0)
    rxs = lattice(30)
    snrs, rates, pers, usable, distances = fast.quality_arrays(tx, rxs)
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


def test_quality_arrays_xy_agrees_with_quality_arrays():
    budget = LinkBudget(fast_math=True)
    tx = Vec2(0.0, 0.0)
    rxs = lattice(17)
    xs = np.array([rx.x for rx in rxs])
    ys = np.array([rx.y for rx in rxs])
    from_vecs = budget.quality_arrays(tx, rxs)
    from_xy = budget.quality_arrays_xy(tx, xs, ys)
    precomputed = budget.quality_arrays_xy(
        tx, xs, ys, distances=np.hypot(xs - tx.x, ys - tx.y)
    )
    for column_a, column_b, column_c in zip(from_vecs, from_xy, precomputed):
        np.testing.assert_array_equal(column_a, column_b)
        np.testing.assert_array_equal(column_a, column_c)


def test_quality_arrays_xy_applies_nlos_penalty():
    budget = LinkBudget(fast_math=True)
    visibility = VisibilityMap([Rectangle(40.0, -10.0, 60.0, 10.0)])
    tx = Vec2(0.0, 0.0)
    occluded = Vec2(100.0, 0.0)
    clear = Vec2(100.0, 80.0)
    xs = np.array([occluded.x, clear.x])
    ys = np.array([occluded.y, clear.y])
    snrs, *_ = budget.quality_arrays_xy(tx, xs, ys, visibility)
    baseline, *_ = budget.quality_arrays_xy(tx, xs, ys)
    assert snrs[0] < baseline[0]  # shadowed by the building
    assert snrs[1] == baseline[1]  # clear ray unaffected


def test_scalar_quality_probe_routes_through_fast_kernel():
    """Single-link probes and bulk rows must agree *within* the fast tier."""
    budget = LinkBudget(fast_math=True)
    tx = Vec2(0.0, 0.0)
    rx = Vec2(80.0, 15.0)
    probe = budget.quality(tx, rx)
    batch = budget.quality_batch(tx, [rx])[0]
    assert probe == batch


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
        interface.on_receive(
            lambda frame, quality, name=f"n-{index:02d}": received.append(
                (sim.now, frame.sender, name, quality.snr_db)
            )
        )
    return sim, environment, received


def test_fast_broadcast_reaches_the_exact_receiver_set():
    logs = {}
    for tier, fast_math in (("exact", False), ("statistical", True)):
        sim, environment, received = build_fleet(fast_math)
        sim.schedule(
            0.1, lambda env=environment: env.interface_of("n-00").send(None, 200)
        )
        sim.run(until=1.0)
        logs[tier] = received
    exact_receivers = [(sender, name) for _, sender, name, _ in logs["exact"]]
    fast_receivers = [
        (sender, name) for _, sender, name, _ in logs["statistical"]
    ]
    assert exact_receivers  # non-vacuous: someone was in range
    assert fast_receivers == exact_receivers
    for exact_row, fast_row in zip(logs["exact"], logs["statistical"]):
        assert fast_row[3] == pytest.approx(exact_row[3], rel=REL_TOL)


def test_fast_broadcast_delivers_exactly_the_surviving_receivers():
    """Coalesced arrivals carry the loss-draw survivors and nobody else."""
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


def test_fast_unicast_keeps_exact_delivery_semantics():
    """``fast_math`` only reroutes broadcasts; unicast frames keep the exact
    tier's scheduling and receiver bookkeeping (link qualities go through the
    tier's own kernel, so they agree to the ulp, not byte-for-byte)."""
    results = {}
    for tier, fast_math in (("exact", False), ("statistical", True)):
        sim, environment, received = build_fleet(fast_math)
        sim.schedule(
            0.1,
            lambda env=environment: env.interface_of("n-00").send("n-01", 200),
        )
        sim.run(until=1.0)
        results[tier] = received
    exact_rows = results["exact"]
    fast_rows = results["statistical"]
    assert [row[:3] for row in fast_rows] == [row[:3] for row in exact_rows]
    assert "n-01" in [row[2] for row in exact_rows]
    for exact_row, fast_row in zip(exact_rows, fast_rows):
        assert fast_row[3] == pytest.approx(exact_row[3], rel=REL_TOL)


def test_fast_plans_flush_when_positions_change():
    sim = Simulator(seed=3)
    environment = RadioEnvironment(sim, LinkBudget(fast_math=True))
    position = {"rx": Vec2(60.0, 0.0)}
    received = []
    sender = environment.attach("tx", lambda: Vec2(0.0, 0.0))
    receiver = environment.attach("rx", lambda: position["rx"])
    receiver.on_receive(
        lambda frame, quality: received.append((sim.now, quality.distance))
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
    assert len(received) == 1
    assert received[0][1] == pytest.approx(60.0)
