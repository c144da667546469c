"""The statistical-equivalence contract of the ``fast_math`` tier.

The exact tier promises byte-identical delivered-frame sequences (pinned by
benchmarks E11/E13 and the bit-identity tests in ``tests/radio``).  The
statistical tier deliberately gives that up — numpy SIMD kernels differ from
scalar libm in the last ulp, which can flip individual RNG loss comparisons —
and promises something weaker instead: *per-run aggregate metrics agree with
the exact tier within seeded confidence intervals across a seed ensemble*.

This suite is that contract, plus the proof that the agreement check itself
is discriminating: a kernel with a deliberate +0.5 dB bias must be rejected
by the very same check that accepts the honest fast kernel (otherwise the
harness is a rubber stamp).
"""

from __future__ import annotations

import math
from typing import Dict

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.metrics.statistics import agrees_within_ci, paired_difference_ci
from repro.mobility.manager import MobilityManager
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import tap_link_delays

#: Seed ensemble the paired comparison runs over.  Ten seeds keeps the suite
#: fast while giving the CI enough pairs to reject a biased kernel.
SEEDS = range(100, 110)
N = 36
DURATION_S = 2.0
BEACON_PERIOD_S = 0.25
NODE_STEP_M = 55.0

#: Agreement tolerances on the per-run aggregates.  Delivery ratio and loss
#: rate are probabilities.  The latency tolerance is deliberately tight:
#: honest last-ulp kernel differences move the mean link delay at the
#: ~1e-20 s scale, while the +0.5 dB biased kernel of the discrimination
#: test moves it by ~2e-6 s — 1e-6 s sits between the two regimes.
TOLERANCES = {
    "delivery_ratio": 0.01,
    "loss_rate": 0.01,
    "mean_latency_s": 1e-6,
}


def run_aggregates(seed: int, **budget_kwargs) -> Dict[str, float]:
    """Per-run aggregate metrics of one seeded beacon-fleet run.

    A small static lattice with one occluding building (so NLOS geometry is
    exercised on both tiers), beaconing for ``DURATION_S`` sim-seconds.
    """
    sim = Simulator(seed=seed)
    delays = tap_link_delays(sim)
    mobility = MobilityManager(sim, tick=0.5)
    side = max(1, math.ceil(math.sqrt(N)))
    visibility = VisibilityMap(
        [Rectangle(70.0, 70.0, 160.0, 160.0)]
    )
    environment = RadioEnvironment(
        sim,
        LinkBudget(**budget_kwargs),
        visibility=visibility,
        mobility=mobility,
    )
    for index in range(N):
        position = Vec2(
            (index % side) * NODE_STEP_M, (index // side) * NODE_STEP_M
        )
        node = StaticNode(sim, position, name=f"n-{index:03d}")
        mobility.add_node(node)
        interface = environment.attach(node.name, lambda node=node: node.position)
        BeaconAgent(
            sim,
            interface,
            state_provider=lambda node=node: (node.position, node.velocity),
            beacon_period=BEACON_PERIOD_S,
        )
    sim.run(until=DURATION_S)
    monitor = sim.monitor
    delivered = monitor.counter_value("radio.frames_delivered")
    lost = monitor.counter_value("radio.frames_lost")
    attempted = delivered + lost
    return {
        "delivery_ratio": delivered / attempted if attempted else math.nan,
        "loss_rate": lost / attempted if attempted else math.nan,
        "mean_latency_s": sum(delays) / len(delays) if delays else math.nan,
    }


def ensemble(**budget_kwargs) -> Dict[str, list]:
    """The aggregate metrics of every seed in the ensemble, column-wise."""
    runs = [run_aggregates(seed, **budget_kwargs) for seed in SEEDS]
    return {metric: [run[metric] for run in runs] for metric in runs[0]}


def test_fast_tier_aggregates_agree_with_exact_tier():
    exact = ensemble(fast_math=False)
    fast = ensemble(fast_math=True)
    # The comparison must not be vacuous: frames were delivered and lost.
    assert all(0.0 < value < 1.0 for value in exact["delivery_ratio"])
    for metric, tolerance in TOLERANCES.items():
        assert agrees_within_ci(exact[metric], fast[metric], tolerance), (
            metric,
            paired_difference_ci(exact[metric], fast[metric]),
        )


def test_agreement_check_accepts_identity_kernel():
    """The exact tier trivially agrees with itself (same seeds, same code)."""
    exact = ensemble(fast_math=False)
    again = ensemble(fast_math=False)
    for metric, tolerance in TOLERANCES.items():
        assert exact[metric] == again[metric]
        assert agrees_within_ci(exact[metric], again[metric], tolerance)


def test_agreement_check_rejects_biased_kernel():
    """A +0.5 dB transmit-power bias must fail the same CI agreement check.

    The bias raises every link's SNR, which shifts the delivered-frame mix
    (farther receivers become usable) and every frame's serialization time —
    so at least one aggregate's paired-difference CI must land entirely
    outside its tolerance band.  This is the discrimination proof: the
    harness that certifies the honest fast kernel is capable of flunking a
    dishonest one.
    """
    exact = ensemble(fast_math=False)
    biased = ensemble(fast_math=True, tx_power_dbm=23.5)
    rejected = [
        metric
        for metric, tolerance in TOLERANCES.items()
        if not agrees_within_ci(exact[metric], biased[metric], tolerance)
    ]
    assert rejected, {
        metric: paired_difference_ci(exact[metric], biased[metric])
        for metric in TOLERANCES
    }
    # The latency shift is deterministic (every delivered frame serialises
    # faster at higher SNR), so it specifically must be among the rejections.
    assert "mean_latency_s" in rejected
