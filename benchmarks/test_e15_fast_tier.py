"""E15 — Statistical equivalence tier (``fast_math``) benchmark.

The ``fast_math=True`` statistical tier trades the exact tier's
byte-identical delivered-frame sequences for distribution-level agreement
(seeded-CI contract in
``tests/properties/test_property_statistical_equivalence.py``).  Both tiers
share the broadcast path: per-epoch sender plans, one vectorised loss draw
per broadcast, and arrivals deferred into the radio environment's bulk
commit instead of queued as events.  The tiers differ only in the column
kernel that builds a plan: the statistical tier's fused numpy SIMD kernel
against the exact tier's ``math``-library kernel.

This benchmark records the wall-clock-per-simulated-second curves of both
tiers on the same dense beacon fleet at N = 2000 / 5000 / 10000, writes them
to ``BENCH_E15.json`` (machine-readable, parsed by the CI smoke step), and
asserts the original acceptance criterion: at N = 2000 the statistical
tier is ≥ 3× faster per simulated second than the exact tier on the same
scenario and seed.  Once the exact tier stopped queueing an event per
arrival, the kernel was all that was left to buy that speedup, and it does
not: the gate fails in full mode.  With the statistical tier on its own
coalesced events, exact ÷ statistical read 0.65–0.90× at N = 2000 and
0.54× at N = 10000; with both tiers on the shared path it read
1.11–1.42×, 1.11–1.23× and 1.20–1.35× at N = 2000, 5000 and 10000 (three
runs each, 2-core x86-64 container, Python 3.11.7).  Loss/delivery counter totals must match exactly between tiers at every
N — the tiers draw different RNG streams shapes but identical loss
probabilities over identical link sets, so their *totals* (not sequences)
coincide on a static fleet.

Set ``E15_SMOKE=1`` (CI) to shrink the fleet to one small N and skip the
timing assertion, which is meaningless on noisy shared runners; the JSON is
still written so the CI artifact/parse path is exercised.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.geometry.vector import Vec2
from repro.metrics.report import ResultTable
from repro.mobility.manager import MobilityManager
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator

SMOKE = os.environ.get("E15_SMOKE") == "1"
SEED = 150
#: Dense-traffic lattice pitch — every node sees a large broadcast
#: neighbourhood, the regime the paper's urban evaluations stress.
NODE_STEP_M = 40.0
#: ~6.7 beacons per node-second, staggered so transmissions spread over time.
BEACON_PERIOD_S = 0.15
#: Mobility tick = position-epoch length.  Every epoch flushes the link
#: caches of both tiers, so the benchmark charges each tier its full
#: per-epoch recompute cost — the moving-fleet regime, not the static one.
TICK_S = 0.1
#: (N, simulated duration).  Durations shrink as N grows to bound the
#: benchmark's runtime; the recorded metric is wall-clock per simulated
#: second, which is duration-independent once a few epochs have elapsed.
POINTS: List[Tuple[int, float]] = (
    [(500, 0.3)] if SMOKE else [(2000, 0.4), (5000, 0.25), (10000, 0.15)]
)
#: The tentpole acceptance criterion, checked at this fleet size.
GATE_N = 2000
GATE_SPEEDUP = 3.0

OUTPUT_PATH = Path("BENCH_E15.json")

COUNTERS = (
    "radio.frames_delivered",
    "radio.frames_lost",
    "radio.frames_out_of_range",
    "radio.bytes_delivered",
)


def build_fleet(n: int, fast_math: bool) -> Simulator:
    """N static nodes on a dense lattice, each broadcasting beacon frames.

    Frames carry no receive callbacks: the point is to isolate the radio
    medium and the event core, which is where the two tiers differ.
    """
    sim = Simulator(seed=SEED)
    mobility = MobilityManager(sim, tick=TICK_S)
    environment = RadioEnvironment(
        sim, LinkBudget(fast_math=fast_math), mobility=mobility
    )
    side = max(1, math.ceil(math.sqrt(n)))
    for index in range(n):
        position = Vec2(
            (index % side) * NODE_STEP_M, (index // side) * NODE_STEP_M
        )
        node = StaticNode(sim, position, name=f"n-{index:05d}")
        mobility.add_node(node)
        interface = environment.attach(node.name, lambda node=node: node.position)
        sim.schedule_periodic(
            BEACON_PERIOD_S,
            lambda interface=interface: interface.send(None, 300, kind="beacon"),
            start_delay=BEACON_PERIOD_S * ((index % 10) / 10.0),
            name="beacon-tx",
        )
    return sim


def run_tier(n: int, duration_s: float, fast_math: bool) -> Dict[str, float]:
    sim = build_fleet(n, fast_math)
    start = time.perf_counter()
    sim.run(until=duration_s)
    wall = time.perf_counter() - start
    point = {name: sim.monitor.counter_value(name) for name in COUNTERS}
    point["wall_s"] = wall
    point["wall_per_sim_s"] = wall / duration_s
    return point


def test_e15_statistical_tier_speedup(print_table):
    results: Dict[Tuple[int, str], Dict[str, float]] = {}
    for n, duration_s in POINTS:
        for tier, fast_math in (("exact", False), ("statistical", True)):
            results[(n, tier)] = run_tier(n, duration_s, fast_math)

    table = ResultTable(
        f"E15  Equivalence tiers (seed={SEED}, step={NODE_STEP_M:g} m, "
        f"beacon {BEACON_PERIOD_S:g} s, tick {TICK_S:g} s"
        + (", SMOKE" if SMOKE else "")
        + ")",
        ["N", "tier", "wall [s]", "wall / sim-s", "delivered", "speedup"],
    )
    speedups: Dict[str, float] = {}
    for n, duration_s in POINTS:
        exact = results[(n, "exact")]
        fast = results[(n, "statistical")]
        speedup = exact["wall_per_sim_s"] / max(fast["wall_per_sim_s"], 1e-9)
        speedups[str(n)] = speedup
        table.add_row(
            n, "exact", exact["wall_s"], exact["wall_per_sim_s"],
            exact["radio.frames_delivered"], "",
        )
        table.add_row(
            n, "statistical", fast["wall_s"], fast["wall_per_sim_s"],
            fast["radio.frames_delivered"], f"{speedup:.2f}x",
        )
    print_table(table)

    payload = {
        "benchmark": "E15",
        "smoke": SMOKE,
        "seed": SEED,
        "node_step_m": NODE_STEP_M,
        "beacon_period_s": BEACON_PERIOD_S,
        "tick_s": TICK_S,
        "gate": {"n": GATE_N, "min_speedup": GATE_SPEEDUP},
        "points": [
            {
                "n": n,
                "duration_s": duration_s,
                "tier": tier,
                "wall_s": results[(n, tier)]["wall_s"],
                "wall_per_sim_s": results[(n, tier)]["wall_per_sim_s"],
                "frames_delivered": results[(n, tier)]["radio.frames_delivered"],
                "frames_lost": results[(n, tier)]["radio.frames_lost"],
            }
            for n, duration_s in POINTS
            for tier in ("exact", "statistical")
        ],
        "speedups": speedups,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # --- the tiers must agree on every aggregate counter at every N -------
    for n, _ in POINTS:
        exact = results[(n, "exact")]
        fast = results[(n, "statistical")]
        assert exact["radio.frames_delivered"] > 0
        for counter in COUNTERS:
            assert exact[counter] == fast[counter], (n, counter)

    # --- the acceptance criterion: >= 3x per sim-second at N = 2000 -------
    if not SMOKE:
        gate = speedups[str(GATE_N)]
        assert gate >= GATE_SPEEDUP, (
            f"statistical tier only {gate:.2f}x faster at N={GATE_N} "
            f"(need >= {GATE_SPEEDUP}x)"
        )
