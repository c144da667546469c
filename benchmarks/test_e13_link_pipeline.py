"""E13 — Batched link pipeline + numpy line-of-sight kernel benchmark.

After the radio medium was spatially indexed (E11), profiles of urban runs
showed the remaining hot path to be *per-pair* physics: one
``LinkBudget.quality`` call per (sender, receiver) and, inside it, a
line-of-sight test scanning every obstacle polygon.  This benchmark drives
the two optimisations that replaced that path at the fleet size the sweep
engine targets, each against its reference in the test oracle
(``tests/oracle.py``):

* batched links — each sender plan evaluated by one exact column-kernel
  call over the epoch's position columns instead of N scalar probes on
  spatial-grid candidates (reference: ``ReferenceRadioEnvironment``);
* the obstacle index — each plan's LOS rays tested against every
  obstacle edge in one exact numpy kernel call instead of a Python scan
  over every footprint per ray (reference: ``BruteForceVisibility``).

Two checks on a broadcast-heavy urban-grid fleet (N=500, street grid with a
built-up district of occluding buildings):

* **Exact equivalence** — the delivered-frame sequence (time, sender,
  receiver, SNR, rate) and the radio counters are byte-identical at fixed
  seed across **all four** production/reference combinations.  This is the
  contract that lets the fast paths replace the reference paths outright.
* **Speedup** — wall-clock per simulated second with both optimisations on
  must be ≥ 3× faster than with both references.

Set ``E13_SMOKE=1`` (CI) to shrink the fleet and skip the timing assertion,
which is meaningless on noisy shared runners.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Tuple

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.metrics.report import ResultTable
from repro.mobility.manager import MobilityManager
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import (
    BruteForceVisibility,
    ReferenceRadioEnvironment,
    in_fire_order,
    tap_frames,
)

SMOKE = os.environ.get("E13_SMOKE") == "1"
N = 60 if SMOKE else 500
DURATION_S = 0.75 if SMOKE else 1.5
SEED = 130
#: Street pitch of the urban grid; nodes sit on the horizontal street lines.
STREET_PITCH_M = 100.0
#: Node spacing along each street.
NODE_STEP_M = 60.0
#: Broadcast-heavy: ~6.7 beacons per node-second.
BEACON_PERIOD_S = 0.15
#: Mobility tick = position epoch length; several broadcasts share each
#: epoch's link rows, as in a real scenario.
TICK_S = 0.75

COUNTERS = (
    "radio.frames_delivered",
    "radio.frames_lost",
    "radio.frames_out_of_range",
    "radio.bytes_delivered",
)


def district_buildings(side: int) -> List[Rectangle]:
    """Occluding footprints for a built-up district in the grid's centre.

    One building per block, 10 m street setback, covering roughly the
    central third of the fleet's extent — enough NLOS geometry to matter,
    small enough that the brute-force reference scan stays runnable.
    """
    rows = range(side // 3, side // 3 + max(2, side // 4))
    cols = range(1, max(3, (side * int(NODE_STEP_M) // int(STREET_PITCH_M)) // 2))
    return [
        Rectangle(
            col * STREET_PITCH_M + 10.0,
            row * STREET_PITCH_M + 10.0,
            (col + 1) * STREET_PITCH_M - 10.0,
            (row + 1) * STREET_PITCH_M - 10.0,
        )
        for row in rows
        for col in cols
    ]


def build_fleet(batched_links: bool, obstacle_index: bool):
    """N static beaconing nodes on an urban street grid with buildings.

    Each ``False`` swaps the production path for its oracle reference.
    """
    sim = Simulator(seed=SEED)
    mobility = MobilityManager(sim, tick=TICK_S)
    side = max(1, math.ceil(math.sqrt(N)))
    visibility_class = VisibilityMap if obstacle_index else BruteForceVisibility
    visibility = visibility_class(district_buildings(side))
    environment_class = RadioEnvironment if batched_links else ReferenceRadioEnvironment
    environment = environment_class(
        sim, LinkBudget(), visibility=visibility, mobility=mobility
    )
    agents = []
    for index in range(N):
        position = Vec2(
            (index % side) * NODE_STEP_M, (index // side) * STREET_PITCH_M
        )
        node = StaticNode(sim, position, name=f"n-{index:04d}")
        mobility.add_node(node)
        interface = environment.attach(node.name, lambda node=node: node.position)
        agents.append(
            BeaconAgent(
                sim,
                interface,
                state_provider=lambda node=node: (node.position, node.velocity),
                beacon_period=BEACON_PERIOD_S,
            )
        )
    return sim, environment, visibility, agents


def run_combo(
    batched_links: bool, obstacle_index: bool
) -> Tuple[List[tuple], Dict[str, float], float]:
    sim, environment, visibility, agents = build_fleet(batched_links, obstacle_index)
    log: List[tuple] = []
    for agent in agents:
        receiver = agent.interface.node_name
        tap_frames(
            agent.interface,
            lambda frame, time, sequence, *link, receiver=receiver: log.append(
                (time, sequence, frame.sender, receiver, *link)
            ),
        )
    start = time.perf_counter()
    sim.run(until=DURATION_S)
    wall = time.perf_counter() - start
    counters = {name: sim.monitor.counter_value(name) for name in COUNTERS}
    return in_fire_order(log), counters, wall


def test_e13_batched_pipeline_is_equivalent_and_faster(print_table):
    # The obstacle field must actually occlude links, or the LOS work (and
    # the equivalence check on the NLOS penalty) would be vacuous.
    _, environment, visibility, _ = build_fleet(True, True)
    positions = [
        environment.interface_of(name).position for name in environment.node_names
    ]
    occluded_pairs = sum(
        1
        for a, b in zip(positions[: N // 2], reversed(positions))
        if a.distance_to(b) < environment.max_range and visibility.is_occluded(a, b)
    )
    assert occluded_pairs > 0

    combos = [(True, True), (True, False), (False, True), (False, False)]
    results = {}
    for batched, indexed in combos:
        results[(batched, indexed)] = run_combo(batched, indexed)

    table = ResultTable(
        f"E13  Batched link pipeline + obstacle index "
        f"(N={N}, {len(visibility.obstacles)} buildings, {DURATION_S:g} sim-s)",
        ["batched links", "obstacle index", "wall [s]", "wall / sim-s", "delivered"],
    )
    for (batched, indexed), (log, counters, wall) in results.items():
        table.add_row(
            batched, indexed, wall, wall / DURATION_S,
            counters["radio.frames_delivered"],
        )
    print_table(table)

    # --- byte-identical delivered-frame sequences across all four combos ---
    reference_log, reference_counters, _ = results[(False, False)]
    assert reference_counters["radio.frames_delivered"] > 0
    for combo in combos[:-1]:
        log, counters, _ = results[combo]
        assert counters == reference_counters, combo
        assert len(log) == len(reference_log), combo
        assert log == reference_log, combo

    # --- the acceptance criterion: >= 3x faster with both paths enabled ---
    if not SMOKE:
        fast = results[(True, True)][2] / DURATION_S
        slow = results[(False, False)][2] / DURATION_S
        assert slow >= 3.0 * fast, (
            f"batched+indexed pipeline only {slow / max(fast, 1e-9):.2f}x faster "
            f"({slow:.3f}s vs {fast:.3f}s per sim-s)"
        )
