"""E11 — Radio-medium scaling microbenchmark.

The beaconing hot path used to be O(N²): every CAM-style beacon evaluated the
link budget against every attached interface plus an O(N) contention scan.
With the spatially-indexed medium a broadcast only touches candidate
receivers inside the effective radio range, so — at constant node density —
fleet-wide work per simulated second grows ~linearly with N.

Three checks:

* **Sub-quadratic scaling** — a constant-density static fleet is swept over
  N ∈ {50, 200, 500, 1000}; wall-time per simulated second at N=1000 must be
  < 4× that at N=500 (a quadratic medium sits at ~4×, a linear one at ~2×).
* **Exact equivalence** — with a fixed seed, the spatial path and the
  brute-force full scan of the test oracle
  (``ReferenceRadioEnvironment(full_scan=True)`` in ``tests/oracle.py``) must
  produce the byte-identical delivered-frame sequence on an N=50 fleet.
* **Single sync pass** — with the mobility manager bound, the radio
  environment queries the manager's shared spatial substrate directly:
  exactly one grid ``update`` per node per mobility tick fleet-wide, zero
  full mirror resyncs, zero writes into the environment's private grid.

Set ``E11_SMOKE=1`` (CI) to shrink the sweep and skip the timing assertion,
which is meaningless on noisy shared runners.
"""

from __future__ import annotations

import math
import os
import time
from typing import List, Tuple

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.metrics.report import ResultTable
from repro.mobility.manager import MobilityManager
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import ReferenceRadioEnvironment

SMOKE = os.environ.get("E11_SMOKE") == "1"
SWEEP = (20, 50) if SMOKE else (50, 200, 500, 1000)
#: Grid pitch between nodes; the default link budget reaches ~270 m, so this
#: keeps every node at ~10 in-range neighbours regardless of fleet size.
SPACING_M = 150.0
DURATION_S = 1.0 if SMOKE else 2.0
SEED = 110


def build_fleet(n: int, seed: int, full_scan: bool = False):
    """N static beaconing nodes on a constant-density square grid.

    ``full_scan`` swaps in the oracle's brute-force reference environment.
    """
    sim = Simulator(seed=seed)
    mobility = MobilityManager(sim, tick=0.25, cell_size=2 * SPACING_M)
    if full_scan:
        environment = ReferenceRadioEnvironment(
            sim, LinkBudget(), mobility=mobility, full_scan=True
        )
    else:
        environment = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    side = max(1, math.ceil(math.sqrt(n)))
    agents = []
    for index in range(n):
        position = Vec2((index % side) * SPACING_M, (index // side) * SPACING_M)
        node = StaticNode(sim, position, name=f"n-{index:04d}")
        mobility.add_node(node)
        interface = environment.attach(node.name, lambda node=node: node.position)
        agents.append(
            BeaconAgent(
                sim,
                interface,
                state_provider=lambda node=node: (node.position, node.velocity),
            )
        )
    return sim, environment, agents


def run_size(n: int) -> dict:
    sim, environment, agents = build_fleet(n, seed=SEED)
    start = time.perf_counter()
    sim.run(until=DURATION_S)
    wall = time.perf_counter() - start
    delivered = sim.monitor.counter_value("radio.frames_delivered")
    return {
        "nodes": n,
        "wall_s": wall,
        "wall_per_sim_s": wall / DURATION_S,
        "delivered": delivered,
        "delivered_per_node": delivered / n,
    }


def test_e11_broadcast_scales_sub_quadratically(print_table):
    run_size(SWEEP[0])  # warm-up: imports, allocator, caches
    rows = [run_size(n) for n in SWEEP]

    table = ResultTable(
        "E11  Radio medium scaling (static constant-density fleet, beacons only)",
        ["nodes", "wall [s]", "wall / sim-s", "delivered", "delivered / node"],
    )
    for row in rows:
        table.add_row(row["nodes"], row["wall_s"], row["wall_per_sim_s"],
                      row["delivered"], row["delivered_per_node"])
    print_table(table)

    for row in rows:
        assert row["delivered"] > 0
    # Constant density: per-node delivery stays flat as the fleet grows
    # (edge nodes have fewer neighbours, so allow a wide band).
    per_node = [row["delivered_per_node"] for row in rows]
    assert max(per_node) < 4.0 * min(per_node)
    if not SMOKE:
        # The acceptance criterion: doubling the fleet from 500 to 1000 must
        # cost far less than the ~4x of the old O(N^2) medium.
        t500 = next(r["wall_per_sim_s"] for r in rows if r["nodes"] == 500)
        t1000 = next(r["wall_per_sim_s"] for r in rows if r["nodes"] == 1000)
        assert t1000 < 4.0 * max(t500, 1e-9), (
            f"broadcast hot path scales quadratically: {t500:.3f}s -> {t1000:.3f}s"
        )


def _delivered_log(n: int, full_scan: bool) -> Tuple[List[tuple], dict]:
    sim, environment, agents = build_fleet(n, seed=SEED, full_scan=full_scan)
    log: List[tuple] = []
    for agent in agents:
        receiver = agent.interface.node_name
        agent.interface.on_receive(
            lambda frame, quality, receiver=receiver: log.append(
                (sim.now, frame.sender, receiver, quality.snr_db)
            )
        )
    sim.run(until=5.0)
    counters = {
        name: sim.monitor.counter_value(name)
        for name in (
            "radio.frames_delivered",
            "radio.frames_lost",
            "radio.frames_out_of_range",
            "radio.bytes_delivered",
        )
    }
    return log, counters


def test_e11_spatial_medium_matches_bruteforce_exactly():
    n = 30 if SMOKE else 50
    spatial_log, spatial_counters = _delivered_log(n, full_scan=False)
    brute_log, brute_counters = _delivered_log(n, full_scan=True)
    assert spatial_counters == brute_counters
    assert len(spatial_log) == len(brute_log)
    assert spatial_log == brute_log


def test_e11_one_grid_update_pass_per_mobility_tick():
    """The radio layer shares the mobility substrate: no second sync pass.

    Before the substrate refactor every mobility tick cost two full grid
    passes — the manager updated its own grid and the next radio event
    mirrored all N positions again.  Now the only grid writes in the whole
    run are the manager's: one insert per node at registration plus one
    update per node per tick, while the environment performs zero mirror
    resyncs and zero writes into its private (overlay) grid.
    """
    n = 30 if SMOKE else 200
    duration = 2.0
    sim, environment, agents = build_fleet(n, seed=SEED)
    mobility = environment._mobility
    substrate = mobility.substrate
    assert environment.spatial_stats()["substrate_shared"] == 1.0
    after_setup = substrate.grid.update_calls
    assert after_setup == n  # one insert per registered node

    sim.run(until=duration)

    ticks = substrate.commit_count
    assert ticks == round(duration / mobility.tick)
    assert substrate.grid.update_calls == after_setup + ticks * n
    stats = environment.spatial_stats()
    assert stats["mirror_sync_passes"] == 0.0
    assert stats["mirror_updates"] == 0.0
    assert stats["overlay_nodes"] == 0.0
    # The shared path actually carried traffic (the medium stayed live).
    assert sim.monitor.counter_value("radio.frames_delivered") > 0
