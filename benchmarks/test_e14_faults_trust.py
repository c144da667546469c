"""E14 — Deterministic fault & adversary injection: churn and trust (RQ3).

Claim (paper, RQ3/Challenges): the framework must uphold integrity and
membership under disturbance — malicious executors, node churn, degraded
radios.  The mechanisms exist (reputation, attestation, redundant voting in
``core/trust``; per-node asynchronous views in ``mesh/discovery``); this
benchmark drives them through the disturbances they were designed for, via
the :mod:`repro.faults` subsystem, and checks three things:

* **Null determinism** — an armed injector whose schedule is null (all knobs
  zero) leaves the delivered-frame sequence *byte-identical* to a run with
  no injector at all, at fixed seed.  This is the contract that lets every
  scenario install the injector unconditionally.
* **Reputation separates the fleet** — with a seeded fraction of
  result-corrupting liars and k=3 redundant execution, honest observers'
  recorded scores of honest peers end up strictly above their scores of
  malicious peers (``reputation_gap > 0``).
* **Voting closes the integrity hole** — at ``malicious_fraction = 0.1``,
  k=3 redundant voting drives the wrong-result acceptance rate to exactly
  zero, while k=1 (no voting) demonstrably accepts fabrications.

A churn section additionally exercises crash/recovery end to end: injected
crashes depress availability, crashed peers are counted as ``leave`` s
(``mesh.leaves`` on the monitor), and recovered nodes rejoin (measured
recovery time) while the fleet keeps completing tasks.

Set ``E14_SMOKE=1`` (CI) to shrink the fleets and durations.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDNode
from repro.faults import FaultInjector, FaultKnobs, FaultSchedule, null_schedule
from repro.geometry.vector import Vec2
from repro.metrics.report import ResultTable
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.scenarios.urban_grid import build_urban_grid_scenario
from repro.scenarios.workloads import GenericComputeWorkload, register_generic_functions
from repro.simcore.simulator import Simulator
from tests.oracle import in_fire_order

from benchmarks.conftest import run_once_with_benchmark

SMOKE = os.environ.get("E14_SMOKE") == "1"
SEED = 140
#: Null-determinism fleet (static nodes, Poisson workload).
NULL_N = 6 if SMOKE else 12
NULL_DURATION_S = 4.0 if SMOKE else 8.0
#: Adversary / churn scenario fleet.  Not shrunk in smoke mode: a sparser
#: urban mesh degrades k=3 tasks to their lone reachable candidate often
#: enough to blur the voting-vs-no-voting contrast the assertions check;
#: smoke mode saves its time on the durations instead.
FLEET_N = 15
TRUST_DURATION_S = 15.0 if SMOKE else 30.0
CHURN_DURATION_S = 15.0 if SMOKE else 25.0

COUNTERS = (
    "radio.frames_delivered",
    "radio.frames_lost",
    "radio.frames_out_of_range",
    "radio.bytes_delivered",
)


# ------------------------------------------------------- null determinism


def run_static_fleet(with_null_injector: bool) -> Tuple[List[tuple], Dict[str, float]]:
    """A static AirDnD fleet under workload, optionally with an idle injector."""
    sim = Simulator(seed=SEED)
    environment = RadioEnvironment(sim, LinkBudget())
    registry = FunctionRegistry()
    register_generic_functions(registry)
    registry.register(
        FunctionDefinition("answer", lambda p, d: 42, lambda p: 5e7, result_size_bytes=300)
    )
    nodes = []
    log: List[tuple] = []
    for index in range(NULL_N):
        mobile = StaticNode(
            sim, Vec2(float(index % 4) * 60.0, float(index // 4) * 60.0),
            name=f"n-{index:02d}",
        )
        node = AirDnDNode(sim, environment, mobile, registry)
        receiver = node.name
        node.mesh.on_frame(
            lambda frame, time, sequence, *link, receiver=receiver: log.append(
                (time, sequence, frame.sender, receiver, *link)
            )
        )
        nodes.append(node)
    workload = GenericComputeWorkload(sim, nodes, registry, arrival_rate_per_s=1.5)
    if with_null_injector:
        injector = FaultInjector(
            sim, nodes, environment=environment, workload=workload
        )
        armed = injector.arm(null_schedule(SEED), start=0.0, duration=NULL_DURATION_S)
        assert armed == 0
    sim.run(until=NULL_DURATION_S)
    counters = {name: sim.monitor.counter_value(name) for name in COUNTERS}
    return in_fire_order(log), counters


# --------------------------------------------------------- trust & churn


def run_trust_point(malicious_fraction: float, redundancy: int) -> Dict[str, float]:
    """One urban-grid run with liars and k-redundant execution."""
    scenario = build_urban_grid_scenario(
        num_vehicles=FLEET_N,
        seed=SEED,
        malicious_fraction=malicious_fraction,
        adversary_profile="liar",
        task_redundancy=redundancy,
        task_rate_per_s=1.5,
    )
    report = scenario.run(TRUST_DURATION_S)
    extra = report.extra
    return {
        "completed": float(report.tasks_completed),
        "failed": float(report.tasks_failed),
        "wrong_rate": extra["wrong_result_acceptance_rate"],
        "reputation_gap": extra["reputation_gap"],
        "malicious": extra["malicious_node_count"],
    }


def run_churn() -> Dict[str, float]:
    """One urban-grid run under crash/recovery churn."""
    scenario = build_urban_grid_scenario(
        num_vehicles=FLEET_N,
        seed=SEED,
        crash_rate=0.02,
        mean_downtime=3.0,
        task_rate_per_s=1.5,
    )
    report = scenario.run(CHURN_DURATION_S)
    leaves = scenario.sim.monitor.counter_value("mesh.leaves")
    extra = report.extra
    return {
        "completed": float(report.tasks_completed),
        "availability": extra["availability"],
        "crashes": extra["crashes_injected"],
        "recoveries": extra["recoveries_injected"],
        "mean_recovery_time_s": extra["mean_recovery_time_s"],
        "leaves": leaves,
    }


def run_all():
    reference_log, reference_counters = run_static_fleet(with_null_injector=False)
    null_log, null_counters = run_static_fleet(with_null_injector=True)
    return {
        "null": (reference_log, reference_counters, null_log, null_counters),
        "k3_sep": run_trust_point(malicious_fraction=0.25, redundancy=3),
        "k3_low": run_trust_point(malicious_fraction=0.1, redundancy=3),
        "k1_exposed": run_trust_point(malicious_fraction=0.25, redundancy=1),
        "churn": run_churn(),
    }


def test_e14_faults_and_trust(benchmark, print_table):
    results = run_once_with_benchmark(benchmark, run_all)

    reference_log, reference_counters, null_log, null_counters = results["null"]

    table = ResultTable(
        f"E14  Fault & adversary injection (N={FLEET_N}, seed={SEED})",
        ["configuration", "completed", "wrong-result rate", "reputation gap",
         "availability"],
    )
    for label, key in (
        ("k=3, 25% liars", "k3_sep"),
        ("k=3, 10% liars", "k3_low"),
        ("k=1, 25% liars", "k1_exposed"),
    ):
        data = results[key]
        table.add_row(label, data["completed"], data["wrong_rate"],
                      data["reputation_gap"], 1.0)
    churn = results["churn"]
    table.add_row(
        f"churn ({churn['crashes']:g} crashes)", churn["completed"],
        0.0, float("nan"), churn["availability"],
    )
    print_table(table)

    # --- null schedule is byte-invisible -----------------------------------
    assert reference_counters["radio.frames_delivered"] > 0
    assert null_counters == reference_counters
    assert null_log == reference_log

    # --- reputation separates honest from malicious ------------------------
    k3 = results["k3_sep"]
    assert k3["malicious"] >= 2
    assert k3["reputation_gap"] > 0

    # --- k=3 voting drives wrong-result acceptance to zero -----------------
    assert results["k3_low"]["malicious"] >= 1
    assert results["k3_low"]["wrong_rate"] == 0.0
    # ... while without voting fabrications do get accepted.
    exposed = results["k1_exposed"]
    assert exposed["wrong_rate"] > 0.0
    # At 25% liars the mesh is occasionally so sparse that only one
    # candidate (the liar) is reachable and k degrades to 1 by design
    # (the fleet-smaller-than-k contract) — voting must still be a sharp
    # improvement over no voting.
    assert k3["wrong_rate"] < exposed["wrong_rate"] / 2
    # The protected configurations still complete work.
    assert k3["completed"] > 0

    # --- churn: crashes depress availability, peers leave views, rejoin ----
    assert churn["crashes"] >= 1
    assert churn["availability"] < 1.0
    assert churn["leaves"] >= 1
    if churn["recoveries"] >= 1:
        assert churn["mean_recovery_time_s"] == churn["mean_recovery_time_s"]  # not nan
    assert churn["completed"] > 0
