"""Tests for the live fault injector (`repro.faults.injector`)."""

import math

import pytest

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDNode
from repro.faults import FaultInjector, FaultKnobs, FaultSchedule, null_schedule
from repro.faults.injector import _RejoinWatch
from repro.geometry.vector import Vec2
from repro.mobility.manager import MobilityManager
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


def build_fleet(n=3, seed=21, spacing=50.0, with_mobility=False):
    sim = Simulator(seed=seed)
    mobility = MobilityManager(sim, tick=0.2) if with_mobility else None
    environment = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    registry = FunctionRegistry()
    registry.register(
        FunctionDefinition("answer", lambda p, d: 42, lambda p: 5e7, result_size_bytes=300)
    )
    nodes = []
    for index in range(n):
        mobile = StaticNode(sim, Vec2(index * spacing, 0.0), name=f"n-{index}")
        if mobility is not None:
            mobility.add_node(mobile)
        nodes.append(AirDnDNode(sim, environment, mobile, registry))
    return sim, environment, mobility, registry, nodes


# ------------------------------------------------------------ crash/recover


def test_crash_detaches_and_stops_beaconing():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    victim = nodes[1]
    assert victim.name in environment.node_names
    assert injector.crash(victim.name)
    assert victim.crashed
    assert victim.name not in environment.node_names
    assert not injector.crash(victim.name)  # idempotent
    sent_at_crash = victim.mesh.beacon_agent.beacons_sent
    sim.run(until=6.0)
    assert victim.mesh.beacon_agent.beacons_sent == sent_at_crash


def test_crashed_peer_leaves_live_views_within_beacon_timeout():
    """The membership-expiry audit: silence ⇒ view exit ⇒ counted leave."""
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    observer = nodes[0]
    victim = nodes[1]
    assert victim.name in observer.mesh.neighbors.active_names(sim.now)
    leaves_before = sim.monitor.counter_value("mesh.leaves")
    epoch_before = observer.mesh.beacon_agent.epoch
    injector.crash(victim.name)
    crash_time = sim.now
    lifetime = observer.config.neighbor_lifetime
    # Within one neighbour lifetime (plus in-flight slack) the peer is out of
    # the *view*, even though the expiry sweep may not have fired yet.
    sim.run(until=crash_time + lifetime + 0.2)
    assert victim.name not in observer.mesh.neighbors.active_names(sim.now)
    # ... and by the next sweep (half a lifetime later at worst) it has been
    # evicted and counted as a leave.
    sim.run(until=crash_time + 1.5 * lifetime + 0.2)
    assert sim.monitor.counter_value("mesh.leaves") > leaves_before
    assert observer.mesh.beacon_agent.epoch > epoch_before
    assert victim.name not in observer.mesh.neighbors.names()


def test_recover_rejoins_with_fresh_neighbor_state():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    victim = nodes[1]
    old_interface = victim.mesh.interface
    assert len(victim.mesh.neighbors) > 0
    injector.crash(victim.name)
    sim.run(until=sim.now + 1.0)
    assert injector.recover(victim.name)
    assert not victim.crashed
    assert not injector.recover(victim.name)  # idempotent
    # Fresh state: empty table, epoch 0, a live interface re-attached; the
    # dead one stays disabled.
    assert len(victim.mesh.neighbors) == 0
    assert victim.mesh.beacon_agent.epoch == 0
    assert environment.interface_of(victim.name) is victim.mesh.interface
    assert victim.mesh.interface.enabled and not old_interface.enabled
    rejoin_start = sim.now
    sim.run(until=rejoin_start + 3.0)
    # The node heard fresh beacons and neighbours re-discovered it.
    assert len(victim.mesh.neighbors) > 0
    assert victim.name in nodes[0].mesh.neighbors.active_names(sim.now)
    assert injector.rejoin_delays and injector.mean_recovery_time_s() > 0


def test_rejoin_delays_run_to_the_joining_arrival_in_arrival_order():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    for node in nodes[1:]:
        injector.crash(node.name)
    sim.run(until=3.0)
    firsts = {}
    for node in nodes[1:]:
        injector.recover(node.name)
        node.mesh.beacon_agent.on_neighbor_up(
            lambda peer, beacon, time, sequence, name=node.name: firsts.setdefault(
                name, (time, sequence)
            )
        )
    sim.run(until=6.0)
    assert len(firsts) == 2
    assert injector.rejoin_delays == [time - 3.0 for time, _ in sorted(firsts.values())]
    # Receivers commit lazily, so the watches may fire out of arrival
    # order; the delays still read in it.
    injector._await_rejoin.update({"a": 1.0, "b": 1.0})
    _RejoinWatch(injector, "b", 1.0)("peer", None, 7.5, 900)
    _RejoinWatch(injector, "a", 1.0)("peer", None, 7.25, 800)
    assert injector.rejoin_delays[-2:] == [6.25, 6.5]


def test_bytes_sent_survive_crash_and_recovery():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    victim = nodes[1]
    before_crash = victim.bytes_sent()
    assert before_crash > 0
    injector.crash(victim.name)
    sim.run(until=sim.now + 1.0)
    assert victim.bytes_sent() == before_crash
    injector.recover(victim.name)
    assert victim.bytes_sent() == before_crash
    sim.run(until=sim.now + 2.0)
    assert victim.bytes_sent() > before_crash


def test_adversary_profile_outlives_a_crash():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    victim = nodes[1]
    injector.assign_adversaries({victim.name: "inflator"})
    sim.run(until=2.0)
    injector.crash(victim.name)
    sim.run(until=sim.now + 1.0)
    injector.recover(victim.name)
    # The inflating enricher rides along once, after the honest one.
    enrichers = victim.mesh.beacon_agent._enrichers
    assert [type(e).__name__ for e in enrichers] == ["method", "BeaconInflater"]
    assert victim.mesh.beacon_agent.build_beacon().compute_headroom_ops == 1e12


def test_recovered_node_serves_tasks_again():
    sim, environment, _, _, nodes = build_fleet(n=2)
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    requester, executor = nodes
    injector.crash(executor.name)
    sim.run(until=sim.now + 1.0)
    injector.recover(executor.name)
    sim.run(until=sim.now + 2.0)
    lifecycle = requester.submit_function("answer")
    sim.run(until=sim.now + 10.0)
    assert lifecycle.succeeded
    assert lifecycle.result.executor == executor.name


def test_crash_fails_in_flight_and_new_submissions():
    sim, environment, _, _, nodes = build_fleet(n=2)
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=2.0)
    requester = nodes[0]
    lifecycle = requester.submit_function("answer")
    injector.crash(requester.name)
    assert lifecycle.is_terminal and not lifecycle.succeeded
    assert "crashed" in lifecycle.result.failure_reason
    offline = requester.submit_function("answer")
    assert offline.is_terminal and not offline.succeeded
    injector.recover(requester.name)
    sim.run(until=sim.now + 3.0)
    back = requester.submit_function("answer")
    sim.run(until=sim.now + 10.0)
    assert back.succeeded


def test_crash_and_recover_maintain_mobility_registration():
    sim, environment, mobility, _, nodes = build_fleet(with_mobility=True)
    injector = FaultInjector(sim, nodes, environment=environment, mobility=mobility)
    sim.run(until=1.0)
    victim = nodes[2]
    injector.crash(victim.name)
    assert not mobility.has_node(victim.name)
    assert victim.name not in mobility.substrate
    injector.recover(victim.name)
    assert mobility.has_node(victim.name)
    assert victim.name in mobility.substrate


def test_availability_accounts_open_and_closed_downtime():
    sim, environment, _, _, nodes = build_fleet(n=4)
    injector = FaultInjector(sim, nodes, environment=environment)
    sim.run(until=1.0)
    injector.crash(nodes[0].name)
    sim.run(until=3.0)
    injector.recover(nodes[0].name)   # 2 s closed downtime
    injector.crash(nodes[1].name)
    sim.run(until=4.0)                # 1 s open downtime
    assert injector.downtime_s() == pytest.approx(3.0)
    # 4 nodes over 4 s = 16 node-seconds, 3 down.
    assert injector.availability() == pytest.approx(1.0 - 3.0 / 16.0)
    extra = injector.report_extra()
    assert extra["crashes_injected"] == 2.0
    assert extra["recoveries_injected"] == 1.0


# ------------------------------------------------------- radio degradation


def plan_snr(environment, src: str, dst: str) -> float:
    """The SNR column of ``src``'s sender plan at ``dst``."""
    environment._refresh()
    plan = environment._sender_plan(environment.interface_of(src))
    names = [receiver.node_name for receiver in plan.receivers]
    return float(plan.snr_db[names.index(dst)])


def test_radio_degradation_bursts_stack_and_restore_exactly():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    budget = environment.link_budget
    baseline = budget.noise_penalty_db
    assert baseline == 0.0
    snr_before = plan_snr(environment, nodes[0].name, nodes[1].name)
    injector._radio_degrade(6.0)
    injector._radio_degrade(3.0)
    assert budget.noise_penalty_db == pytest.approx(9.0)
    snr_degraded = plan_snr(environment, nodes[0].name, nodes[1].name)
    assert snr_degraded == pytest.approx(snr_before - 9.0)
    injector._radio_restore(6.0)
    assert budget.noise_penalty_db == pytest.approx(3.0)
    injector._radio_restore(3.0)
    assert budget.noise_penalty_db == 0.0  # exact, not approximate
    assert plan_snr(environment, nodes[0].name, nodes[1].name) == snr_before


def test_loss_bursts_combine_independently_and_clear():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    injector._loss_start(0.5)
    injector._loss_start(0.5)
    assert environment.extra_loss_probability == pytest.approx(0.75)
    injector._loss_end(0.5)
    assert environment.extra_loss_probability == pytest.approx(0.5)
    injector._loss_end(0.5)
    assert environment.extra_loss_probability == 0.0


def test_loss_burst_actually_drops_frames():
    sim, environment, _, _, nodes = build_fleet(n=2)
    injector = FaultInjector(sim, nodes, environment=environment)
    injector._loss_start(1.0)   # drop everything
    sim.run(until=4.0)
    assert sim.monitor.counter_value("radio.frames_delivered") == 0
    assert sim.monitor.counter_value("radio.frames_lost") > 0
    injector._loss_end(1.0)
    sim.run(until=8.0)
    assert sim.monitor.counter_value("radio.frames_delivered") > 0


# --------------------------------------------------------------- schedules


def test_arm_null_schedule_is_inert():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    pending_before = sim.pending_events
    assert injector.arm(null_schedule(3), start=0.0, duration=50.0) == 0
    assert sim.pending_events == pending_before


def test_arm_executes_crashes_and_recoveries_from_schedule():
    sim, environment, _, _, nodes = build_fleet(n=4)
    injector = FaultInjector(sim, nodes, environment=environment)
    schedule = FaultSchedule(
        FaultKnobs(crash_rate=0.05, mean_downtime=2.0), seed=17
    )
    armed = injector.arm(schedule, start=0.0, duration=40.0)
    assert armed > 0
    sim.run(until=40.0)
    assert injector.crashes_injected > 0
    assert injector.crashes_injected >= injector.recoveries_injected
    assert sim.monitor.counter_value("faults.crashes") == injector.crashes_injected


def test_assign_adversaries_rejects_unknown_nodes():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    with pytest.raises(ValueError, match="unknown node"):
        injector.assign_adversaries({"ghost": "liar"})


def test_report_extra_mean_recovery_time_nan_without_recoveries():
    sim, environment, _, _, nodes = build_fleet()
    injector = FaultInjector(sim, nodes, environment=environment)
    assert math.isnan(injector.report_extra()["mean_recovery_time_s"])
