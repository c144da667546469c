"""Snapshots taken *inside* fault windows restore without drift.

The nastiest checkpoint states are mid-burst: a radio degradation or loss
burst is in progress (non-empty injector stacks, a pending restore event in
the queue), nodes are crashed with recovery events armed, adversary
assignments are live.  These tests cut exactly there and require the
restored run to match the uninterrupted one byte for byte.
"""

import os
import tempfile

import pytest

from repro.faults.schedule import LOSS_END, LOSS_START, RADIO_DEGRADE, RADIO_RESTORE
from repro.scenarios import build_scenario
from repro.scenarios.base import Scenario
from repro.snapshot import DeliveredFrameLog

DURATION = 12.0

# High burst rates so windows reliably exist inside a short run (at the
# default rates a 12 s window frequently draws zero bursts).
BURSTY = dict(
    crash_rate=0.08,
    mean_downtime=2.0,
    radio_degradation=6.0,
    loss_burst_rate=0.4,
    malicious_fraction=0.3,
    adversary_profile="mixed",
)


# Seed 8 arms both a degradation and a loss window well inside DURATION.
def _build(seed=8):
    return build_scenario("urban-grid", n=6, seed=seed, **BURSTY)


_END_OF = {RADIO_DEGRADE: RADIO_RESTORE, LOSS_START: LOSS_END}


def _first_window_midpoint(scenario, kind):
    """Sim time halfway through the first armed burst window of ``kind``."""
    schedule = scenario._fault_schedule
    names = [node.name for node in scenario.nodes]
    events = schedule.timeline(names, start=0.0, duration=DURATION)
    starts = [e.time for e in events if e.kind == kind]
    ends = [e.time for e in events if e.kind == _END_OF[kind]]
    assert starts, f"no {kind} window armed; pick a different seed"
    start = starts[0]
    end = min((t for t in ends if t > start), default=DURATION)
    return min(start + 0.5 * (end - start), DURATION - 0.1)


def _round_trip(scenario, cut):
    handle, path = tempfile.mkstemp(suffix=".reprosnap")
    os.close(handle)
    try:
        scenario.run(DURATION, snapshot_at=cut, snapshot_to=path)
        return Scenario.restore(path)
    finally:
        os.unlink(path)


@pytest.mark.parametrize("kind", [RADIO_DEGRADE, LOSS_START])
def test_snapshot_inside_burst_window_is_byte_identical(kind):
    reference = _build()
    ref_log = DeliveredFrameLog().attach(reference)
    ref_report = reference.run(DURATION)

    scenario = _build()
    DeliveredFrameLog().attach(scenario)
    cut = _first_window_midpoint(scenario, kind)
    restored = _round_trip(scenario, cut)

    # The cut really was inside a window: the restored injector carries the
    # in-progress burst on its stack at the moment of restore *before*
    # resuming would pop it.
    assert restored.faults._noise_stack or restored.faults._loss_stack

    report = restored.resume()
    assert DeliveredFrameLog.find(restored).records == ref_log.records
    assert report.as_dict() == ref_report.as_dict()
    assert restored.snapshot() == reference.snapshot()


def test_adversary_profiles_survive_restore():
    scenario = _build()
    assigned = dict(scenario.faults._assignment)
    assert assigned, "malicious_fraction should assign adversaries"
    restored = _round_trip(scenario, cut=5.0)
    assert restored.faults._assignment == assigned
    assert restored.faults.malicious_names == scenario.faults.malicious_names
    # Malicious behaviour keeps running after restore: the resumed report
    # matches an uninterrupted adversarial run exactly (the snapshot bytes
    # include per-node trust scores shaped by the adversaries).
    reference = _build()
    ref_report = reference.run(DURATION)
    report = restored.resume()
    assert report.as_dict() == ref_report.as_dict()
    assert restored.snapshot() == reference.snapshot()


def test_crash_recovery_sequence_unchanged_across_restore():
    reference = _build(seed=23)
    ref_report = reference.run(DURATION)
    ref_faults = reference.faults
    assert ref_faults.crashes_injected > 0, "crash_rate should crash someone"

    scenario = _build(seed=23)
    restored = _round_trip(scenario, cut=4.0)
    report = restored.resume()
    faults = restored.faults
    assert faults.crashes_injected == ref_faults.crashes_injected
    assert faults.recoveries_injected == ref_faults.recoveries_injected
    assert faults._down_since == ref_faults._down_since
    assert faults._downtime_total == ref_faults._downtime_total
    assert report.as_dict() == ref_report.as_dict()
    assert restored.snapshot() == reference.snapshot()


def test_crashed_node_restores_crashed_and_recovers_on_schedule():
    scenario = _build(seed=23)
    # Find a cut while at least one node is down in the reference timeline.
    schedule = scenario._fault_schedule
    names = [node.name for node in scenario.nodes]
    events = schedule.timeline(names, start=0.0, duration=DURATION)
    crashes = [e for e in events if e.kind == "crash"]
    assert crashes
    first = crashes[0]
    recover = min(
        (e.time for e in events if e.kind == "recover" and e.node == first.node),
        default=DURATION,
    )
    cut = min(first.time + 0.5 * (recover - first.time), DURATION - 0.1)

    restored = _round_trip(scenario, cut)
    down = [node for node in restored.nodes if node.name == first.node]
    assert down and down[0].crashed

    reference = _build(seed=23)
    ref_report = reference.run(DURATION)
    report = restored.resume()
    # The node came back on schedule after restore.
    recovered = [node for node in restored.nodes if node.name == first.node]
    if recover < DURATION:
        assert not recovered[0].crashed
    assert report.as_dict() == ref_report.as_dict()
