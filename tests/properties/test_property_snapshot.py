"""Property: interrupting a run with snapshot/restore is unobservable.

The core contract of :mod:`repro.snapshot` — run to ``T``, snapshot,
restore in a fresh object graph, run to the end — must be *byte-identical*
to never having stopped: the fleet-wide delivered-frame sequence, the
scenario report and the final snapshot bytes all match.  The bytes cover
every pickled field — clocks, queue bookkeeping, id numbering, every RNG
stream's state (hence draw count), per-node mesh/compute/trust state.
The property is quantified over scenario, seed, cut point, equivalence tier
(exact and fast_math) and fault activity; a deterministic test pins the
full acceptance matrix explicitly.
"""

import os
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.scenarios import build_scenario
from repro.scenarios.base import Scenario
from repro.snapshot import DeliveredFrameLog

DURATION = 10.0

FAULT_KNOBS = dict(
    crash_rate=0.05,
    radio_degradation=5.0,
    loss_burst_rate=0.15,
    malicious_fraction=0.25,
    adversary_profile="mixed",
)


def _build(scenario_name, seed, fast_math, faults):
    knobs = dict(n=4, seed=seed, fast_math=fast_math)
    if faults:
        knobs.update(FAULT_KNOBS)
    return build_scenario(scenario_name, **knobs)


def _uninterrupted(scenario_name, seed, fast_math, faults):
    scenario = _build(scenario_name, seed, fast_math, faults)
    log = DeliveredFrameLog().attach(scenario)
    report = scenario.run(DURATION)
    return log.records, report.as_dict(), scenario.snapshot()


def _interrupted(scenario_name, seed, fast_math, faults, cut):
    scenario = _build(scenario_name, seed, fast_math, faults)
    DeliveredFrameLog().attach(scenario)
    handle, path = tempfile.mkstemp(suffix=".reprosnap")
    os.close(handle)
    try:
        scenario.run(DURATION, snapshot_at=cut, snapshot_to=path)
        restored = Scenario.restore(path)
    finally:
        os.unlink(path)
    report = restored.resume()
    log = DeliveredFrameLog.find(restored)
    return log.records, report.as_dict(), restored.snapshot()


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario_name=st.sampled_from(["highway", "urban-grid", "intersection"]),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.floats(min_value=0.5, max_value=DURATION - 0.5, allow_nan=False),
    fast_math=st.booleans(),
    faults=st.booleans(),
)
# Every node crashes and recovers before the run ends in these two cases, so
# only the recovered nodes' rebuilt interfaces carry the frame log.
@example(scenario_name="intersection", seed=278, cut=1.0, fast_math=False, faults=True)
@example(scenario_name="urban-grid", seed=280, cut=5.0, fast_math=True, faults=True)
# Rebuilding the dropped radio caches costs the restored run extra
# line-of-sight queries, so per-query scratch must stay out of the pickle.
@example(scenario_name="intersection", seed=280, cut=5.0, fast_math=False, faults=False)
# A stream first drawn after the cut: its seed arrays carry numpy's builtin
# dtype, the restored streams' arrays an equal copy.
@example(scenario_name="urban-grid", seed=8724, cut=2.612, fast_math=False, faults=True)
def test_snapshot_restore_is_byte_identical(scenario_name, seed, cut, fast_math, faults):
    frames_a, report_a, blob_a = _uninterrupted(scenario_name, seed, fast_math, faults)
    frames_b, report_b, blob_b = _interrupted(scenario_name, seed, fast_math, faults, cut)
    assert frames_b == frames_a
    assert report_b == report_a
    # Equal state gives equal bytes, so this covers every pickled field —
    # critically every named RNG stream's bit-generator state, which
    # implies equal draw counts per stream.
    assert blob_b == blob_a


@pytest.mark.parametrize("scenario_name", ["highway", "urban-grid", "intersection"])
@pytest.mark.parametrize("fast_math", [False, True], ids=["exact", "fast"])
@pytest.mark.parametrize("faults", [False, True], ids=["null", "faulty"])
def test_acceptance_matrix_restore_then_run_is_byte_identical(
    scenario_name, fast_math, faults
):
    """The ISSUE acceptance grid: 3 scenarios x 2 tiers x faults off/on."""
    frames_a, report_a, blob_a = _uninterrupted(scenario_name, 7, fast_math, faults)
    frames_b, report_b, blob_b = _interrupted(
        scenario_name, 7, fast_math, faults, cut=0.4 * DURATION
    )
    assert frames_b == frames_a
    assert report_b == report_a
    assert blob_b == blob_a


def test_rng_draw_streams_continue_not_restart():
    """After restore, streams continue mid-sequence rather than reseeding."""
    scenario = _build("highway", 3, False, False)
    handle, path = tempfile.mkstemp(suffix=".reprosnap")
    os.close(handle)
    try:
        scenario.run(DURATION, snapshot_at=4.0, snapshot_to=path)
        restored = Scenario.restore(path)
    finally:
        os.unlink(path)
    fresh = _build("highway", 3, False, False)
    streams = restored.sim.streams
    fresh_streams = fresh.sim.streams
    assert streams.seed == fresh_streams.seed
    # At least one stream must have advanced past its just-seeded state.
    common = set(streams._streams) & set(fresh_streams._streams)
    assert common
    assert any(
        streams._streams[name].bit_generator.state
        != fresh_streams._streams[name].bit_generator.state
        for name in common
    )
