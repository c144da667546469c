"""Property: interleaving sessions in arbitrary slices is unobservable.

The session engine multiplexes many simulations by stepping each one in
bounded event slices.  The contract: however two sessions' slices are
interleaved — alternating, lopsided, varying sizes — each session's fleet
delivered-frame sequence, final report and final snapshot bytes are
identical to running its scenario to completion in one
undisturbed ``Scenario.run()`` call.  Quantified over scenario, seed, slice
pattern, equivalence tier (exact and fast_math) and fault activity; a
deterministic acceptance test pins the tier × faults matrix explicitly.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenarios import build_scenario
from repro.service.session import SessionState, SimulationSession
from repro.snapshot import DeliveredFrameLog

DURATION = 6.0

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


def _solo(scenario_name, seed, fast_math, faults):
    scenario = _build(scenario_name, seed, fast_math, faults)
    log = DeliveredFrameLog().attach(scenario)
    report = scenario.run(DURATION)
    return log.records, report.as_dict(), scenario.snapshot()


def _interleaved_pair(scenario_name, seeds, fast_math, faults, slices):
    """Two sessions stepped alternately with varying slice budgets."""
    sessions, logs = [], []
    for index, seed in enumerate(seeds):
        scenario = _build(scenario_name, seed, fast_math, faults)
        logs.append(DeliveredFrameLog().attach(scenario))
        session = SimulationSession(
            f"s{index}", scenario, duration=DURATION, step_slice=max(slices)
        )
        session.start()
        sessions.append(session)
    budgets = itertools.cycle(slices)
    while any(s.state is SessionState.RUNNING for s in sessions):
        for session in sessions:
            if session.state is SessionState.RUNNING:
                session.step(next(budgets))
    return [
        (log.records, session.report.as_dict(), session.scenario.snapshot())
        for session, log in zip(sessions, logs)
    ]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    scenario_name=st.sampled_from(["highway", "urban-grid", "intersection"]),
    seed=st.integers(min_value=0, max_value=10_000),
    slices=st.lists(
        st.integers(min_value=1, max_value=300), min_size=1, max_size=5
    ),
    fast_math=st.booleans(),
    faults=st.booleans(),
)
def test_interleaved_sessions_are_byte_identical_to_solo_runs(
    scenario_name, seed, slices, fast_math, faults
):
    seeds = (seed, seed + 1)
    interleaved = _interleaved_pair(scenario_name, seeds, fast_math, faults, slices)
    for one_seed, (frames, report, snapshot) in zip(seeds, interleaved):
        frames_solo, report_solo, snapshot_solo = _solo(
            scenario_name, one_seed, fast_math, faults
        )
        assert frames == frames_solo
        assert report == report_solo
        # Equal bytes cover clocks, queue bookkeeping, id numbering,
        # per-node state and every named RNG stream's state.  Both sessions
        # and the solo runs share this process, so they also show that no
        # id leaks from one simulation to another.
        assert snapshot == snapshot_solo


@pytest.mark.parametrize("fast_math", [False, True], ids=["exact", "fast"])
@pytest.mark.parametrize("faults", [False, True], ids=["null", "faulty"])
def test_acceptance_matrix_interleaving_with_faults(fast_math, faults):
    """The ISSUE acceptance grid: both tiers, fault windows on and off."""
    seeds = (7, 8)
    interleaved = _interleaved_pair(
        "urban-grid", seeds, fast_math, faults, slices=[17, 160, 3]
    )
    for seed, (frames, report, snapshot) in zip(seeds, interleaved):
        frames_solo, report_solo, snapshot_solo = _solo(
            "urban-grid", seed, fast_math, faults
        )
        assert frames == frames_solo
        assert report == report_solo
        assert snapshot == snapshot_solo
