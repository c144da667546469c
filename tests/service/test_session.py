"""SimulationSession: the lifecycle state machine around one run window."""

import pytest

from repro.scenarios import build_scenario
from repro.service.session import (
    SessionState,
    SessionStateError,
    SimulationSession,
)

DURATION = 6.0


def _session(seed=0, step_slice=100, **kwargs):
    scenario = build_scenario("urban-grid", n=4, seed=seed)
    return SimulationSession(
        "s-test", scenario, duration=DURATION, step_slice=step_slice, **kwargs
    )


def _solo_report(seed=0):
    return build_scenario("urban-grid", n=4, seed=seed).run(DURATION).as_dict()


# ------------------------------------------------------------- state machine


def test_lifecycle_happy_path():
    session = _session()
    assert session.state is SessionState.CREATED
    session.start()
    assert session.state is SessionState.RUNNING
    session.pause()
    assert session.state is SessionState.PAUSED
    session.resume()
    assert session.state is SessionState.RUNNING
    while session.state is SessionState.RUNNING:
        session.step()
    assert session.state is SessionState.FINISHED
    assert session.report is not None


def test_invalid_transitions_raise_state_errors():
    session = _session()
    with pytest.raises(SessionStateError, match="needs created"):
        session.start()  # must start from CREATED...
        session.start()  # ...twice is a 409
    with pytest.raises(SessionStateError, match="needs paused"):
        session.resume()
    with pytest.raises(SessionStateError, match="needs paused"):
        session.evict()
    session.pause()
    with pytest.raises(SessionStateError, match="needs running"):
        session.pause()
    with pytest.raises(SessionStateError, match="needs evicted"):
        session.restore()


def test_step_requires_an_open_session():
    session = _session()
    with pytest.raises(SessionStateError):
        session.step()
    session.fast_forward()
    with pytest.raises(SessionStateError):
        session.step()


def test_step_allowed_while_paused():
    session = _session()
    session.start()
    session.pause()
    outcome = session.step(10)
    assert outcome.events_fired == 10
    assert session.state is SessionState.PAUSED


def test_constructor_validation():
    scenario = build_scenario("urban-grid", n=4, seed=0)
    with pytest.raises(ValueError, match="duration"):
        SimulationSession("x", scenario, duration=0.0)
    with pytest.raises(ValueError, match="step_slice"):
        SimulationSession("x", scenario, step_slice=0)


# -------------------------------------------------------------- determinism


def test_sliced_session_report_is_byte_identical_to_solo_run():
    session = _session(seed=9, step_slice=61)
    report = session.fast_forward()
    assert report.as_dict() == _solo_report(seed=9)
    assert session.ticks > 1  # actually sliced, not one big run


def test_evict_restore_round_trip_is_byte_identical():
    session = _session(seed=4)
    session.start()
    session.step(80)
    session.pause()
    session.evict()
    assert session.state is SessionState.EVICTED
    assert session.scenario is None  # the object graph was dropped
    with pytest.raises(SessionStateError):
        session.step()
    session.restore()
    assert session.state is SessionState.PAUSED
    session.resume()
    session.fast_forward()
    assert session.report.as_dict() == _solo_report(seed=4)


def test_evict_to_path_round_trip(tmp_path):
    target = tmp_path / "evicted.reprosnap"
    session = _session(seed=4)
    session.start()
    session.step(80)
    session.pause()
    session.evict(str(target))
    assert target.exists()
    session.restore()
    session.resume()
    session.fast_forward()
    assert session.report.as_dict() == _solo_report(seed=4)


# ------------------------------------------------------------------- events


def test_bus_stream_carries_ticks_states_and_final_report():
    session = _session(seed=1, step_slice=97)
    events = []
    session.bus.subscribe(events.append)
    session.fast_forward()
    kinds = [event["type"] for event in events]
    assert kinds.count("report") == 1
    assert kinds[-1] == "report"
    assert "tick" in kinds
    state_changes = [
        (event["from"], event["to"]) for event in events if event["type"] == "state"
    ]
    assert state_changes[0] == ("created", "running")
    assert state_changes[-1] == ("running", "finished")
    report_event = events[-1]
    assert report_event["report"] == session.report.as_dict()
    ticks = [event for event in events if event["type"] == "tick"]
    assert ticks[-1]["total_events"] == session.events_fired
    # urban-grid scenarios carry a topology observer -> topology events too.
    assert any(event["type"] == "topology" for event in events)


def test_status_and_interim_report():
    session = _session(seed=2)
    status = session.status()
    assert status["state"] == "created"
    assert status["scenario"] == "urban_grid"  # the scenario's own name
    assert status["node_count"] == 4
    assert status["progress"] is None  # no window yet
    interim = session.interim_report()
    assert interim["tasks_submitted"] == 0
    session.start()
    session.step(50)
    status = session.status()
    assert 0.0 <= status["progress"] <= 1.0
    assert status["events_fired"] == 50
    session.fast_forward()
    status = session.status()
    assert status["state"] == "finished"
    assert status["progress"] == 1.0
    assert session.interim_report() == session.report.as_dict()


def test_evicted_status_keeps_last_known_clock():
    session = _session(seed=2)
    session.start()
    session.step(50)
    now_before = session.status()["now"]
    session.pause()
    session.evict()
    assert session.status()["now"] == now_before
    with pytest.raises(SessionStateError):
        session.interim_report()

# -------------------------------------------------------------- failed state


def test_fail_is_terminal_and_drops_the_scenario():
    session = _session()
    session.start()
    events = []
    session.bus.subscribe(events.append)
    session.fail(RuntimeError("boom"))
    assert session.state is SessionState.FAILED
    assert session.error == "RuntimeError: boom"
    assert session.scenario is None
    assert session.status()["state"] == "failed"
    assert session.status()["error"] == "RuntimeError: boom"
    assert any(
        e["type"] == "error" and e["error"] == "RuntimeError: boom"
        for e in events
    )
    # Terminal: no lifecycle operation applies any more.
    for operation in (
        session.start, session.pause, session.resume,
        session.step, session.snapshot, session.evict,
        session.restore, session.interim_report,
    ):
        with pytest.raises(SessionStateError):
            operation()


def test_fail_requires_a_live_window():
    session = _session()
    with pytest.raises(SessionStateError):
        session.fail("too early")
    session.start()
    while session.state is SessionState.RUNNING:
        session.step()
    with pytest.raises(SessionStateError):
        session.fail("too late")


def test_healthy_sessions_report_no_error():
    session = _session()
    assert session.status()["error"] is None
