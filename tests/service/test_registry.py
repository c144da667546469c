"""SessionRegistry: creation, lookup, eviction and the round-robin scheduler."""

import asyncio

import pytest

from repro.scenarios import build_scenario
from repro.service.registry import SessionRegistry, UnknownSessionError
from repro.service.session import SessionState

DURATION = 6.0


def _solo_report(seed):
    return build_scenario("urban-grid", n=4, seed=seed).run(DURATION).as_dict()


# --------------------------------------------------------------------- CRUD


def test_create_by_name_assigns_sequential_ids():
    registry = SessionRegistry()
    first = registry.create("urban-grid", n=4, seed=0, duration=DURATION)
    second = registry.create("urban-grid", n=4, seed=1, duration=DURATION)
    assert [first.id, second.id] == ["s0001", "s0002"]
    assert len(registry) == 2
    assert first.id in registry
    assert registry.get(first.id) is first
    assert registry.sessions() == [first, second]


def test_create_validates_exactly_one_source():
    registry = SessionRegistry()
    with pytest.raises(ValueError, match="exactly one"):
        registry.create()
    scenario = build_scenario("urban-grid", n=4, seed=0)
    with pytest.raises(ValueError, match="exactly one"):
        registry.create("urban-grid", scenario=scenario)


def test_create_rejects_duplicate_explicit_id():
    registry = SessionRegistry()
    registry.create("urban-grid", n=4, seed=0, session_id="mine")
    with pytest.raises(ValueError, match="already exists"):
        registry.create("urban-grid", n=4, seed=0, session_id="mine")


def test_unknown_session_is_loud():
    registry = SessionRegistry()
    with pytest.raises(UnknownSessionError):
        registry.get("nope")
    with pytest.raises(UnknownSessionError):
        registry.delete("nope")


def test_delete_forgets_the_session():
    registry = SessionRegistry()
    session = registry.create("urban-grid", n=4, seed=0)
    registry.delete(session.id)
    assert len(registry) == 0
    with pytest.raises(UnknownSessionError):
        registry.get(session.id)


def test_knobs_forwarded_to_builder():
    registry = SessionRegistry()
    session = registry.create(
        "urban-grid", n=4, seed=0, knobs={"malicious_fraction": 0.25}
    )
    assert session.scenario.config.malicious_fraction == 0.25


# ----------------------------------------------------------- evict / restore


def test_registry_evict_auto_pauses_and_writes_artifact(tmp_path):
    registry = SessionRegistry(snapshot_dir=str(tmp_path))
    session = registry.create("urban-grid", n=4, seed=3, duration=DURATION)
    session.start()
    session.step(60)
    registry.evict(session.id)  # running -> paused -> evicted
    assert session.state is SessionState.EVICTED
    assert (tmp_path / f"{session.id}.reprosnap").exists()
    registry.restore(session.id)
    assert session.state is SessionState.PAUSED
    session.resume()
    registry.drive_to_completion()
    assert session.report.as_dict() == _solo_report(3)


# ---------------------------------------------------------------- scheduler


def test_tick_steps_each_runnable_session_once():
    async def scenario():
        registry = SessionRegistry(step_slice=50)
        running = registry.create("urban-grid", n=4, seed=0, duration=DURATION)
        paused = registry.create("urban-grid", n=4, seed=1, duration=DURATION)
        idle = registry.create("urban-grid", n=4, seed=2, duration=DURATION)
        running.start()
        paused.start()
        paused.pause()
        stepped = await registry.tick()
        assert stepped == 1
        assert running.ticks == 1
        assert paused.ticks == 0
        assert idle.ticks == 0

    asyncio.run(scenario())


def test_drive_until_idle_finishes_all_running_sessions():
    registry = SessionRegistry(step_slice=80)
    sessions = [
        registry.create("urban-grid", n=4, seed=seed, duration=DURATION)
        for seed in (0, 1, 2)
    ]
    for session in sessions:
        session.start()
    registry.drive_to_completion()
    for seed, session in enumerate(sessions):
        assert session.state is SessionState.FINISHED
        assert session.report.as_dict() == _solo_report(seed)


def test_interleaved_sessions_are_byte_identical_to_solo_runs():
    """Round-robin interleaving is invisible in the simulation's outputs."""
    registry = SessionRegistry(step_slice=33)
    one = registry.create("urban-grid", n=4, seed=10, duration=DURATION)
    two = registry.create("urban-grid", n=4, seed=11, duration=DURATION)
    one.start()
    two.start()
    registry.drive_to_completion()
    assert one.ticks > 1 and two.ticks > 1  # genuinely interleaved
    assert one.report.as_dict() == _solo_report(10)
    assert two.report.as_dict() == _solo_report(11)


def test_background_drive_stops_on_request():
    async def scenario():
        registry = SessionRegistry(step_slice=50)
        session = registry.create("urban-grid", n=4, seed=0, duration=DURATION)
        session.start()
        driver = asyncio.get_running_loop().create_task(
            registry.drive(idle_sleep=0.001)
        )
        while session.state is SessionState.RUNNING:
            await asyncio.sleep(0.01)
        assert session.state is SessionState.FINISHED
        registry.stop_driving()
        await asyncio.wait_for(driver, 2.0)

    asyncio.run(scenario())

# -------------------------------------------------------------- failure path


def test_step_failure_quarantines_session_and_spares_the_rest():
    registry = SessionRegistry(step_slice=200)
    bad = registry.create("urban-grid", n=4, seed=1, duration=DURATION)
    good = registry.create("urban-grid", n=4, seed=2, duration=DURATION)
    bad.start()
    good.start()

    def exploding_advance(max_events=None):
        raise RuntimeError("scenario wedged")

    bad.scenario.advance = exploding_advance
    registry.drive_to_completion()

    assert bad.state is SessionState.FAILED
    assert bad.error == "RuntimeError: scenario wedged"
    assert bad.scenario is None
    assert good.state is SessionState.FINISHED
    # The failed session is terminal: the scheduler never picks it up again.
    assert bad not in registry.runnable()
    # ...and an interleaved run next to a failing neighbour is still
    # byte-identical to a solo run of the same scenario.
    assert good.report.as_dict() == _solo_report(2)


def test_failed_session_can_still_be_deleted():
    registry = SessionRegistry()
    session = registry.create("urban-grid", n=4, seed=3, duration=DURATION)
    session.start()
    session.fail("operator gave up")
    registry.delete(session.id)
    assert session.id not in registry
