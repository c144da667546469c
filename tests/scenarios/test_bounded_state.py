"""Simulation state grows with the fleet, not with run length.

A small urban grid with tasks runs one window and is inspected at t=4 and
t=20.  The monitor holds only fixed-size aggregates, so it pickles to
nearly the same size at both times; the topology observer keeps its
latest snapshot whole and adds one summary row per tick.
"""

import pickle

import pytest

from repro.scenarios import build_scenario

EARLY, LATE = 4.0, 20.0


def _observer_state(observer):
    """The observer's own state, without the agents and simulator it reads
    and without its per-tick rows."""
    return {
        key: value
        for key, value in vars(observer).items()
        if key not in ("sim", "agents", "_task", "rows")
    }


@pytest.fixture(scope="module")
def states():
    """``{time: (scenario, pickled monitor, pickled observer state, rows)}``."""
    scenario = build_scenario("urban-grid", n=8, seed=3, task_rate_per_s=2.0)
    scenario.open_window(LATE)
    out = {}
    for time in (EARLY, LATE):
        scenario.advance(until=time)
        observer = scenario.topology
        out[time] = (
            pickle.dumps(scenario.sim.monitor, protocol=4),
            pickle.dumps(_observer_state(observer), protocol=4),
            list(getattr(observer, "rows", ())),
        )
    scenario.close_window()
    # The run did real work in between: frames, tasks and topology ticks.
    monitor = scenario.sim.monitor
    assert monitor.counter_value("radio.frames_delivered") > 500
    assert monitor.counter_value("airdnd.tasks_completed") > 0
    return out


def test_monitor_grows_by_less_than_a_kilobyte(states):
    assert len(states[LATE][0]) - len(states[EARLY][0]) < 1024


def test_topology_state_grows_by_one_row_per_tick(states):
    ticks = round(LATE - EARLY)  # the observer ticks once per second
    rows_early, rows_late = states[EARLY][2], states[LATE][2]
    assert rows_early and rows_late[: len(rows_early)] == rows_early
    assert len(rows_late) - len(rows_early) <= ticks
    # Everything else the observer keeps (the latest snapshot, open links,
    # the lifetime sum) is sized by the 8-vehicle fleet.
    assert len(states[LATE][1]) - len(states[EARLY][1]) < 1024
