"""Tests for the discrete-event simulator."""

import pickle

import pytest

from repro.simcore.simulator import Simulator, StopSimulation


def test_schedule_and_run_until():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append(sim.now))
    sim.schedule(7.0, lambda: fired.append(sim.now))
    sim.run(until=5.0)
    assert fired == [2.0]
    assert sim.now == 5.0


def test_run_continues_from_previous_time():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("a"))
    sim.schedule(8.0, lambda: fired.append("b"))
    sim.run(until=5.0)
    sim.run(until=10.0)
    assert fired == ["a", "b"]
    assert sim.now == 10.0


def test_schedule_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.schedule_at(2.0, lambda: None)


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    fired = []

    def chain():
        fired.append(sim.now)
        if len(fired) < 3:
            sim.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run(until=10.0)
    assert fired == [1.0, 2.0, 3.0]


def test_stop_simulation_exception_halts_loop():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        raise StopSimulation()

    sim.schedule(1.0, stopper)
    sim.schedule(2.0, lambda: fired.append("after"))
    sim.run(until=10.0)
    assert fired == ["stop"]


def test_max_events_limit():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda: None)
    fired = sim.run(until=100.0, max_events=4)
    assert fired == 4


def test_periodic_task_fires_and_cancels():
    sim = Simulator()
    count = []
    task = sim.schedule_periodic(1.0, lambda: count.append(sim.now))
    sim.run(until=3.5)
    assert count == [1.0, 2.0, 3.0]
    task.cancel()
    sim.run(until=10.0)
    assert len(count) == 3
    assert task.cancelled


def test_periodic_task_with_start_delay():
    sim = Simulator()
    count = []
    sim.schedule_periodic(2.0, lambda: count.append(sim.now), start_delay=0.5)
    sim.run(until=5.0)
    assert count == [0.5, 2.5, 4.5]


def test_periodic_jitter_changes_spacing_but_keeps_order():
    sim = Simulator(seed=7)
    times = []
    sim.schedule_periodic(1.0, lambda: times.append(sim.now), jitter=0.5)
    sim.run(until=10.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(1.0 <= gap <= 1.5 + 1e-9 for gap in gaps)
    assert len(times) >= 6


def test_register_entity_enumerates():
    sim = Simulator()

    class Dummy:
        pass

    entity = Dummy()
    sim.register_entity(entity)
    assert entity in sim.entities


def test_determinism_same_seed_same_trace():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []
        rng = sim.streams.get("test")
        sim.schedule_periodic(0.5, lambda: values.append(float(rng.random())))
        sim.run(until=5.0)
        return values

    assert run(3) == run(3)
    assert run(3) != run(4)


def test_new_id_numbers_each_kind_per_simulation():
    sim = Simulator()
    assert [sim.new_id("frame") for _ in range(3)] == [0, 1, 2]
    assert sim.new_id("task") == 0
    # Another simulation starts its own numbering, whatever ran before.
    assert Simulator().new_id("frame") == 0
    assert sim._next_ids == {"frame": 3, "task": 1}
    restored = pickle.loads(pickle.dumps(sim))
    assert restored.new_id("frame") == sim.new_id("frame") == 3
