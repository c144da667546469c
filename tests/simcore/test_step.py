"""The incremental stepping primitive: Simulator.step / StepOutcome.

``run()`` is required to be a thin loop over ``step()`` — the single
run-loop guarantee the session engine's byte-identity rests on — so these
tests pin the slice semantics (budgets, ``until`` bounds, stop flags,
clock conventions) and assert the loop really is implemented only once.
"""

import inspect

import pytest

from repro.simcore import Simulator, StepOutcome, StopSimulation


def _spaced_events(sim, times):
    fired = []
    for t in times:
        sim.schedule_at(t, lambda t=t: fired.append(t))
    return fired


def test_step_fires_bounded_slice_and_reports_budget():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [1.0, 2.0, 3.0, 4.0])
    outcome = sim.step(max_events=2)
    assert fired == [1.0, 2.0]
    assert outcome.events_fired == 2
    assert outcome.now == 2.0
    assert outcome.hit_event_budget
    assert not outcome.exhausted
    assert not outcome.queue_empty


def test_step_runs_queue_dry_without_budget():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [1.0, 2.0])
    outcome = sim.step()
    assert fired == [1.0, 2.0]
    assert outcome.queue_empty
    assert outcome.exhausted
    assert not outcome.hit_event_budget


def test_step_respects_until_and_does_not_advance_idle_clock():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [1.0, 5.0])
    outcome = sim.step(until=3.0)
    assert fired == [1.0]
    assert outcome.reached_until
    assert outcome.exhausted
    # The clock stays at the last fired event; only run()'s window-end
    # convention (advance_clock) moves an idle clock.
    assert sim.now == 1.0
    sim.advance_clock(3.0)
    assert sim.now == 3.0


def test_step_zero_budget_fires_nothing():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [1.0])
    outcome = sim.step(max_events=0)
    assert fired == []
    assert outcome.events_fired == 0
    assert outcome.hit_event_budget
    assert sim.now == 0.0


def test_stop_simulation_sets_flag_and_blocks_further_slices():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [2.0, 3.0])

    def stopper():
        raise StopSimulation

    sim.schedule_at(1.0, stopper)
    outcome = sim.step()
    assert outcome.stop_requested
    assert outcome.exhausted
    assert fired == []
    assert sim.stop_requested
    # A stopped simulator fires nothing until re-armed.
    again = sim.step()
    assert again.events_fired == 0
    sim.clear_stop()
    resumed = sim.step()
    assert fired == [2.0, 3.0]
    assert resumed.events_fired == 2


def test_stopped_clock_is_not_advanced_by_advance_clock():
    sim = Simulator(seed=1)

    def stopper():
        raise StopSimulation

    sim.schedule_at(1.0, stopper)
    sim.step(until=5.0)
    sim.advance_clock(5.0)
    assert sim.now == 1.0


def test_run_equals_manual_stepping():
    times = [0.5, 1.0, 1.5, 2.5, 4.0]

    whole = Simulator(seed=3)
    fired_whole = _spaced_events(whole, times)
    count = whole.run(until=5.0)

    sliced = Simulator(seed=3)
    fired_sliced = _spaced_events(sliced, times)
    sliced_count = 0
    while True:
        outcome = sliced.step(max_events=2, until=5.0)
        sliced_count += outcome.events_fired
        if outcome.exhausted:
            break
    sliced.advance_clock(5.0)

    assert fired_sliced == fired_whole
    assert sliced_count == count == len(times)
    assert sliced.now == whole.now == 5.0


def test_run_resets_stop_flag_per_window():
    sim = Simulator(seed=1)

    def stopper():
        raise StopSimulation

    sim.schedule_at(1.0, stopper)
    fired = _spaced_events(sim, [2.0])
    sim.run(until=3.0)
    assert sim.now == 1.0  # stopped run keeps the clock where it halted
    # A new run window re-arms the loop (the historical contract).
    sim.run(until=3.0)
    assert fired == [2.0]
    assert sim.now == 3.0


def test_run_max_events_budget():
    sim = Simulator(seed=1)
    fired = _spaced_events(sim, [1.0, 2.0, 3.0])
    count = sim.run(max_events=2)
    assert count == 2
    assert fired == [1.0, 2.0]


def test_events_fired_counter_accumulates_across_windows():
    sim = Simulator(seed=1)
    _spaced_events(sim, [1.0, 2.0, 3.0])
    sim.run(until=2.0)
    assert sim.events_fired == 2
    sim.run(until=4.0)
    assert sim.events_fired == 3


def test_step_outcome_exhausted_classification():
    empty = StepOutcome(0, 0.0, True, False, False, False)
    stopped = StepOutcome(0, 0.0, False, True, False, False)
    bounded = StepOutcome(0, 0.0, False, False, True, False)
    budget = StepOutcome(5, 0.0, False, False, False, True)
    assert empty.exhausted and stopped.exhausted and bounded.exhausted
    assert not budget.exhausted


def test_run_is_a_loop_over_step_not_a_second_event_loop():
    """Deprecation hygiene: exactly one run-loop implementation exists.

    ``step`` owns the pop-and-fire loop; ``run`` must compose it (plus the
    window-end clock convention) and never touch the queue directly.
    """
    run_source = inspect.getsource(Simulator.run)
    step_source = inspect.getsource(Simulator.step)
    assert ".step(" in run_source
    assert "advance_clock" in run_source
    for queue_primitive in ("pop", "peek_time", "_queue"):
        assert queue_primitive not in run_source
        assert queue_primitive in step_source


def _events_and_arrivals(deferred):
    """Events at priorities -1/0/1 and two arrival blocks on shared instants.

    With ``deferred`` the arrivals go to :meth:`Simulator.defer_arrivals`
    under reserved sequence numbers; otherwise each is a priority-0 event,
    pushed in block order, so it takes the same number.
    """
    sim = Simulator(seed=1)
    for time, priority in [(1.0, 0), (1.0, -1), (1.0, 1), (2.0, 0)]:
        sim.schedule_at(time, lambda: None, priority=priority)
    for times in ([1.0, 1.0, 2.5], [0.5, 1.0, 2.0, 2.0, 3.0]):
        if deferred:
            first = sim._queue.reserve(len(times))
            sim.defer_arrivals(times, list(range(first, first + len(times))))
        else:
            for time in times:
                sim.schedule_at(time, lambda: None)
    for time, priority in [(1.0, 0), (2.0, -1), (2.5, 1), (3.0, 0)]:
        sim.schedule_at(time, lambda: None, priority=priority)
    return sim


@pytest.mark.parametrize("budget", [1, 2, 5, None])
def test_deferred_arrivals_count_like_the_events_they_replace(budget):
    traces = []
    for deferred in (True, False):
        sim = _events_and_arrivals(deferred)
        trace = [sim.pending_events]
        for until in (2.0, None):
            while True:
                outcome = sim.step(max_events=budget, until=until)
                trace.append((outcome, sim.last_key, sim.pending_events))
                if outcome.exhausted:
                    break
        traces.append(trace)
    assert traces[0] == traces[1]
    assert traces[0][0] == 16 and traces[0][-1][2] == 0


def test_step_end_hooks_run_after_every_slice():
    sim = Simulator(seed=1)
    _spaced_events(sim, [1.0, 2.0, 3.0])
    seen = []
    sim.on_step_end(lambda: seen.append(sim.last_key[0]))
    sim.step(max_events=2)
    sim.step()
    assert seen == [2.0, 3.0]


def test_sealed_simulator_refuses_scheduling_ids_and_draws():
    sim = Simulator(seed=1)
    token = sim.seal()
    for action in (
        lambda: sim.schedule(1.0, lambda: None),
        lambda: sim.new_id("frame"),
        lambda: sim.streams.get("radio"),
    ):
        with pytest.raises(RuntimeError, match="sealed"):
            action()
    sim.unseal(token)
    sim.schedule(1.0, lambda: None)
    assert sim.new_id("frame") == 0
