"""The discrete-event simulator.

A :class:`Simulator` owns the virtual clock, the event queue, the experiment's
random streams and the metric :class:`~repro.simcore.monitor.Monitor`.
Entities schedule callbacks on it
(one-shot with :meth:`Simulator.schedule`, or repeating with
:meth:`Simulator.schedule_periodic`) and a driver advances it either to
completion with :meth:`Simulator.run` or cooperatively, one bounded slice at
a time, with :meth:`Simulator.step` — the primitive the session engine in
:mod:`repro.service` multiplexes many simulations on.  ``run`` is a loop
over ``step``, so the two are byte-identical by construction.

Besides events, the loop counts *deferred arrivals*: keys ``(time, 0,
sequence)`` handed over in blocks with :meth:`Simulator.defer_arrivals`
(the radio medium's broadcast receptions).  An arrival has no callback; the
loop counts it at its place in key order, a run of them with one binary
search per block, so ``events_fired``, the ``max_events`` budget, the clock
at a slice end, ``queue_empty`` and :attr:`Simulator.pending_events` read
as if it were an event.  The producer applies an arrival once its key is at
or below :attr:`Simulator.last_key`, before anything reads the result, and
at the end of every step through an :meth:`Simulator.on_step_end` hook, so
code outside the loop sees applied state.  :meth:`Simulator.seal` forbids
scheduling, new ids and random draws while it does.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.simcore.event import Event, EventQueue
from repro.simcore.monitor import Monitor
from repro.simcore.rng import RandomStreams
from repro.telemetry.trace import current_tracer


class StopSimulation(Exception):
    """Raise from any event callback to stop the simulation immediately."""


@dataclass(frozen=True)
class StepOutcome:
    """What one :meth:`Simulator.step` slice accomplished and why it ended.

    A slice ends for exactly one *progress-blocking* reason — the queue ran
    dry, a callback requested a stop, the next event lies beyond ``until``
    — or because the ``max_events`` budget was spent with work remaining.
    :attr:`exhausted` distinguishes the two classes: an exhausted slice
    cannot make further progress within the same ``until`` bound, while a
    budget-limited slice can simply be called again.  Session schedulers
    lean on this to decide between "re-queue this session" and "its window
    is complete".
    """

    events_fired: int
    now: float
    queue_empty: bool
    stop_requested: bool
    reached_until: bool
    hit_event_budget: bool

    @property
    def exhausted(self) -> bool:
        """No further events can fire without raising ``until`` (or ever)."""
        return self.queue_empty or self.stop_requested or self.reached_until


#: The ``(time, priority, sequence)`` order key of an event or arrival.
Key = Tuple[float, int, int]


class _Sealed:
    """Stands in for the queue, the random streams and the id counters
    while :meth:`Simulator.seal` is in force: any use raises."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        raise RuntimeError(
            "sealed simulator: arrival handlers must not schedule events, "
            "transmit or draw randomness"
        )


_SEALED = _Sealed()


class _ArrivalBlock:
    """One producer batch of deferred arrivals, sorted by key.

    ``next`` indexes the first arrival the loop has not counted yet.  A
    pickled block holds only the uncounted rest, so its bytes do not depend
    on how the loop was sliced.
    """

    __slots__ = ("times", "sequences", "next")

    def __init__(self, times: List[float], sequences: List[int]) -> None:
        self.times = times
        self.sequences = sequences
        self.next = 0

    def __getstate__(self) -> tuple:
        return self.times[self.next:], self.sequences[self.next:]

    def __setstate__(self, state: tuple) -> None:
        self.times, self.sequences = state
        self.next = 0


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all random streams.
    start_time:
        Initial value of the virtual clock (seconds).

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> sim.run(until=5.0)
    >>> fired
    [2.0]
    """

    def __init__(self, seed: int = 0, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._queue = EventQueue()
        self.streams = RandomStreams(seed)
        self.monitor = Monitor()
        self._running = False
        self._entities: List[Any] = []
        self._stop_requested = False
        #: Next id of each kind handed out by :meth:`new_id`.
        self._next_ids: Dict[str, int] = {}
        #: Cumulative events fired over the simulator's lifetime (pure
        #: bookkeeping — deliberately not part of the snapshot state
        #: contract, though it travels with pickled simulators).
        self.events_fired = 0
        #: Heap of ``(head time, 0, head sequence, block)`` over the blocks
        #: of deferred arrivals not yet fully counted.
        self._arrivals: List[tuple] = []
        #: Deferred arrivals not yet counted, over all blocks.
        self._arrivals_pending = 0
        #: Key of the last event or arrival fired.
        self._last_key: Key = (float("-inf"), 0, 0)
        self._step_end_hooks: List[Callable[[], None]] = []

    def __getstate__(self) -> dict:
        # A sorted list is a valid heap, and sorting makes the bytes
        # independent of the push/pop history the slicing produced.
        state = self.__dict__.copy()
        state["_arrivals"] = sorted(self._arrivals)
        return state

    # ------------------------------------------------------------------ time

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events and deferred arrivals still waiting to fire (O(1))."""
        return self._queue.active_count() + self._arrivals_pending

    @property
    def last_key(self) -> Key:
        """``(time, priority, sequence)`` of the last event or arrival fired."""
        return self._last_key

    # ------------------------------------------------------------ scheduling

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        ``delay`` must be non-negative; scheduling into the past would break
        causality and raises ``ValueError``.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._queue.push(self._now + delay, callback, priority, name)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        return self._queue.push(time, callback, priority, name)

    def schedule_periodic(
        self,
        period: float,
        callback: Callable[[], Any],
        start_delay: Optional[float] = None,
        priority: int = 0,
        name: str = "",
        jitter: float = 0.0,
        rng_stream: str = "periodic-jitter",
    ) -> "PeriodicTask":
        """Schedule ``callback`` every ``period`` seconds until cancelled.

        ``jitter`` adds a uniform random offset in ``[0, jitter)`` to each
        firing, drawn from the ``rng_stream`` random stream — used to model
        unsynchronised (asynchronous) periodic behaviour such as beaconing.
        """
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        task = PeriodicTask(self, period, callback, priority, name, jitter, rng_stream)
        first_delay = period if start_delay is None else start_delay
        task.start(first_delay)
        return task

    # ------------------------------------------------------ deferred arrivals

    def defer_arrivals(self, times: List[float], sequences: List[int]) -> None:
        """Hand over arrivals keyed ``(times[i], 0, sequences[i])``.

        The lists must be sorted by key, non-empty, with sequence numbers
        taken from the queue's :meth:`~repro.simcore.event.EventQueue.reserve`
        and times not before :attr:`now`.  The loop counts each arrival as
        one fired event at its place in key order; applying its effects is
        the producer's job (see the module docstring).
        """
        block = _ArrivalBlock(times, sequences)
        heapq.heappush(self._arrivals, (times[0], 0, sequences[0], block))
        self._arrivals_pending += len(times)

    def on_step_end(self, hook: Callable[[], None]) -> None:
        """Call ``hook`` at the end of every :meth:`step`, after the loop."""
        self._step_end_hooks.append(hook)

    def seal(self) -> tuple:
        """Forbid scheduling, new ids and random draws; returns the token
        :meth:`unseal` takes to lift the seal.  Seals nest."""
        token = (self._queue, self.streams, self._next_ids)
        self._queue = self.streams = self._next_ids = _SEALED
        return token

    def unseal(self, token: tuple) -> None:
        """Lift the seal :meth:`seal` returned ``token`` for."""
        self._queue, self.streams, self._next_ids = token

    def _count_arrivals(
        self, event_entry: Optional[tuple], until: Optional[float], budget: Optional[int]
    ) -> int:
        """Fire the head block's arrivals that precede everything else.

        Counts the arrivals whose keys lie below both the next event's and
        the next other block's head, capped by ``until`` and ``budget``;
        returns how many fired (0 when the head lies beyond ``until``).
        """
        arrivals = self._arrivals
        block = arrivals[0][3]
        times = block.times
        sequences = block.sequences
        start = block.next
        end = len(times)
        bound = event_entry
        if len(arrivals) > 1:
            other = arrivals[1]
            if len(arrivals) > 2 and arrivals[2] < other:
                other = arrivals[2]
            if bound is None or other < bound:
                bound = other
        stop = end
        if bound is not None:
            bound_time, bound_priority, bound_sequence = bound[0], bound[1], bound[2]
            stop = bisect_left(times, bound_time, start)
            if bound_priority > 0:
                stop = bisect_right(times, bound_time, stop)
            elif bound_priority == 0:
                while (
                    stop < end
                    and times[stop] == bound_time
                    and sequences[stop] < bound_sequence
                ):
                    stop += 1
        if until is not None:
            stop = min(stop, bisect_right(times, until, start))
        if budget is not None:
            stop = min(stop, start + budget)
        if stop == start:
            return 0
        last = stop - 1
        self._now = times[last]
        self._last_key = (times[last], 0, sequences[last])
        if stop == end:
            heapq.heappop(arrivals)
        else:
            block.next = stop
            heapq.heapreplace(arrivals, (times[stop], 0, sequences[stop], block))
        self._arrivals_pending -= stop - start
        return stop - start

    # --------------------------------------------------------------- running

    def step(
        self,
        max_events: Optional[int] = None,
        until: Optional[float] = None,
    ) -> StepOutcome:
        """Fire a bounded slice of the event loop and report why it ended.

        This is *the* run-loop implementation — :meth:`run` is a thin loop
        over it, so the two are byte-identical by construction.  A slice
        fires events (and counts deferred arrivals) in deterministic
        ``(time, priority, sequence)`` order until the queue is empty, a
        callback raises
        :class:`StopSimulation`, the next event lies beyond ``until``, or
        ``max_events`` have fired, and returns a :class:`StepOutcome`
        naming the reason.  The clock is **not** advanced past the last
        fired event (see :meth:`advance_clock` for the window-end
        convention :meth:`run` applies).

        A simulator whose stop flag is set fires nothing until
        :meth:`clear_stop`; cooperative drivers treat that as "this
        session is done", not as an error.  The :meth:`on_step_end` hooks
        run after the loop, so every fired arrival is applied when the
        slice returns.
        """
        fired = 0
        reached_until = False
        hit_budget = max_events is not None and max_events <= 0
        queue = self._queue
        arrivals = self._arrivals
        # Telemetry is a pure observer: one global read when disabled, and
        # when enabled it only brackets the slice — no RNG, no scheduling.
        tracer = current_tracer()
        trace_start = tracer.clock() if tracer is not None else 0.0
        self._running = True
        try:
            while not self._stop_requested and not hit_budget:
                entry = queue.peek()
                if arrivals and (entry is None or arrivals[0] < entry):
                    counted = self._count_arrivals(
                        entry, until, None if max_events is None else max_events - fired
                    )
                    if not counted:
                        reached_until = True
                        break
                    fired += counted
                    if max_events is not None and fired >= max_events:
                        hit_budget = True
                    continue
                if entry is None:
                    break
                if until is not None and entry[0] > until:
                    reached_until = True
                    break
                event = queue.pop()
                self._now = event.time
                self._last_key = (event.time, event.priority, event.sequence)
                if event.callback is not None:
                    try:
                        event.callback()
                    except StopSimulation:
                        self._stop_requested = True
                fired += 1
                if max_events is not None and fired >= max_events:
                    hit_budget = True
        finally:
            self._running = False
        for hook in self._step_end_hooks:
            hook()
        self.events_fired += fired
        if tracer is not None:
            tracer.span(
                "dispatch_batch", "sim", trace_start,
                sim_time=self._now,
                args={
                    "events_fired": fired,
                    "pending": self.pending_events,
                    "hit_event_budget": hit_budget,
                },
            )
        return StepOutcome(
            events_fired=fired,
            now=self._now,
            queue_empty=queue.peek_time() is None and not arrivals,
            stop_requested=self._stop_requested,
            reached_until=reached_until,
            hit_event_budget=hit_budget,
        )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop to completion of the window.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  The clock is advanced
            to ``until`` even if no event fires exactly there.
        max_events:
            Safety valve — stop after this many events.

        Returns
        -------
        int
            The number of events that fired.
        """
        self.clear_stop()
        fired = 0
        while True:
            remaining = None if max_events is None else max_events - fired
            outcome = self.step(max_events=remaining, until=until)
            fired += outcome.events_fired
            if outcome.exhausted or outcome.hit_event_budget:
                break
        self.advance_clock(until)
        return fired

    def advance_clock(self, until: Optional[float]) -> None:
        """Advance the idle clock to ``until`` (the window-end convention).

        Event processing never moves the clock past the last fired event;
        a run *window*, however, ends at its requested time even when no
        event fires exactly there.  No-op when ``until`` is ``None``,
        already reached, or a stop was requested (a stopped run keeps the
        clock where it halted — that is what the ``stopped_early`` report
        accounting observes).
        """
        if until is None or self._stop_requested:
            return
        if self._now < until:
            self._now = until

    def stop(self) -> None:
        """Request the event loop to stop after the current event."""
        self._stop_requested = True

    def clear_stop(self) -> None:
        """Re-arm a simulator whose stop flag was set (new run window)."""
        self._stop_requested = False

    @property
    def stop_requested(self) -> bool:
        """Whether a stop has been requested and not yet cleared."""
        return self._stop_requested

    # -------------------------------------------------------------------- ids

    def new_id(self, kind: str) -> int:
        """The next id of ``kind`` ("frame", "task", ...), counting from 0.

        Each simulation numbers its own frames, messages, tasks and so on,
        so ids never depend on what else ran in the process, and the
        numbering travels with a snapshot like any other state.
        """
        value = self._next_ids.get(kind, 0)
        self._next_ids[kind] = value + 1
        return value

    # -------------------------------------------------------------- entities

    def register_entity(self, entity: Any) -> None:
        """Track an entity so experiments can enumerate simulation members."""
        self._entities.append(entity)

    @property
    def entities(self) -> List[Any]:
        """All registered entities, in registration order."""
        return list(self._entities)


class PeriodicTask:
    """A repeating scheduled callback created by ``schedule_periodic``."""

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], Any],
        priority: int,
        name: str,
        jitter: float,
        rng_stream: str,
    ) -> None:
        self._sim = sim
        self._period = period
        self._callback = callback
        self._priority = priority
        self._name = name
        self._jitter = jitter
        self._rng_stream = rng_stream
        self._event: Optional[Event] = None
        self._cancelled = False
        self.fire_count = 0

    @property
    def cancelled(self) -> bool:
        """Whether the task has been stopped."""
        return self._cancelled

    @property
    def period(self) -> float:
        """Seconds between firings (before jitter)."""
        return self._period

    def start(self, delay: float) -> None:
        """Arm the first firing ``delay`` seconds from now."""
        self._event = self._sim.schedule(
            delay, self._fire, self._priority, self._name
        )

    def cancel(self) -> None:
        """Stop future firings."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._callback()
        if self._cancelled:
            return
        delay = self._period
        if self._jitter > 0:
            rng = self._sim.streams.get(self._rng_stream)
            delay += float(rng.uniform(0.0, self._jitter))
        self._event = self._sim.schedule(
            delay, self._fire, self._priority, self._name
        )
