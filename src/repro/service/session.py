"""One live simulation owned by the service: a steppable session.

A :class:`SimulationSession` wraps a scenario and drives it exclusively
through the window primitives (`open_window` / `advance` / `close_window`),
never through the blocking ``run()`` — which is what makes a session
pausable, interleavable with other sessions, and evictable to disk without
perturbing a single event: the delivered-frame sequence and final report of
a stepped session are byte-identical to a run-to-completion call on the
same scenario (asserted by benchmark E17 and the interleaving property
suite).

Lifecycle state machine (see ``docs/SERVICE.md``)::

    created ──start──▶ running ◀──resume──┐
                         │ ▲              │
                         │ └──────pause──▶│ paused ──evict──▶ evicted
                         │                │   ▲                  │
                         ▼                │   └─────restore──────┘
                      finished ◀──────────┘
                      (a step that raises moves running/paused ──▶ failed,
                       a terminal state the scheduler skips)

Stepping is allowed in ``running`` *and* ``paused``: the registry's
scheduler only auto-advances ``running`` sessions, while a paused session
can still be stepped manually, slice by slice, for precise control.
Everything here is framework-free and stdlib-only; the HTTP/WebSocket
facade in :mod:`repro.service.app` is just one client of it.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, Optional

from repro.scenarios.base import Scenario, ScenarioReport
from repro.service.bus import SubscriberBus
from repro.simcore.simulator import StepOutcome

#: Default event budget of one scheduler slice.  Small enough that no
#: session holds the cooperative scheduler for long, large enough that the
#: per-slice bookkeeping is noise (benchmark E17 gates the overhead).
DEFAULT_STEP_SLICE = 2000


class SessionError(RuntimeError):
    """Base class for session-layer failures."""


class SessionStateError(SessionError):
    """An operation was attempted in a state that does not allow it."""


class SessionState(str, enum.Enum):
    """Where a session is in its lifecycle."""

    CREATED = "created"
    RUNNING = "running"
    PAUSED = "paused"
    FINISHED = "finished"
    EVICTED = "evicted"
    #: Terminal: a step raised.  The broken scenario is dropped so one bad
    #: session cannot wedge the scheduler or leak its object graph.
    FAILED = "failed"


class SimulationSession:
    """A scenario plus the lifecycle state machine the service multiplexes.

    Parameters
    ----------
    session_id:
        The registry-assigned identifier (used in event payloads and URLs).
    scenario:
        A built (not yet run) scenario, or a restored mid-run one.
    duration:
        Virtual seconds the session's run window spans.
    fault_horizon:
        Optional fault-timeline horizon forwarded to ``open_window``.
    step_slice:
        Default ``max_events`` budget of one :meth:`step` slice.
    bus:
        The event bus ticks/state changes/reports are published on (a fresh
        one when omitted).
    """

    def __init__(
        self,
        session_id: str,
        scenario: Scenario,
        *,
        duration: float = 20.0,
        fault_horizon: Optional[float] = None,
        step_slice: int = DEFAULT_STEP_SLICE,
        bus: Optional[SubscriberBus] = None,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        if step_slice <= 0:
            raise ValueError("step_slice must be positive")
        self.id = session_id
        self.scenario: Optional[Scenario] = scenario
        self.duration = float(duration)
        self.fault_horizon = None if fault_horizon is None else float(fault_horizon)
        self.step_slice = int(step_slice)
        self.bus = bus if bus is not None else SubscriberBus()
        self.state = SessionState.CREATED
        #: Step slices taken so far.
        self.ticks = 0
        #: Events fired across all slices.
        self.events_fired = 0
        #: The final report, set when the window completes.
        self.report: Optional[ScenarioReport] = None
        #: Human-readable failure cause, set on transition to ``failed``.
        self.error: Optional[str] = None
        self.scenario_name = scenario.name
        self.node_count = len(scenario.nodes)
        self._topology_seen = self._topology_count()
        self._snapshot_blob: Optional[bytes] = None
        self._snapshot_path: Optional[str] = None
        self._last_now = scenario.sim.now
        self._window_end: Optional[float] = None

    # ------------------------------------------------------------ lifecycle

    def _require(self, *states: SessionState) -> None:
        if self.state not in states:
            allowed = "/".join(s.value for s in states)
            raise SessionStateError(
                f"session {self.id!r} is {self.state.value}; "
                f"this operation needs {allowed}"
            )

    def _transition(self, to: SessionState) -> None:
        previous = self.state
        self.state = to
        self.bus.publish(
            {
                "type": "state",
                "session": self.id,
                "from": previous.value,
                "to": to.value,
            }
        )

    def start(self) -> None:
        """Open the run window: ``created`` → ``running``."""
        self._require(SessionState.CREATED)
        assert self.scenario is not None
        self._window_end = self.scenario.open_window(
            self.duration, fault_horizon=self.fault_horizon
        )
        self._transition(SessionState.RUNNING)

    def pause(self) -> None:
        """``running`` → ``paused``; the scheduler stops auto-advancing."""
        self._require(SessionState.RUNNING)
        self._transition(SessionState.PAUSED)

    def resume(self) -> None:
        """``paused`` → ``running``; the scheduler picks it back up."""
        self._require(SessionState.PAUSED)
        self._transition(SessionState.RUNNING)

    def fail(self, error: BaseException | str) -> None:
        """``running``/``paused`` → ``failed`` (terminal).

        Records the cause, publishes an ``error`` event so subscribers
        learn why their ticks stopped, and drops the broken scenario —
        its event queue is in an unknown state, so nothing else (snapshot,
        interim report, further steps) may touch it.
        """
        self._require(SessionState.RUNNING, SessionState.PAUSED)
        if isinstance(error, BaseException):
            error = f"{type(error).__name__}: {error}"
        self.error = error
        self._last_now = self._current_now()
        self.scenario = None
        self._transition(SessionState.FAILED)
        self.bus.publish(
            {"type": "error", "session": self.id, "error": error}
        )

    # ------------------------------------------------------------- stepping

    def step(self, max_events: Optional[int] = None) -> StepOutcome:
        """Advance the window by one bounded slice and publish a tick.

        Allowed while ``running`` (the scheduler's path) or ``paused``
        (manual single-stepping).  When the slice completes the window the
        session closes it, stores the report, publishes it, and
        transitions to ``finished``.
        """
        self._require(SessionState.RUNNING, SessionState.PAUSED)
        assert self.scenario is not None
        budget = self.step_slice if max_events is None else int(max_events)
        outcome = self.scenario.advance(max_events=budget)
        self.ticks += 1
        self.events_fired += outcome.events_fired
        self._last_now = outcome.now
        self.bus.publish(self._tick_event(outcome))
        self._publish_topology()
        if outcome.exhausted:
            self._finish()
        return outcome

    def fast_forward(self) -> ScenarioReport:
        """Drive the window to completion synchronously; returns the report.

        Auto-starts a ``created`` session.  Still sliced internally, so
        subscribers see the same tick stream a scheduler-driven session
        produces.
        """
        if self.state is SessionState.CREATED:
            self.start()
        self._require(SessionState.RUNNING, SessionState.PAUSED)
        while self.state in (SessionState.RUNNING, SessionState.PAUSED):
            self.step()
        assert self.report is not None
        return self.report

    def _finish(self) -> None:
        assert self.scenario is not None
        self.report = self.scenario.close_window()
        self._transition(SessionState.FINISHED)
        self.bus.publish(
            {
                "type": "report",
                "session": self.id,
                "report": self.report.as_dict(),
            }
        )

    # ------------------------------------------------------- evict / restore

    def snapshot(self, path: Optional[str] = None) -> bytes:
        """Snapshot the live scenario (mid-window snapshots resume cleanly)."""
        self._require(
            SessionState.RUNNING, SessionState.PAUSED, SessionState.FINISHED
        )
        assert self.scenario is not None
        return self.scenario.snapshot(path)

    def evict(self, path: Optional[str] = None) -> None:
        """``paused`` → ``evicted``: snapshot the scenario and drop it.

        The artifact is written to ``path`` when given, otherwise kept
        in memory.  Either way the scenario object graph — by far the
        session's memory footprint — is released.
        """
        self._require(SessionState.PAUSED)
        assert self.scenario is not None
        blob = self.scenario.snapshot(path)
        if path is not None:
            self._snapshot_path = path
            self._snapshot_blob = None
        else:
            self._snapshot_blob = blob
        self.scenario = None
        self._transition(SessionState.EVICTED)

    def restore(self) -> None:
        """``evicted`` → ``paused``: rebuild the scenario from its snapshot.

        Event processing continues exactly where eviction stopped it — the
        determinism contract of :mod:`repro.snapshot` makes the
        evict/restore round trip byte-invisible (gated by benchmark E17).
        """
        self._require(SessionState.EVICTED)
        source = (
            self._snapshot_blob
            if self._snapshot_blob is not None
            else self._snapshot_path
        )
        if source is None:  # pragma: no cover - evict() always records one
            raise SessionError(f"session {self.id!r} has no eviction artifact")
        self.scenario = Scenario.restore(source)
        self._snapshot_blob = None
        self._snapshot_path = None
        self._transition(SessionState.PAUSED)

    # --------------------------------------------------------------- status

    def status(self) -> Dict[str, Any]:
        """JSON-ready summary of the session (cheap; no lifecycle scan)."""
        now = self._current_now()
        window_end = self._window_end
        progress = None
        if window_end is not None and self.duration > 0:
            start = window_end - self.duration
            progress = min(1.0, max(0.0, (now - start) / self.duration))
        return {
            "id": self.id,
            "state": self.state.value,
            "scenario": self.scenario_name,
            "node_count": self.node_count,
            "duration": self.duration,
            "now": now,
            "window_end": window_end,
            "progress": progress,
            "ticks": self.ticks,
            "events_fired": self.events_fired,
            "subscribers": self.bus.subscriber_count,
            "error": self.error,
        }

    def interim_report(self) -> Dict[str, float]:
        """A full report dict of the session *so far* (scans lifecycles)."""
        if self.report is not None:
            return self.report.as_dict()
        self._require(
            SessionState.CREATED, SessionState.RUNNING, SessionState.PAUSED
        )
        assert self.scenario is not None
        return self.scenario.build_report().as_dict()

    # -------------------------------------------------------------- helpers

    def _current_now(self) -> float:
        if self.scenario is not None:
            return self.scenario.sim.now
        return self._last_now

    def _tick_event(self, outcome: StepOutcome) -> Dict[str, Any]:
        assert self.scenario is not None
        return {
            "type": "tick",
            "session": self.id,
            "now": outcome.now,
            "events_fired": outcome.events_fired,
            "total_events": self.events_fired,
            "pending_events": self.scenario.sim.pending_events,
            "tick": self.ticks,
        }

    def _topology_count(self) -> int:
        observer = getattr(self.scenario, "topology", None)
        if observer is None:
            return 0
        return len(observer.rows)

    def _publish_topology(self) -> None:
        """Emit one event per topology tick taken since the last slice."""
        observer = getattr(self.scenario, "topology", None)
        if observer is None:
            return
        rows = observer.rows
        for time, nodes, edges, largest in rows[self._topology_seen:]:
            self.bus.publish(
                {
                    "type": "topology",
                    "session": self.id,
                    "time": time,
                    "nodes": nodes,
                    "edges": edges,
                    "largest_component": largest,
                }
            )
        self._topology_seen = len(rows)
