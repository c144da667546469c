"""The live side of fault injection: applying a schedule to a simulation.

A :class:`FaultInjector` owns the runtime effects of an expanded
:class:`~repro.faults.schedule.FaultSchedule`:

* **crash / recover** — delegates to
  :meth:`~repro.core.api.AirDnDNode.crash` /
  :meth:`~repro.core.api.AirDnDNode.recover`, plus the pieces the node
  cannot reach itself: pulling the mobile out of (and back into) the
  mobility manager's substrate and suspending/resuming the node as a
  workload origin (the node's adversary profile survives: recovery restarts
  its mesh stack in place, with the profile's beacon hook carried over);
* **radio degradation** — a stack of active noise-figure bumps pushed onto
  the environment's link budget (``noise_penalty_db``), flushed through the
  per-epoch link caches via ``notify_positions_changed``;
* **message-loss bursts** — a stack of active extra-drop probabilities
  combined independently into ``extra_loss_probability``;
* **adversaries** — seeded profile assignment applied once at install time.

The injector is deliberately passive when idle: constructing it, or arming a
null schedule, draws no randomness and schedules no events, so the simulation
stays byte-identical to one with no injector at all (benchmark E14).
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.faults.adversary import apply_profile
from repro.faults.schedule import (
    CRASH,
    LOSS_END,
    LOSS_START,
    RADIO_DEGRADE,
    RADIO_RESTORE,
    RECOVER,
    FaultEvent,
    FaultSchedule,
)
from repro.simcore.simulator import Simulator


class FaultInjector:
    """Applies fault events to a live fleet of AirDnD nodes.

    Parameters
    ----------
    sim:
        The simulator fault events are scheduled on.
    nodes:
        The :class:`~repro.core.api.AirDnDNode` s faults may target.
    environment:
        The shared radio environment (needed for degradation and loss
        bursts; crash/recover work without it).
    mobility:
        Optional :class:`~repro.mobility.manager.MobilityManager`; when
        given, crashed nodes are removed from (and recovered nodes returned
        to) its substrate.
    workload:
        Optional workload exposing ``suspend_node`` / ``resume_node`` (as
        :class:`~repro.scenarios.workloads.GenericComputeWorkload` does), so
        crashed nodes stop originating tasks.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Any],
        environment: Optional[Any] = None,
        mobility: Optional[Any] = None,
        workload: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self._nodes: Dict[str, Any] = {node.name: node for node in nodes}
        self.environment = environment
        self.mobility = mobility
        self.workload = workload
        self._created_at = sim.now
        self._assignment: Dict[str, str] = {}
        #: Per-crash downtime bookkeeping for the availability metric.
        self._down_since: Dict[str, float] = {}
        self._downtime_total = 0.0
        #: ``(arrival time, sequence, delay)`` of each recovery's first
        #: regained neighbour, sorted.
        self._rejoins: List[Tuple[float, int, float]] = []
        self._await_rejoin: Dict[str, float] = {}
        #: Active burst stacks (overlapping bursts are legal).
        self._noise_stack: List[float] = []
        self._loss_stack: List[float] = []
        # Counters (exported by report_extra).
        self.crashes_injected = 0
        self.recoveries_injected = 0
        self.degradation_bursts = 0
        self.loss_bursts = 0

    @property
    def rejoin_delays(self) -> List[float]:
        """Seconds from each recovery to the node's first regained
        neighbour, in the order those arrivals fired."""
        return [delay for _, _, delay in self._rejoins]

    # ---------------------------------------------------------- adversaries

    @property
    def malicious_names(self) -> List[str]:
        """Names of the nodes carrying an adversary profile (sorted)."""
        return sorted(self._assignment)

    def assign_adversaries(self, assignment: Mapping[str, str]) -> None:
        """Apply ``node name → profile name`` once, for the rest of the run.

        Unknown node names are rejected: a silent skip would make a sweep
        with a typo'd fleet report an honest fleet as attacked.
        """
        for name, profile_name in assignment.items():
            node = self._nodes.get(name)
            if node is None:
                raise ValueError(f"cannot make unknown node {name!r} malicious")
            apply_profile(node, profile_name)
            self._assignment[name] = profile_name

    # -------------------------------------------------------------- arming

    def arm(
        self,
        schedule: FaultSchedule,
        start: Optional[float] = None,
        duration: float = 0.0,
    ) -> int:
        """Expand ``schedule`` over ``[start, start+duration)`` and schedule it.

        Returns the number of events armed.  With a null schedule this is 0
        and the simulation is left completely untouched.  May be called once
        per ``run()`` window; windows expand independently.
        """
        if start is None:
            start = self.sim.now
        if schedule.knobs.is_null:
            return 0
        events = schedule.timeline(sorted(self._nodes), start, duration)
        for event in events:
            # Events never land before the window start by construction;
            # guard against float dust anyway.
            self.sim.schedule_at(
                max(event.time, self.sim.now),
                _EventFiring(self, event),
                name=f"fault:{event.kind}",
            )
        return len(events)

    # ------------------------------------------------------------- dispatch

    def _fire(self, event: FaultEvent) -> None:
        if event.kind == CRASH:
            self.crash(event.node)
        elif event.kind == RECOVER:
            self.recover(event.node)
        elif event.kind == RADIO_DEGRADE:
            self._radio_degrade(event.magnitude)
        elif event.kind == RADIO_RESTORE:
            self._radio_restore(event.magnitude)
        elif event.kind == LOSS_START:
            self._loss_start(event.magnitude)
        elif event.kind == LOSS_END:
            self._loss_end(event.magnitude)
        else:  # pragma: no cover - schedules only emit known kinds
            raise ValueError(f"unknown fault event kind {event.kind!r}")

    # ------------------------------------------------------- crash / recover

    def crash(self, name: str) -> bool:
        """Crash node ``name`` now; returns whether a crash happened.

        No-op (``False``) when the node is already down — consecutive arm
        windows can legitimately overlap a long downtime.
        """
        node = self._nodes[name]
        if node.crashed:
            return False
        node.crash()
        if self.mobility is not None and self.mobility.has_node(name):
            self.mobility.remove_node(name)
        if self.workload is not None:
            self.workload.suspend_node(node)
        self._down_since[name] = self.sim.now
        self._await_rejoin.pop(name, None)
        self.crashes_injected += 1
        self.sim.monitor.counter("faults.crashes").add()
        return True

    def recover(self, name: str) -> bool:
        """Recover node ``name`` now; returns whether a recovery happened."""
        node = self._nodes[name]
        if not node.crashed:
            return False
        if self.mobility is not None and not self.mobility.has_node(name):
            self.mobility.add_node(node.mobile)
        node.recover()
        if self.workload is not None:
            self.workload.resume_node(node)
        down_since = self._down_since.pop(name, None)
        if down_since is not None:
            self._downtime_total += self.sim.now - down_since
        self._watch_rejoin(node)
        self.recoveries_injected += 1
        self.sim.monitor.counter("faults.recoveries").add()
        return True

    def _watch_rejoin(self, node: Any) -> None:
        """Measure recovery → first regained neighbour on the fresh stack."""
        recovered_at = self.sim.now
        self._await_rejoin[node.name] = recovered_at
        node.mesh.beacon_agent.on_neighbor_up(
            _RejoinWatch(self, node.name, recovered_at)
        )

    # ----------------------------------------------------- radio degradation

    def _flush_radio_caches(self) -> None:
        """Make a changed physical layer visible despite per-epoch caches."""
        if self.environment is not None:
            self.environment.notify_positions_changed()

    def _radio_degrade(self, db: float) -> None:
        if self.environment is None:
            return
        self._noise_stack.append(db)
        self.environment.link_budget.noise_penalty_db = math.fsum(self._noise_stack)
        self.degradation_bursts += 1
        self.sim.monitor.counter("faults.degradation_bursts").add()
        self._flush_radio_caches()

    def _radio_restore(self, db: float) -> None:
        if self.environment is None:
            return
        if db in self._noise_stack:
            self._noise_stack.remove(db)
        self.environment.link_budget.noise_penalty_db = (
            math.fsum(self._noise_stack) if self._noise_stack else 0.0
        )
        self._flush_radio_caches()

    # ----------------------------------------------------------- loss bursts

    def _combined_loss(self) -> float:
        survive = 1.0
        for probability in self._loss_stack:
            survive *= 1.0 - probability
        return 1.0 - survive

    def _loss_start(self, probability: float) -> None:
        if self.environment is None:
            return
        self._loss_stack.append(probability)
        self.environment.extra_loss_probability = self._combined_loss()
        self.loss_bursts += 1
        self.sim.monitor.counter("faults.loss_bursts").add()

    def _loss_end(self, probability: float) -> None:
        if self.environment is None:
            return
        if probability in self._loss_stack:
            self._loss_stack.remove(probability)
        self.environment.extra_loss_probability = (
            self._combined_loss() if self._loss_stack else 0.0
        )

    # -------------------------------------------------------------- metrics

    def downtime_s(self) -> float:
        """Accumulated node downtime, open crash intervals clamped at now."""
        now = self.sim.now
        return self._downtime_total + sum(
            now - since for since in self._down_since.values()
        )

    def availability(self) -> float:
        """Fraction of node-time the fleet was up since the injector existed."""
        elapsed = self.sim.now - self._created_at
        node_time = len(self._nodes) * elapsed
        if node_time <= 0:
            return 1.0
        return 1.0 - self.downtime_s() / node_time

    def mean_recovery_time_s(self) -> float:
        """Mean seconds from recovery to the first regained neighbour."""
        delays = self.rejoin_delays
        if not delays:
            return math.nan
        return sum(delays) / len(delays)

    def report_extra(self) -> Dict[str, float]:
        """Flat fault metrics merged into a scenario report's ``extra``."""
        return {
            "availability": self.availability(),
            "crashes_injected": float(self.crashes_injected),
            "recoveries_injected": float(self.recoveries_injected),
            "mean_recovery_time_s": self.mean_recovery_time_s(),
            "degradation_bursts": float(self.degradation_bursts),
            "loss_bursts": float(self.loss_bursts),
            "malicious_node_count": float(len(self._assignment)),
        }


class _EventFiring:
    """One scheduled fault event as a compact preallocated callable."""

    __slots__ = ("injector", "event")

    def __init__(self, injector: FaultInjector, event: FaultEvent) -> None:
        self.injector = injector
        self.event = event

    def __call__(self) -> None:
        self.injector._fire(self.event)


class _RejoinWatch:
    """Neighbour-up listener measuring one recovery's rejoin delay.

    A picklable class (not a closure): it is registered on the beacon agent,
    which is part of the snapshotted simulation graph.  The ``recovered_at``
    guard makes a stale watch from an earlier recovery a no-op.  It runs
    when the joining arrival is committed, so it measures to the arrival's
    time, and keys the delay by the arrival so the delays read in arrival
    order whichever node commits first.
    """

    __slots__ = ("injector", "name", "recovered_at")

    def __init__(self, injector: FaultInjector, name: str, recovered_at: float) -> None:
        self.injector = injector
        self.name = name
        self.recovered_at = recovered_at

    def __call__(self, _peer: str, _beacon: Any, time: float, sequence: int) -> None:
        injector = self.injector
        if injector._await_rejoin.get(self.name) == self.recovered_at:
            del injector._await_rejoin[self.name]
            insort(injector._rejoins, (time, sequence, time - self.recovered_at))
