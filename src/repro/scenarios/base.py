"""Scenario base classes and the report every scenario produces."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.compute.faas import FunctionRegistry
from repro.compute.resources import ResourceSpec
from repro.core.api import AirDnDConfig, AirDnDNode
from repro.core.candidate import CandidateScorer
from repro.core.lifecycle import TaskLifecycle
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultKnobs, FaultSchedule
from repro.geometry.los import VisibilityMap
from repro.metrics.report import reputation_gap, wrong_result_acceptance_rate
from repro.metrics.statistics import percentile
from repro.mobility.manager import MobilityManager
from repro.mobility.vehicle import Vehicle
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator, StepOutcome
from repro.telemetry.trace import current_tracer


def _placement_airdnd():
    return None  # AirDnDNode installs its default BestScorePlacement


def _placement_decloud_auction():
    from repro.baselines import AuctionPlacement

    return AuctionPlacement()


def _placement_smart_contract():
    from repro.baselines import ContractPlacement

    return ContractPlacement()


def _placement_coded_vec_auction():
    from repro.baselines import CodedAuctionPlacement

    return CodedAuctionPlacement(k=1)


#: placement knob value -> factory for one node's policy instance.  Imports
#: are deferred: repro.baselines is only paid for when actually selected.
PLACEMENT_POLICIES = {
    "airdnd": _placement_airdnd,
    "decloud_auction": _placement_decloud_auction,
    "smart_contract": _placement_smart_contract,
    "coded_vec_auction": _placement_coded_vec_auction,
}


@dataclass
class BaseScenarioConfig:
    """Protocol knobs every scenario config exposes uniformly.

    These are forwarded into each node's
    :class:`~repro.core.api.AirDnDConfig` via :meth:`node_config`; the
    defaults match it, so a scenario that never touches them behaves exactly
    as before.  Declared once here so ``repro sweep --set`` reaches the same
    knob names in every scenario — add new shared knobs in this class, not
    in the per-scenario configs.

    The fault knobs (``crash_rate`` … ``loss_burst_rate``) parameterise the
    scenario's :class:`~repro.faults.injector.FaultInjector`; at their
    defaults the injector is installed but injects nothing, which is
    byte-identical to not installing it (the :mod:`repro.faults` determinism
    contract).  ``task_redundancy`` is the requester-side replica count the
    scenario's workload stamps on every task (k-redundant execution is the
    RQ3 integrity backstop the adversary knobs are meant to stress).

    ``fast_math`` selects the radio stack's equivalence tier.  ``False``
    (default) is the *exact* tier: seeded runs are byte-identical across the
    reference flags (benchmarks E11/E13).  ``True`` is the *statistical*
    tier: fused numpy SIMD link kernels and batched event-core delivery,
    ~last-ulp different per link, promising distribution-level agreement of
    aggregate metrics only (benchmark E15; see ``docs/PERFORMANCE.md``).
    Sweepable like any knob: ``repro sweep --set fast_math=true,false``.
    """

    beacon_period: float = 0.5
    min_trust: float = 0.3
    fast_math: bool = False
    #: Which allocation mechanism every node's orchestrator runs.  "airdnd"
    #: (default) is the paper's multi-criteria scorer; the others are the
    #: related-work adapters from :mod:`repro.baselines`, so benchmark E7's
    #: comparison is one sweep dimension: ``--set placement=airdnd,...``.
    placement: str = "airdnd"
    # --- fault & adversary injection (repro.faults) ------------------------
    crash_rate: float = 0.0
    mean_downtime: float = 5.0
    radio_degradation: float = 0.0
    malicious_fraction: float = 0.0
    adversary_profile: str = "liar"
    loss_burst_rate: float = 0.0
    task_redundancy: int = 1

    def __post_init__(self) -> None:
        """Fail fast on an invalid equivalence-tier selector.

        ``--set fast_math=1`` (or any other non-bool) would otherwise only
        surface deep inside :class:`~repro.radio.link.LinkBudget`; subclasses
        adding their own ``__post_init__`` must chain up with
        ``super().__post_init__()``.
        """
        if not isinstance(self.fast_math, bool):
            raise ValueError(
                "fast_math selects the equivalence tier and must be a bool "
                f"(False=exact, True=statistical), got {self.fast_math!r}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"unknown placement {self.placement!r} "
                f"(choose from {', '.join(sorted(PLACEMENT_POLICIES))})"
            )

    def placement_policy(self):
        """A fresh placement-policy instance per call, or ``None`` for AirDnD.

        Fresh per call because stateful mechanisms (the coded auction's
        provider bookkeeping, for one) must not be shared across nodes —
        each node's orchestrator owns its own instance, matching how E7
        historically installed them.
        """
        return PLACEMENT_POLICIES[self.placement]()

    def node_config(self, spec: ResourceSpec) -> AirDnDConfig:
        """The per-node AirDnD configuration this scenario prescribes."""
        return AirDnDConfig(
            compute_spec=spec,
            beacon_period=self.beacon_period,
            min_trust=self.min_trust,
        )

    def fault_knobs(self) -> FaultKnobs:
        """The scenario's fault knobs as a validated :class:`FaultKnobs`.

        Called during scenario construction, so a typo'd sweep value
        (``--set malicious_fraction=1.5``) fails immediately with the knob
        named, not after the grid has burned hours.
        """
        if self.task_redundancy < 1:
            raise ValueError(
                f"task_redundancy must be at least 1, got {self.task_redundancy}"
            )
        return FaultKnobs(
            crash_rate=self.crash_rate,
            mean_downtime=self.mean_downtime,
            radio_degradation=self.radio_degradation,
            malicious_fraction=self.malicious_fraction,
            adversary_profile=self.adversary_profile,
            loss_burst_rate=self.loss_burst_rate,
        )

    def shared_scorer(self) -> CandidateScorer:
        """One :class:`~repro.core.candidate.CandidateScorer` for the fleet.

        The scoring knobs (weights, trust threshold, margins) are uniform
        across a scenario's nodes and the scorer keeps no state between
        calls, so a single scorer can serve every node.  Scenarios build one
        of these and pass it to each :class:`~repro.core.api.AirDnDNode`.

        Derived from the same :meth:`node_config` every node receives (the
        compute spec does not feed the scorer), so a future scenario knob
        that reaches :meth:`AirDnDConfig.scorer` cannot silently diverge
        between the shared scorer and the per-node configs.
        """
        return self.node_config(ResourceSpec()).scorer()


@dataclass
class ScenarioReport:
    """Headline metrics of one scenario run.

    The report is intentionally flat and numeric so that benchmark tables can
    be assembled by simple dictionary access.
    """

    duration_s: float
    node_count: int
    tasks_submitted: int = 0
    tasks_completed: int = 0
    tasks_failed: int = 0
    mean_task_latency_s: float = math.nan
    p95_task_latency_s: float = math.nan
    mesh_bytes: float = 0.0
    cellular_bytes: float = 0.0
    offloaded_tasks: int = 0
    local_tasks: int = 0
    #: True when a callback raised ``StopSimulation`` before a run window's
    #: requested end — ``duration_s`` then reflects the *actual* simulated
    #: time, not the requested window length.
    stopped_early: bool = False
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def success_rate(self) -> float:
        """Completed over terminal tasks (1.0 when nothing was submitted)."""
        terminal = self.tasks_completed + self.tasks_failed
        if terminal == 0:
            return 1.0
        return self.tasks_completed / terminal

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary (headline fields plus extras)."""
        out = {
            "duration_s": self.duration_s,
            "node_count": float(self.node_count),
            "tasks_submitted": float(self.tasks_submitted),
            "tasks_completed": float(self.tasks_completed),
            "tasks_failed": float(self.tasks_failed),
            "success_rate": self.success_rate,
            "mean_task_latency_s": self.mean_task_latency_s,
            "p95_task_latency_s": self.p95_task_latency_s,
            "mesh_bytes": self.mesh_bytes,
            "cellular_bytes": self.cellular_bytes,
            "offloaded_tasks": float(self.offloaded_tasks),
            "local_tasks": float(self.local_tasks),
        }
        if self.stopped_early:
            # Only surfaced when it happened: ordinary runs keep their
            # historical key set (sweep exports, golden snapshot fixtures
            # and byte-identity suites all compare full report dicts).
            out["stopped_early"] = 1.0
        out.update(self.extra)
        return out


class Scenario:
    """Base class: owns the simulator and the AirDnD nodes, builds reports.

    A scenario subclass states its geography, its fleet and its extra report
    fields; the shared world (:meth:`_build_world`) and each vehicle's node
    (:meth:`_add_node`) are assembled here, in the order every scenario's
    events, RNG draws and snapshot bytes depend on.
    """

    def __init__(self, sim: Simulator, name: str = "scenario") -> None:
        self.sim = sim
        self.name = name
        self.nodes: List[AirDnDNode] = []
        self.faults: Optional[FaultInjector] = None
        self._fault_schedule: Optional[FaultSchedule] = None
        self._ran_for = 0.0
        self._stopped_early = False
        # Open run-window bookkeeping: set between open_window() and
        # close_window(), carried by snapshots taken mid-window so resume()
        # can finish the window.
        self._window_end: Optional[float] = None
        self._window_duration = 0.0

    # -------------------------------------------------------------- assembly

    def _build_world(
        self,
        tick: float,
        functions: Callable[[FunctionRegistry], None],
        visibility: Optional[VisibilityMap] = None,
    ) -> None:
        """Build ``mobility``, ``environment``, ``registry`` and ``scorer``.

        ``functions`` registers the scenario's FaaS functions; the radio
        runs the default log-distance link budget on ``self.config``'s
        equivalence tier, with ``visibility`` for NLOS penalties (open
        terrain when ``None``).
        """
        config = self.config  # type: ignore[attr-defined]
        self.mobility = MobilityManager(self.sim, tick=tick)
        self.environment = RadioEnvironment(
            self.sim,
            LinkBudget(fast_math=config.fast_math),
            visibility=visibility,
            mobility=self.mobility,
        )
        self.registry = FunctionRegistry()
        functions(self.registry)
        self.scorer = config.shared_scorer()

    def _add_node(self, vehicle: Vehicle, spec: ResourceSpec) -> AirDnDNode:
        """Put ``vehicle`` on the road and give it an AirDnD node.

        Registers the vehicle with ``mobility``, appends it to ``vehicles``
        (which the scenario creates) and its node, built with ``spec`` and
        the config's per-node knobs, to ``nodes``.
        """
        config = self.config  # type: ignore[attr-defined]
        self.mobility.add_node(vehicle)
        self.vehicles.append(vehicle)
        node = AirDnDNode(
            self.sim,
            self.environment,
            vehicle,
            self.registry,
            config=config.node_config(spec),
            scorer=self.scorer,
            placement=config.placement_policy(),
        )
        self.nodes.append(node)
        return node

    # ---------------------------------------------------------------- faults

    def install_faults(self, workload: Optional[object] = None) -> FaultInjector:
        """Build this scenario's fault injector from its config knobs.

        Scenario builders call this once, after ``self.nodes`` and
        ``self.environment`` exist (requires a ``self.config`` deriving from
        :class:`BaseScenarioConfig`).  Adversary profiles are applied
        immediately — malicious behaviour starts at t=0 — while the
        crash/degradation timeline is expanded lazily per :meth:`run` window
        (its horizon is the run duration).  With all knobs at their
        defaults, nothing is drawn and nothing is scheduled.
        """
        config = self.config  # type: ignore[attr-defined]
        knobs = config.fault_knobs()
        schedule = FaultSchedule(knobs, seed=getattr(config, "seed", 0))
        injector = FaultInjector(
            self.sim,
            self.nodes,
            environment=getattr(self, "environment", None),
            mobility=getattr(self, "mobility", None),
            workload=workload,
        )
        injector.assign_adversaries(
            schedule.adversary_assignment([node.name for node in self.nodes])
        )
        self.faults = injector
        self._fault_schedule = schedule
        return injector

    # ----------------------------------------------------------------- hooks

    def before_run(self) -> None:
        """Hook executed once before the event loop starts."""

    def after_run(self) -> None:
        """Hook executed once after the event loop finishes."""

    # ---------------------------------------------------------------- window
    #
    # The run window is the scenario's unit of execution: open_window() arms
    # it, advance() moves it forward in bounded slices, close_window() does
    # the end-of-window bookkeeping and builds the report.  run() and
    # resume() are thin compositions of these three — the session engine in
    # :mod:`repro.service` drives the same primitives piecewise, which is
    # why an interleaved, paused or migrated session stays byte-identical
    # to a run-to-completion call.

    @property
    def window_open(self) -> bool:
        """Whether a run window is currently open (mid-run)."""
        return self._window_end is not None

    @property
    def window_end(self) -> Optional[float]:
        """Absolute sim time the open window ends at (``None`` when idle)."""
        return self._window_end

    def open_window(
        self, duration: float, fault_horizon: Optional[float] = None
    ) -> float:
        """Open a run window of ``duration`` seconds; returns its end time.

        Runs the ``before_run`` hook, records the window bookkeeping that
        mid-window snapshots carry, and arms the fault timeline for
        ``fault_horizon`` (>= ``duration``; a prefix armed with a longer
        horizon draws exactly the fault events the longer run would, which
        is what makes warm-started sweep cells byte-identical).
        """
        if self._window_end is not None:
            raise RuntimeError(
                "a run window is already open; close_window() or resume() it "
                "before opening another"
            )
        if duration <= 0:
            raise ValueError("duration must be positive")
        horizon = duration if fault_horizon is None else float(fault_horizon)
        if horizon < duration:
            raise ValueError("fault_horizon must be >= duration")
        self.sim.clear_stop()
        self.before_run()
        start = self.sim.now
        end = start + duration
        self._window_end = end
        self._window_duration = duration
        if self.faults is not None and self._fault_schedule is not None:
            self.faults.arm(self._fault_schedule, start=start, duration=horizon)
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "window_open",
                "scenario",
                sim_time=start,
                args={"duration": duration, "fault_horizon": horizon, "end": end},
            )
        return end

    def advance(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> StepOutcome:
        """Advance the open window by one bounded slice.

        ``until`` caps the slice at an absolute sim time (default: the
        window end); ``max_events`` caps it at an event count so a driver
        can interleave many scenarios fairly.  When the slice exhausts
        every event up to its time target the idle clock is advanced to it
        — exactly the convention ``Simulator.run`` applies — so piecewise
        driving is byte-identical to one ``run()`` call.  Returns the
        slice's :class:`~repro.simcore.simulator.StepOutcome`; the window
        is complete when a full-width slice (``until=None``) reports
        :attr:`~repro.simcore.simulator.StepOutcome.exhausted`.
        """
        if self._window_end is None:
            raise RuntimeError("no open run window; open_window() one first")
        target = self._window_end if until is None else float(until)
        if target > self._window_end:
            raise ValueError(
                f"advance target {target} lies beyond the window end "
                f"{self._window_end}"
            )
        tracer = current_tracer()
        trace_start = tracer.clock() if tracer is not None else 0.0
        outcome = self.sim.step(max_events=max_events, until=target)
        if outcome.exhausted and self.sim.now < target:
            self.sim.advance_clock(target)
            outcome = StepOutcome(
                events_fired=outcome.events_fired,
                now=self.sim.now,
                queue_empty=outcome.queue_empty,
                stop_requested=outcome.stop_requested,
                reached_until=outcome.reached_until,
                hit_event_budget=outcome.hit_event_budget,
            )
        if tracer is not None:
            tracer.span(
                "window_advance",
                "scenario",
                trace_start,
                sim_time=self.sim.now,
                args={
                    "target": target,
                    "events_fired": outcome.events_fired,
                    "exhausted": outcome.exhausted,
                },
            )
        return outcome

    def close_window(self) -> ScenarioReport:
        """Close the open window: ``after_run`` hook, accounting, report.

        A window a callback stopped early (``StopSimulation``) accounts the
        sim time that actually elapsed — not the requested duration — and
        marks the report ``stopped_early``.
        """
        if self._window_end is None:
            raise RuntimeError("no open run window to close")
        start = self._window_end - self._window_duration
        stopped_early = self.sim.stop_requested and self.sim.now < self._window_end
        self.after_run()
        if stopped_early:
            self._ran_for += max(0.0, self.sim.now - start)
            self._stopped_early = True
        else:
            self._ran_for += self._window_duration
        self._window_end = None
        self._window_duration = 0.0
        tracer = current_tracer()
        if tracer is not None:
            tracer.instant(
                "window_close",
                "scenario",
                sim_time=self.sim.now,
                args={"ran_for": self._ran_for, "stopped_early": stopped_early},
            )
        return self.build_report()

    # ------------------------------------------------------------------- run

    def run(
        self,
        duration: float,
        *,
        snapshot_at: Optional[float] = None,
        snapshot_to: Optional[str] = None,
        fault_horizon: Optional[float] = None,
    ) -> ScenarioReport:
        """Run the scenario for ``duration`` seconds and build the report.

        A thin composition of :meth:`open_window` / :meth:`advance` /
        :meth:`close_window` — kept byte-identical to the historical
        run-to-completion loop, which every benchmark depends on.

        Parameters
        ----------
        snapshot_at:
            Optional offset (seconds into this window, ``0 < snapshot_at <=
            duration``) at which to pause the event loop and write a
            snapshot, then continue to the end of the window.  The pause is
            byte-neutral: the run's outputs are identical with or without it.
        snapshot_to:
            Path the mid-run snapshot is written to (required with
            ``snapshot_at``, and meaningless without it).
        fault_horizon:
            Horizon (>= ``duration``) the fault timeline is armed for.  A
            cold run of a *prefix* armed with the full horizon draws exactly
            the fault events a longer run would, so a snapshot of the prefix
            warm-starts any longer cell of the same seed byte-identically.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if snapshot_at is not None:
            if not 0 < snapshot_at <= duration:
                raise ValueError("snapshot_at must be in (0, duration]")
            if snapshot_to is None:
                raise ValueError("snapshot_at requires snapshot_to")
        elif snapshot_to is not None:
            raise ValueError(
                "snapshot_to without snapshot_at would silently never write "
                "a snapshot; pass snapshot_at as well"
            )
        end = self.open_window(duration, fault_horizon=fault_horizon)
        if snapshot_at is not None:
            self.advance(until=end - duration + snapshot_at)
            self.snapshot(snapshot_to)
        self.advance()
        return self.close_window()

    def resume(self, until: Optional[float] = None) -> ScenarioReport:
        """Finish the run window a mid-run snapshot interrupted.

        ``until`` extends the window to a later absolute sim time (used by
        warm-started sweeps whose fault timeline was armed with a longer
        horizon); by default the window ends where the original ``run``
        call would have ended.  Event processing, fault firings and RNG
        draws continue exactly where the snapshot left them, so the report
        is byte-identical to the uninterrupted run's.
        """
        if self._window_end is None:
            raise RuntimeError(
                "no open run window to resume; this scenario was not "
                "snapshotted mid-run"
            )
        end = self._window_end if until is None else float(until)
        if end < self.sim.now:
            raise ValueError("resume target precedes the current sim time")
        window_start = self._window_end - self._window_duration
        # Re-shape the window so close_window() accounts end - window_start,
        # exactly as the interrupted run() call would have.
        self._window_end = end
        self._window_duration = end - window_start
        self.advance()
        return self.close_window()

    # -------------------------------------------------------------- snapshot

    def snapshot(self, path: Optional[str] = None) -> bytes:
        """Capture the full simulation state; optionally write it to ``path``.

        Returns the encoded artifact bytes either way.
        """
        from repro.snapshot.scenario import snapshot_scenario

        blob = snapshot_scenario(
            self,
            metadata={
                "window_end": self._window_end,
                "window_duration": self._window_duration,
                "ran_for": self._ran_for,
            },
        )
        if path is not None:
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(blob)
        return blob

    @staticmethod
    def restore(source) -> "Scenario":
        """Rebuild a scenario from snapshot bytes or a snapshot file path."""
        from repro.snapshot.scenario import load_snapshot, restore_scenario

        if isinstance(source, (bytes, bytearray)):
            scenario, _ = restore_scenario(bytes(source))
        else:
            scenario, _ = load_snapshot(os.fspath(source))
        return scenario

    # ---------------------------------------------------------------- report

    def all_lifecycles(self) -> List[TaskLifecycle]:
        """Every task lifecycle across every node."""
        lifecycles: List[TaskLifecycle] = []
        for node in self.nodes:
            lifecycles.extend(node.orchestrator.lifecycles)
        return lifecycles

    def build_report(self) -> ScenarioReport:
        """Assemble the :class:`ScenarioReport` from monitors and lifecycles."""
        monitor = self.sim.monitor
        lifecycles = self.all_lifecycles()
        terminal = [l for l in lifecycles if l.is_terminal]
        completed = [l for l in terminal if l.succeeded]
        failed = [l for l in terminal if not l.succeeded]
        latencies = [l.total_latency() for l in completed if l.total_latency() is not None]
        offloaded = sum(
            1 for l in completed if l.result is not None and l.result.executor != l.task.requester
        )
        local = sum(
            1 for l in completed if l.result is not None and l.result.executor == l.task.requester
        )
        mesh_bytes = sum(node.bytes_sent() for node in self.nodes)
        report = ScenarioReport(
            duration_s=self._ran_for if self._ran_for > 0 else self.sim.now,
            node_count=len(self.nodes),
            tasks_submitted=len(lifecycles),
            tasks_completed=len(completed),
            tasks_failed=len(failed),
            mean_task_latency_s=(
                sum(latencies) / len(latencies) if latencies else math.nan
            ),
            p95_task_latency_s=percentile(latencies, 95),
            mesh_bytes=float(mesh_bytes),
            cellular_bytes=monitor.counter_value("cellular.bytes_uplinked")
            + monitor.counter_value("cellular.bytes_downlinked"),
            offloaded_tasks=offloaded,
            local_tasks=local,
            stopped_early=self._stopped_early,
        )
        if self.faults is not None:
            report.extra.update(self.faults.report_extra())
            report.extra["wrong_result_acceptance_rate"] = (
                wrong_result_acceptance_rate(lifecycles)
            )
            report.extra["reputation_gap"] = reputation_gap(
                self.nodes, self.faults.malicious_names
            )
        return report
