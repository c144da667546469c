"""Public facade of the AirDnD framework.

A downstream user needs exactly three things:

* :class:`AirDnDConfig` — every tunable of the framework in one dataclass.
* :class:`AirDnDNode` — attach one to a mobile object (vehicle, roadside
  unit, ...) and it becomes a full AirDnD participant: it beacons, maintains
  its mesh view, lends out its spare compute, stores its sensor data in a
  pond, and can submit tasks of its own.
* :class:`AirDnDOrchestrator` — the requester-side engine inside every node
  (exposed for direct use and for baselines that want to reuse parts of it).

Example
-------

>>> from repro.simcore import Simulator
>>> from repro.radio import RadioEnvironment
>>> from repro.mobility import StaticNode
>>> from repro.geometry import Vec2
>>> from repro.compute import FunctionRegistry, FunctionDefinition
>>> from repro.core.api import AirDnDNode, AirDnDConfig
>>> sim = Simulator(seed=3)
>>> env = RadioEnvironment(sim)
>>> registry = FunctionRegistry()
>>> registry.register(FunctionDefinition("noop", lambda p, d: 42, lambda p: 1e7))
>>> nodes = [AirDnDNode(sim, env, StaticNode(sim, Vec2(float(i * 30), 0.0)), registry)
...          for i in range(2)]
>>> sim.run(until=2.0)   # let beacons flow
>>> from repro.core.task_model import build_task
>>> lifecycle = nodes[0].submit_task(build_task(registry, "noop"))
>>> sim.run(until=10.0)
>>> lifecycle.succeeded
True
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.compute.faas import FaaSRuntime, FunctionRegistry
from repro.compute.node import ComputeNode
from repro.compute.resources import ResourceSpec
from repro.core.candidate import CandidateScorer, ScoringWeights
from repro.core.lifecycle import TaskLifecycle
from repro.core.models import DataDescription, NetworkDescription, TaskDescription, TaskResult
from repro.core.network_model import NetworkDescriptionBuilder
from repro.core.offloading import ExecutorAgent, ExecutorPolicy
from repro.core.orchestrator import Orchestrator
from repro.core.placement import BestScorePlacement, PlacementPolicy
from repro.core.task_model import build_task
from repro.core.trust import TrustConfig, TrustManager
from repro.data.pond import DataPond
from repro.mesh.messages import Beacon
from repro.mesh.node import MeshNode
from repro.radio.interfaces import RadioEnvironment
from repro.simcore.simulator import Simulator

#: Re-exported requester-side engine; the public name mirrors the paper.
AirDnDOrchestrator = Orchestrator


@dataclass
class AirDnDConfig:
    """All tunables of one AirDnD node.

    The defaults reproduce the configuration used throughout the evaluation;
    benchmarks vary individual fields.
    """

    # --- mesh / discovery ---------------------------------------------------
    beacon_period: float = 0.5
    neighbor_lifetime: float = 3.0
    mtu: int = 2000
    ack_timeout: float = 1.0
    transfer_attempts: int = 3

    # --- candidate selection (RQ1) ------------------------------------------
    scoring_weights: ScoringWeights = field(default_factory=ScoringWeights)
    min_trust: float = 0.3
    contact_margin: float = 1.5
    max_beacon_age_s: float = 2.0

    # --- orchestration (RQ2) -------------------------------------------------
    offer_timeout: float = 2.0
    max_attempts: int = 3
    allow_local_fallback: bool = True

    # --- executor admission ---------------------------------------------------
    executor_max_queue: int = 4
    executor_min_headroom_ops: float = 0.0
    executor_accept_probability: float = 1.0

    # --- compute --------------------------------------------------------------
    compute_spec: ResourceSpec = field(default_factory=ResourceSpec)
    reserve_fraction: float = 0.2
    cold_start_latency: float = 0.25
    warm_start_latency: float = 0.01

    # --- data ------------------------------------------------------------------
    pond_retention_s: float = 5.0

    # --- trust (RQ3) -----------------------------------------------------------
    trust: TrustConfig = field(default_factory=TrustConfig)

    def __post_init__(self) -> None:
        """Fail fast on nonsensical knob values.

        These knobs are swept from the CLI (``repro sweep --set``); a typo
        like ``beacon_period=0`` must raise here, at config construction,
        not hours later as a hung or degenerate simulation.
        """
        if self.beacon_period <= 0:
            raise ValueError(f"beacon_period must be positive, got {self.beacon_period}")
        if self.neighbor_lifetime <= 0:
            raise ValueError(
                f"neighbor_lifetime must be positive, got {self.neighbor_lifetime}"
            )
        if not 0.0 <= self.min_trust <= 1.0:
            raise ValueError(f"min_trust must be in [0, 1], got {self.min_trust}")
        if self.max_beacon_age_s <= 0:
            raise ValueError(
                f"max_beacon_age_s must be positive, got {self.max_beacon_age_s}"
            )
        if self.offer_timeout <= 0:
            raise ValueError(f"offer_timeout must be positive, got {self.offer_timeout}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.transfer_attempts < 1:
            raise ValueError(
                f"transfer_attempts must be at least 1, got {self.transfer_attempts}"
            )

    def scorer(self) -> CandidateScorer:
        """Build a candidate scorer from this configuration."""
        return CandidateScorer(
            weights=self.scoring_weights,
            min_trust=self.min_trust,
            contact_margin=self.contact_margin,
            max_beacon_age_s=self.max_beacon_age_s,
        )


class AirDnDNode:
    """One full AirDnD participant.

    Parameters
    ----------
    sim:
        The simulator.
    environment:
        Shared radio environment.
    mobile:
        Mobility object providing ``name``, ``position`` and (optionally)
        ``velocity``.
    registry:
        The shared function catalogue (must be the same object — or an equal
        catalogue — on every node).
    config:
        Node configuration; defaults reproduce the paper's setup.
    placement:
        Optional placement policy override (defaults to best-score).
    result_corruptor:
        Optional hook making this node a *malicious executor* for integrity
        experiments.
    scorer:
        Optional :class:`~repro.core.candidate.CandidateScorer` to use —
        the scorer is stateless, so a fleet can share one instance.
        Defaults to a private scorer built from ``config``.
    """

    def __init__(
        self,
        sim: Simulator,
        environment: RadioEnvironment,
        mobile: Any,
        registry: FunctionRegistry,
        config: Optional[AirDnDConfig] = None,
        placement: Optional[PlacementPolicy] = None,
        result_corruptor: Optional[Callable[[Any], Any]] = None,
        scorer: Optional[CandidateScorer] = None,
    ) -> None:
        self.sim = sim
        self.environment = environment
        self.config = config or AirDnDConfig()
        self.mobile = mobile
        self.name = mobile.name
        self.registry = registry
        self._crashed = False

        # --- substrates -------------------------------------------------------
        self.mesh = MeshNode(
            sim,
            environment,
            mobile,
            beacon_period=self.config.beacon_period,
            neighbor_lifetime=self.config.neighbor_lifetime,
            mtu=self.config.mtu,
            ack_timeout=self.config.ack_timeout,
            max_attempts=self.config.transfer_attempts,
        )
        self.compute = ComputeNode(
            sim,
            spec=self.config.compute_spec,
            owner=self.name,
            reserve_fraction=self.config.reserve_fraction,
        )
        self.faas = FaaSRuntime(
            sim,
            self.compute,
            registry,
            cold_start_latency=self.config.cold_start_latency,
            warm_start_latency=self.config.warm_start_latency,
        )
        self.pond = DataPond(self.name, retention_s=self.config.pond_retention_s)
        self.trust = TrustManager(self.name, self.config.trust)

        # --- AirDnD core -------------------------------------------------------
        self.network_builder = NetworkDescriptionBuilder(self.mesh, environment)
        self.executor = ExecutorAgent(
            sim,
            self.mesh,
            self.compute,
            self.faas,
            self.pond,
            self.trust,
            policy=ExecutorPolicy(
                max_queue_length=self.config.executor_max_queue,
                min_headroom_ops=self.config.executor_min_headroom_ops,
                accept_probability=self.config.executor_accept_probability,
            ),
            result_corruptor=result_corruptor,
        )
        self.orchestrator = Orchestrator(
            sim,
            self.mesh,
            self.network_builder,
            self.compute,
            self.faas,
            self.pond,
            self.trust,
            scorer=scorer or self.config.scorer(),
            placement=placement or BestScorePlacement(),
            offer_timeout=self.config.offer_timeout,
            max_attempts=self.config.max_attempts,
            allow_local_fallback=self.config.allow_local_fallback,
        )
        self.mesh.add_enricher(self._enrich_beacon)

    # ----------------------------------------------------------------- state

    def _enrich_beacon(self, beacon: Beacon) -> Beacon:
        """Attach compute headroom, queue length, data digest and trust."""
        return replace(
            beacon,
            compute_headroom_ops=self.compute.headroom_ops(),
            queue_length=self.compute.queue_length,
            data_summary=self.pond.summary(self.sim.now),
            trust_score=self.trust.self_score(),
        )

    @property
    def position(self):
        """Current position of the underlying mobile object."""
        return self.mobile.position

    # ------------------------------------------------------------------- API

    def network_description(self) -> NetworkDescription:
        """This node's current Model 1 view."""
        return self.orchestrator.network_description()

    def submit_task(
        self, task: TaskDescription, on_result: Optional[Callable[[TaskResult], None]] = None
    ) -> TaskLifecycle:
        """Submit a Model 2 task for asynchronous in-range orchestration."""
        return self.orchestrator.submit(task, on_result)

    def submit_function(
        self,
        function_name: str,
        parameters: Optional[Dict[str, Any]] = None,
        data: Optional[DataDescription] = None,
        deadline_s: float = 0.0,
        redundancy: int = 1,
        on_result: Optional[Callable[[TaskResult], None]] = None,
    ) -> TaskLifecycle:
        """Convenience wrapper: build a task from the catalogue and submit it."""
        task = build_task(
            self.registry,
            function_name,
            parameters=parameters,
            data=data,
            deadline_s=deadline_s,
            redundancy=redundancy,
        )
        return self.submit_task(task, on_result)

    # -------------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        """Withdraw the node from the mesh (it stops beaconing and receiving)."""
        self.mesh.shutdown()

    @property
    def crashed(self) -> bool:
        """Whether the node is currently down (see :meth:`crash`)."""
        return self._crashed

    def crash(self) -> None:
        """Take the node down hard, as the fault injector's crash event does.

        Beaconing and neighbour expiry stop, the radio interface is disabled
        *and detached* from the environment (the node is no longer a
        broadcast receiver candidate at all), every in-flight task this node
        submitted fails immediately — a crashed device loses its requester
        state and must not fall back to "local" execution — and new
        submissions fail until :meth:`recover`.  Results an already-running
        local invocation produces later are silently dropped by the disabled
        interface.  Compute, pond and trust state survive, modelling a
        reboot rather than a replacement device.  Idempotent.
        """
        if self._crashed:
            return
        self._crashed = True
        self.mesh.shutdown()
        self.environment.detach(self.name)
        self.orchestrator.accepting = False
        self.orchestrator.abort_all("node crashed")

    def recover(self) -> None:
        """Bring a crashed node back with *fresh* neighbour state.

        The mesh stack restarts in place (:meth:`MeshNode.restart`): empty
        neighbour table, epoch restarted, clean transport, and every hook
        registered through it (transfer receivers, beacon enrichers, frame
        taps) carried over.  The node rejoins the mesh the same way it
        joined originally: by beaconing and hearing beacons.  Idempotent.
        """
        if not self._crashed:
            return
        self._crashed = False
        self.mesh.restart()
        self.orchestrator.accepting = True

    # --------------------------------------------------------------- metrics

    def completed_tasks(self) -> List[TaskLifecycle]:
        """Terminal lifecycles of tasks this node submitted."""
        return self.orchestrator.completed_lifecycles()

    def bytes_sent(self) -> int:
        """Total bytes this node transmitted over the mesh radio."""
        return self.mesh.interface.bytes_sent

    def bytes_received(self) -> int:
        """Total bytes this node received over the mesh radio."""
        return self.mesh.interface.bytes_received
