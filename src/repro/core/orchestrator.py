"""The asynchronous in-range orchestrator (requester side).

One :class:`Orchestrator` runs on every AirDnD node.  When the local
application submits a task the orchestrator:

1. materialises a fresh Model 1 :class:`~repro.core.models.NetworkDescription`
   from beacons already heard (no messages, no blocking);
2. filters and ranks candidates with the
   :class:`~repro.core.candidate.CandidateScorer` (RQ1);
3. picks executors with the configured placement policy and sends each a
   ``TaskOffer`` over the mesh (RQ2);
4. arms a per-offer timeout; on result it completes the task, on reject or
   timeout it moves to the next candidate, and when candidates run out it
   falls back to local execution (when allowed and possible) or fails;
5. updates the trust manager on every outcome, and — for redundant tasks —
   collects all replicas' results and majority-votes them (RQ3).

Everything is callback-driven on the simulator; the orchestrator never waits
for a round, a leader, or a membership agreement — "asynchronous, in-range".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.compute.faas import FaaSRuntime, InvocationResult
from repro.compute.node import ComputeNode
from repro.core.candidate import CandidateScore, CandidateScorer
from repro.core.data_model import pond_satisfies
from repro.core.lifecycle import TaskLifecycle, TaskState
from repro.core.models import NetworkDescription, TaskDescription, TaskResult
from repro.core.network_model import NetworkDescriptionBuilder
from repro.core.offloading import (
    TaskOffer,
    TaskReject,
    TaskResultMessage,
)
from repro.core.placement import BestScorePlacement, PlacementPolicy
from repro.core.trust import TrustManager
from repro.data.pond import DataPond
from repro.mesh.node import MeshNode
from repro.simcore.simulator import Simulator

ResultCallback = Callable[[TaskResult], None]


@dataclass
class _PendingTask:
    """Requester-side bookkeeping for one in-flight task."""

    lifecycle: TaskLifecycle
    on_result: Optional[ResultCallback]
    candidates: List[CandidateScore] = field(default_factory=list)
    next_candidate_index: int = 0
    outstanding_offers: Dict[int, str] = field(default_factory=dict)
    collected_results: Dict[str, TaskResultMessage] = field(default_factory=dict)
    replicas_wanted: int = 1
    timed_out_offers: set = field(default_factory=set)


class Orchestrator:
    """Per-node requester-side orchestration engine."""

    def __init__(
        self,
        sim: Simulator,
        mesh_node: MeshNode,
        network_builder: NetworkDescriptionBuilder,
        compute: ComputeNode,
        faas: FaaSRuntime,
        pond: DataPond,
        trust: TrustManager,
        scorer: Optional[CandidateScorer] = None,
        placement: Optional[PlacementPolicy] = None,
        offer_timeout: float = 2.0,
        max_attempts: int = 3,
        allow_local_fallback: bool = True,
    ) -> None:
        self.sim = sim
        self.mesh_node = mesh_node
        self.network_builder = network_builder
        self.compute = compute
        self.faas = faas
        self.pond = pond
        self.trust = trust
        self.scorer = scorer or CandidateScorer()
        self.placement = placement or BestScorePlacement()
        self.offer_timeout = offer_timeout
        self.max_attempts = max_attempts
        self.allow_local_fallback = allow_local_fallback
        #: Gate used by fault injection: a crashed node immediately fails new
        #: submissions instead of orchestrating (or locally executing) them.
        self.accepting = True
        self._pending: Dict[int, _PendingTask] = {}
        self.lifecycles: List[TaskLifecycle] = []
        mesh_node.on_receive(self._on_transfer)

    @property
    def name(self) -> str:
        """Name of the node this orchestrator serves."""
        return self.mesh_node.name

    def abort_all(self, reason: str) -> int:
        """Fail every in-flight task (the node crashed / went offline).

        Returns the number of tasks aborted.  Already-armed offer timeouts
        see a terminal lifecycle and become no-ops.
        """
        in_flight = [
            pending
            for pending in list(self._pending.values())
            if not pending.lifecycle.is_terminal
        ]
        for pending in in_flight:
            self._fail(pending, reason)
        return len(in_flight)

    # ------------------------------------------------------------ submission

    def network_description(self) -> NetworkDescription:
        """The node's current Model 1 view (built on demand, costs nothing)."""
        return self.network_builder.build(self.sim.now)

    def submit(
        self, task: TaskDescription, on_result: Optional[ResultCallback] = None
    ) -> TaskLifecycle:
        """Submit a task for orchestration; returns its lifecycle immediately."""
        task = task.with_requester(self.name, self.sim.new_id("task"))
        lifecycle = TaskLifecycle(task=task, created_at=self.sim.now)
        self.lifecycles.append(lifecycle)
        pending = _PendingTask(
            lifecycle=lifecycle,
            on_result=on_result,
            replicas_wanted=max(1, task.redundancy),
        )
        self._pending[task.task_id] = pending
        self.sim.monitor.counter("airdnd.tasks_submitted").add()
        lifecycle.transition(TaskState.SELECTING, self.sim.now)
        if not self.accepting:
            self._fail(pending, "node offline")
            return lifecycle
        self._select_and_dispatch(pending)
        return lifecycle

    # -------------------------------------------------------- candidate flow

    def _select_and_dispatch(self, pending: _PendingTask) -> None:
        task = pending.lifecycle.task
        if not pending.candidates:
            network = self.network_description()
            ranked = self.scorer.rank(network, task)
            pending.candidates = self.placement.choose(ranked, task, count=len(ranked))
        self._dispatch_next(pending)

    def _dispatch_next(self, pending: _PendingTask) -> None:
        task = pending.lifecycle.task
        wanted = pending.replicas_wanted - len(pending.outstanding_offers) - len(
            pending.collected_results
        )
        dispatched = 0
        while dispatched < wanted:
            if pending.lifecycle.attempts >= self.max_attempts + pending.replicas_wanted - 1:
                break
            candidate = self._next_candidate(pending)
            if candidate is None:
                break
            self._send_offer(pending, candidate)
            dispatched += 1
        if dispatched == 0 and not pending.outstanding_offers:
            # No remote options left: local fallback or failure.
            if not pending.collected_results:
                self._execute_locally_or_fail(pending)

    def _next_candidate(self, pending: _PendingTask) -> Optional[CandidateScore]:
        while pending.next_candidate_index < len(pending.candidates):
            candidate = pending.candidates[pending.next_candidate_index]
            pending.next_candidate_index += 1
            if candidate.name not in pending.lifecycle.executors_tried:
                return candidate
        return None

    # --------------------------------------------------------------- offers

    def _send_offer(self, pending: _PendingTask, candidate: CandidateScore) -> None:
        task = pending.lifecycle.task
        offer = TaskOffer(
            task=task,
            requester=self.name,
            sent_at=self.sim.now,
            offer_id=self.sim.new_id("offer"),
        )
        pending.outstanding_offers[offer.offer_id] = candidate.name
        pending.lifecycle.record_attempt(candidate.name)
        if pending.lifecycle.state == TaskState.SELECTING:
            pending.lifecycle.transition(TaskState.OFFLOADED, self.sim.now)
        self.sim.monitor.counter("airdnd.offers_sent").add()
        self.mesh_node.send_reliable(
            candidate.name,
            offer,
            task.size_bytes,
            kind="airdnd.offer",
            on_complete=_OfferDelivery(self, pending, offer, candidate),
        )
        self.sim.schedule(
            self.offer_timeout,
            _OfferTimeout(self, pending, offer.offer_id),
            name=f"offer-timeout:{task.task_id}",
        )

    def _on_offer_delivery(
        self, delivered: bool, pending: _PendingTask, offer: TaskOffer, candidate: CandidateScore
    ) -> None:
        if delivered:
            return
        # The transport gave up: treat like an immediate timeout for this offer.
        self._handle_offer_failure(pending, offer.offer_id, candidate.name, "transfer failed")

    def _on_offer_timeout(self, pending: _PendingTask, offer_id: int) -> None:
        if pending.lifecycle.is_terminal:
            return
        executor = pending.outstanding_offers.get(offer_id)
        if executor is None:
            return
        self._handle_offer_failure(pending, offer_id, executor, "offer timed out")

    def _handle_offer_failure(
        self, pending: _PendingTask, offer_id: int, executor: str, reason: str
    ) -> None:
        if offer_id in pending.timed_out_offers:
            return
        pending.timed_out_offers.add(offer_id)
        pending.outstanding_offers.pop(offer_id, None)
        self.trust.record_failure(executor)
        self.sim.monitor.counter("airdnd.offer_failures").add()
        if pending.lifecycle.is_terminal:
            return
        if pending.collected_results and not pending.outstanding_offers:
            self._finalize(pending)
            return
        if pending.lifecycle.state == TaskState.OFFLOADED and not pending.outstanding_offers:
            pending.lifecycle.transition(TaskState.SELECTING, self.sim.now)
        if pending.lifecycle.state == TaskState.SELECTING or pending.outstanding_offers:
            self._dispatch_next(pending)

    # -------------------------------------------------------------- receive

    def _on_transfer(self, source: str, kind: str, payload: Any, _size: int) -> None:
        if kind == "airdnd.result" and isinstance(payload, TaskResultMessage):
            self._on_result(source, payload)
        elif kind == "airdnd.reject" and isinstance(payload, TaskReject):
            self._on_reject(source, payload)

    def _on_reject(self, source: str, reject: TaskReject) -> None:
        pending = self._pending.get(reject.task_id)
        if pending is None or pending.lifecycle.is_terminal:
            return
        self.sim.monitor.counter("airdnd.rejects_received").add()
        pending.outstanding_offers.pop(reject.offer_id, None)
        self.trust.record_failure(reject.executor)
        if pending.collected_results and not pending.outstanding_offers:
            self._finalize(pending)
            return
        if pending.lifecycle.state == TaskState.OFFLOADED and not pending.outstanding_offers:
            pending.lifecycle.transition(TaskState.SELECTING, self.sim.now)
        self._dispatch_next(pending)

    def _on_result(self, source: str, message: TaskResultMessage) -> None:
        pending = self._pending.get(message.task_id)
        if pending is None or pending.lifecycle.is_terminal:
            return
        pending.outstanding_offers.pop(message.offer_id, None)
        pending.collected_results[message.executor] = message
        self.sim.monitor.counter("airdnd.results_received").add()
        enough = len(pending.collected_results) >= pending.replicas_wanted
        none_outstanding = not pending.outstanding_offers
        if enough or none_outstanding:
            self._finalize(pending)

    # ------------------------------------------------------------- finishing

    def _finalize(self, pending: _PendingTask) -> None:
        if pending.lifecycle.is_terminal:
            return
        task = pending.lifecycle.task
        results = pending.collected_results
        if not results:
            self._fail(pending, "no results collected")
            return
        if pending.replicas_wanted > 1:
            votes = {name: msg.value for name, msg in results.items()}
            # The vote base is the number of replicas actually solicited
            # (capped at k): a lone surviving result of a k=3 task must not
            # be accepted unvetted, but a fleet too small to supply k
            # replicas still degrades gracefully to voting over what exists.
            solicited = min(
                pending.replicas_wanted, len(set(pending.lifecycle.executors_tried))
            )
            winner_value = self.trust.vote(votes, expected=solicited)
            if winner_value is None:
                self._fail(pending, "redundant executors disagreed")
                return
            winner_name = next(
                name for name, msg in results.items() if msg.value is winner_value
                or msg.value == winner_value
            )
            message = results[winner_name]
        else:
            message = next(iter(results.values()))
            if message.success:
                self.trust.record_success(message.executor)
            else:
                self.trust.record_failure(message.executor)
        if not message.success:
            self._fail(pending, "executor reported failure")
            return
        latency = self.sim.now - pending.lifecycle.created_at
        result = TaskResult(
            task_id=task.task_id,
            executor=message.executor,
            success=True,
            value=message.value,
            produced_at=message.produced_at,
            compute_time_s=message.compute_time_s,
            transfer_time_s=max(0.0, latency - message.compute_time_s),
            total_latency_s=latency,
            result_size_bytes=message.result_size_bytes,
        )
        self._complete(pending, result)

    def _complete(self, pending: _PendingTask, result: TaskResult) -> None:
        lifecycle = pending.lifecycle
        lifecycle.result = result
        lifecycle.transition(TaskState.COMPLETED, self.sim.now)
        self._pending.pop(lifecycle.task.task_id, None)
        self.sim.monitor.counter("airdnd.tasks_completed").add()
        self.sim.monitor.sample("airdnd.task_latency").add(result.total_latency_s)
        if pending.on_result is not None:
            pending.on_result(result)

    def _fail(self, pending: _PendingTask, reason: str) -> None:
        lifecycle = pending.lifecycle
        result = TaskResult(
            task_id=lifecycle.task.task_id,
            executor="",
            success=False,
            failure_reason=reason,
            total_latency_s=self.sim.now - lifecycle.created_at,
        )
        lifecycle.result = result
        lifecycle.transition(TaskState.FAILED, self.sim.now)
        self._pending.pop(lifecycle.task.task_id, None)
        self.sim.monitor.counter("airdnd.tasks_failed").add()
        if pending.on_result is not None:
            pending.on_result(result)

    # --------------------------------------------------------- local fallback

    def _execute_locally_or_fail(self, pending: _PendingTask) -> None:
        task = pending.lifecycle.task
        if not self.allow_local_fallback:
            self._fail(pending, "no eligible candidates and local fallback disabled")
            return
        ok, reason = pond_satisfies(self.pond, task.data, self.sim.now)
        if not ok:
            self._fail(pending, f"no eligible candidates; local data inadequate: {reason}")
            return
        if pending.lifecycle.state in (TaskState.SELECTING, TaskState.OFFLOADED):
            pending.lifecycle.transition(TaskState.EXECUTING_LOCALLY, self.sim.now)
        pending.lifecycle.record_attempt(self.name)
        self.sim.monitor.counter("airdnd.local_executions").add()
        parameters = dict(task.parameters)
        parameters.setdefault("now", self.sim.now)
        self.faas.invoke(
            task.function_name,
            parameters,
            self.pond,
            on_complete=_LocalInvocationDone(self, pending),
            deadline=task.deadline_s,
        )

    def _on_local_invocation(
        self, pending: _PendingTask, invocation: InvocationResult
    ) -> None:
        task = pending.lifecycle.task
        if pending.lifecycle.is_terminal:
            return
        if invocation.result is None:
            self._fail(pending, "local execution rejected by compute node")
            return
        latency = self.sim.now - pending.lifecycle.created_at
        result = TaskResult(
            task_id=task.task_id,
            executor=self.name,
            success=True,
            value=invocation.result,
            produced_at=self.sim.now,
            compute_time_s=invocation.compute_time,
            transfer_time_s=0.0,
            total_latency_s=latency,
            result_size_bytes=invocation.result_size_bytes,
        )
        self._complete(pending, result)

    # ------------------------------------------------------------- reporting

    def completed_lifecycles(self) -> List[TaskLifecycle]:
        """All lifecycles that reached a terminal state."""
        return [l for l in self.lifecycles if l.is_terminal]

    def success_rate(self) -> float:
        """Fraction of terminal tasks that completed successfully."""
        terminal = self.completed_lifecycles()
        if not terminal:
            return 0.0
        return sum(1 for l in terminal if l.succeeded) / len(terminal)


# Long-lived callbacks as picklable classes: these land in the event queue
# (offer timeouts), on transfers (delivery notifications) and in the FaaS
# runtime (local-fallback completion), so the snapshot subsystem must be able
# to pickle them — inline lambdas/closures would break the round-trip.


class _OfferDelivery:
    """Transfer-completion callback of one offer (picklable)."""

    __slots__ = ("orchestrator", "pending", "offer", "candidate")

    def __init__(
        self,
        orchestrator: Orchestrator,
        pending: _PendingTask,
        offer: TaskOffer,
        candidate: CandidateScore,
    ) -> None:
        self.orchestrator = orchestrator
        self.pending = pending
        self.offer = offer
        self.candidate = candidate

    def __call__(self, delivered: bool, _transfer) -> None:
        self.orchestrator._on_offer_delivery(
            delivered, self.pending, self.offer, self.candidate
        )


class _OfferTimeout:
    """Queued offer-timeout callback (picklable)."""

    __slots__ = ("orchestrator", "pending", "offer_id")

    def __init__(
        self, orchestrator: Orchestrator, pending: _PendingTask, offer_id: int
    ) -> None:
        self.orchestrator = orchestrator
        self.pending = pending
        self.offer_id = offer_id

    def __call__(self) -> None:
        self.orchestrator._on_offer_timeout(self.pending, self.offer_id)


class _LocalInvocationDone:
    """FaaS completion callback of a local-fallback execution (picklable)."""

    __slots__ = ("orchestrator", "pending")

    def __init__(self, orchestrator: Orchestrator, pending: _PendingTask) -> None:
        self.orchestrator = orchestrator
        self.pending = pending

    def __call__(self, invocation: InvocationResult) -> None:
        self.orchestrator._on_local_invocation(self.pending, invocation)
