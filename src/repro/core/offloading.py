"""RQ2: the offloading wire protocol and the executor-side agent.

The protocol is deliberately small — four message types carried over the
mesh transport:

* ``airdnd.offer``   — requester → executor: a :class:`TaskOffer` containing
  the full Model 2 task description.
* ``airdnd.reject``  — executor → requester: the executor cannot (or will
  not) run the task; carries a reason for attribution.
* ``airdnd.result``  — executor → requester: the task's result value plus its
  timing breakdown.
* ``airdnd.attest`` / ``airdnd.attest_reply`` — optional attestation
  challenge/response on first contact (RQ3).

There is no "accept" message: accepting is implicit in eventually sending a
result.  This halves the protocol's message count and keeps the requester's
state machine purely timeout-driven — the asynchronous style the paper calls
for.  The executor side is :class:`ExecutorAgent`; the requester side lives
in :mod:`repro.core.orchestrator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.compute.faas import FaaSRuntime, InvocationResult
from repro.compute.node import ComputeNode
from repro.core.data_model import pond_satisfies
from repro.core.models import TaskDescription
from repro.core.task_model import TaskValidationError, validate_task
from repro.core.trust import TrustManager
from repro.data.pond import DataPond
from repro.mesh.node import MeshNode
from repro.simcore.simulator import Simulator

#: Serialized sizes (bytes) of the small protocol messages.
REJECT_SIZE_BYTES = 120
ATTEST_SIZE_BYTES = 150


@dataclass
class TaskOffer:
    """Requester → executor: please run this task next to your data."""

    task: TaskDescription
    requester: str
    sent_at: float
    offer_id: int


@dataclass
class TaskReject:
    """Executor → requester: not running this one (with a reason)."""

    offer_id: int
    task_id: int
    executor: str
    reason: str


@dataclass
class TaskResultMessage:
    """Executor → requester: the result of an accepted offer."""

    offer_id: int
    task_id: int
    executor: str
    value: Any
    result_size_bytes: int
    compute_time_s: float
    produced_at: float
    success: bool = True


@dataclass
class AttestationChallenge:
    """Requester → executor: prove you are who your beacons claim."""

    nonce: str
    requester: str


@dataclass
class AttestationReply:
    """Executor → requester: keyed digest over the nonce."""

    nonce: str
    executor: str
    response: str


@dataclass
class ExecutorPolicy:
    """Local admission policy of an executor.

    Attributes
    ----------
    max_queue_length:
        Offers are rejected while the local queue is this long or longer.
    min_headroom_ops:
        Offers are rejected when advertised headroom falls below this.
    accept_probability:
        Probability of accepting an otherwise admissible offer (used by
        failure-injection tests; 1.0 in normal operation).
    """

    max_queue_length: int = 4
    min_headroom_ops: float = 0.0
    accept_probability: float = 1.0


class ExecutorAgent:
    """The executor side of the offloading protocol for one node."""

    def __init__(
        self,
        sim: Simulator,
        mesh_node: MeshNode,
        compute: ComputeNode,
        faas: FaaSRuntime,
        pond: DataPond,
        trust: TrustManager,
        policy: Optional[ExecutorPolicy] = None,
        result_corruptor: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.sim = sim
        self.mesh_node = mesh_node
        self.compute = compute
        self.faas = faas
        self.pond = pond
        self.trust = trust
        self.policy = policy or ExecutorPolicy()
        #: Optional hook used by integrity experiments to model a malicious
        #: executor returning fabricated results.
        self.result_corruptor = result_corruptor
        #: Free-rider switch (set by :mod:`repro.faults.adversary`): the
        #: agent accepts admissible offers — no reject is ever sent — but
        #: neither executes nor replies, so the requester burns a full offer
        #: timeout per attempt.
        self.silent = False
        self.offers_received = 0
        self.offers_accepted = 0
        self.offers_rejected = 0
        self.results_sent = 0
        mesh_node.on_receive(self._on_transfer)

    @property
    def name(self) -> str:
        """Name of the node this agent executes for."""
        return self.mesh_node.name

    # -------------------------------------------------------------- receive

    def _on_transfer(self, source: str, kind: str, payload: Any, _size: int) -> None:
        if kind == "airdnd.offer" and isinstance(payload, TaskOffer):
            self._handle_offer(source, payload)
        elif kind == "airdnd.attest" and isinstance(payload, AttestationChallenge):
            self._handle_attestation(source, payload)

    def _handle_attestation(self, source: str, challenge: AttestationChallenge) -> None:
        reply = AttestationReply(
            nonce=challenge.nonce,
            executor=self.name,
            response=TrustManager.attestation_response(self.name, challenge.nonce),
        )
        self.mesh_node.send_reliable(
            source, reply, ATTEST_SIZE_BYTES, kind="airdnd.attest_reply"
        )

    def _handle_offer(self, source: str, offer: TaskOffer) -> None:
        self.offers_received += 1
        self.sim.monitor.counter("airdnd.offers_received").add()
        task = offer.task

        reason = self._admission_reason(task)
        if reason is not None:
            self._reject(source, offer, reason)
            return

        self.offers_accepted += 1
        self.sim.monitor.counter("airdnd.offers_accepted").add()
        if self.silent:
            # Free-riding: the implicit accept stands, but no work happens
            # and no result (or reject) is ever sent back.
            return
        parameters = dict(task.parameters)
        parameters.setdefault("now", self.sim.now)
        self.faas.invoke(
            task.function_name,
            parameters,
            self.pond,
            on_complete=_ResultReply(self, source, offer),
            deadline=task.deadline_s,
        )

    def _send_result(
        self, source: str, offer: TaskOffer, invocation: InvocationResult
    ) -> None:
        """Wrap a finished invocation in a result message and send it back."""
        value = invocation.result
        if self.result_corruptor is not None:
            value = self.result_corruptor(value)
        message = TaskResultMessage(
            offer_id=offer.offer_id,
            task_id=offer.task.task_id,
            executor=self.name,
            value=value,
            result_size_bytes=invocation.result_size_bytes,
            compute_time_s=invocation.compute_time,
            produced_at=self.sim.now,
            success=value is not None,
        )
        self.results_sent += 1
        self.sim.monitor.counter("airdnd.results_sent").add()
        self.mesh_node.send_reliable(
            source,
            message,
            max(invocation.result_size_bytes, 200),
            kind="airdnd.result",
        )

    # ------------------------------------------------------------ admission

    def _admission_reason(self, task: TaskDescription) -> Optional[str]:
        """Why the task cannot be admitted (None when it can)."""
        try:
            validate_task(self.faas.registry, task)
        except TaskValidationError as error:
            return str(error)
        if self.compute.queue_length >= self.policy.max_queue_length:
            return "executor queue full"
        if self.compute.headroom_ops() < self.policy.min_headroom_ops:
            return "insufficient headroom"
        from repro.core.task_model import requirement_of

        if not self.compute.can_accept(requirement_of(task)):
            return "static resources insufficient"
        ok, data_reason = pond_satisfies(self.pond, task.data, self.sim.now)
        if not ok:
            return data_reason
        if self.policy.accept_probability < 1.0:
            rng = self.sim.streams.get(f"executor-accept:{self.name}")
            if rng.random() > self.policy.accept_probability:
                return "executor declined (policy)"
        return None

    def _reject(self, source: str, offer: TaskOffer, reason: str) -> None:
        self.offers_rejected += 1
        self.sim.monitor.counter("airdnd.offers_rejected").add()
        reject = TaskReject(
            offer_id=offer.offer_id,
            task_id=offer.task.task_id,
            executor=self.name,
            reason=reason,
        )
        self.mesh_node.send_reliable(
            source, reject, REJECT_SIZE_BYTES, kind="airdnd.reject"
        )


class _ResultReply:
    """FaaS completion callback replying to one accepted offer (picklable).

    Lives inside the FaaS runtime / compute queue while the task executes, so
    snapshots must be able to pickle it — the nested closure it replaces
    could not be.
    """

    __slots__ = ("agent", "source", "offer")

    def __init__(self, agent: ExecutorAgent, source: str, offer: TaskOffer) -> None:
        self.agent = agent
        self.source = source
        self.offer = offer

    def __call__(self, invocation: InvocationResult) -> None:
        self.agent._send_result(self.source, self.offer, invocation)
