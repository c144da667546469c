"""Compute nodes: multi-core executors with FIFO queues.

A :class:`ComputeNode` accepts :class:`TaskExecution` requests, runs up to
``cores`` of them concurrently, queues the rest FIFO, and reports headroom —
the quantity advertised in beacons and consumed by the AirDnD candidate
scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional
from collections import deque

from repro.compute.energy import EnergyModel
from repro.compute.resources import ResourceRequirement, ResourceSpec
from repro.simcore.simulator import Simulator


@dataclass
class TaskExecution:
    """One unit of work submitted to a compute node."""

    requirement: ResourceRequirement
    on_complete: Optional[Callable[["TaskExecution"], None]] = None
    label: str = ""
    #: Issued by the FaaS runtime's simulation; -1 for work submitted directly.
    execution_id: int = -1
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    rejected: bool = False

    @property
    def queueing_delay(self) -> Optional[float]:
        """Seconds spent waiting in the queue (None until started)."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def total_latency(self) -> Optional[float]:
        """Submission-to-completion latency (None until finished)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class ComputeNode:
    """A node's local compute capacity and run queue.

    Parameters
    ----------
    sim:
        Simulator used for timing.
    spec:
        The node's :class:`ResourceSpec`.
    owner:
        Name of the owning mesh node (used in metrics).
    reserve_fraction:
        Fraction of capacity the owner keeps for its own workload; only the
        remainder is advertised as headroom to the mesh.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[ResourceSpec] = None,
        owner: str = "node",
        reserve_fraction: float = 0.2,
        energy_model: Optional[EnergyModel] = None,
    ) -> None:
        if not 0.0 <= reserve_fraction < 1.0:
            raise ValueError("reserve_fraction must be in [0, 1)")
        self.sim = sim
        self.spec = spec or ResourceSpec()
        self.owner = owner
        self.reserve_fraction = reserve_fraction
        self.energy = energy_model or EnergyModel()
        self._running: List[TaskExecution] = []
        self._queue: Deque[TaskExecution] = deque()
        self.rejected_count = 0
        self._busy_core_seconds = 0.0
        self._created_at = sim.now

    # -------------------------------------------------------------- status

    @property
    def running_count(self) -> int:
        """Number of tasks currently executing."""
        return len(self._running)

    @property
    def queue_length(self) -> int:
        """Number of tasks waiting for a core."""
        return len(self._queue)

    @property
    def load(self) -> float:
        """Fraction of cores currently busy (can exceed 1 with a queue)."""
        return (self.running_count + self.queue_length) / self.spec.cores

    def headroom_ops(self) -> float:
        """Spare operations/second available to guests right now.

        Headroom is the idle-core throughput minus the owner's reserve; a
        fully busy or over-queued node advertises zero headroom.
        """
        free_cores = max(0, self.spec.cores - self.running_count - self.queue_length)
        gross = free_cores * self.spec.cpu_ops_per_second
        return max(0.0, gross * (1.0 - self.reserve_fraction))

    def utilization(self) -> float:
        """Busy core-seconds divided by total available core-seconds so far."""
        elapsed = self.sim.now - self._created_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_core_seconds / (elapsed * self.spec.cores))

    # ------------------------------------------------------------- execute

    def can_accept(self, requirement: ResourceRequirement) -> bool:
        """Whether the node could run a task with this requirement at all."""
        return requirement.satisfied_by(self.spec)

    def submit(self, execution: TaskExecution) -> bool:
        """Queue (or immediately start) a task execution.

        Returns ``False`` (and marks the execution rejected) when the node's
        static resources cannot satisfy the requirement.
        """
        execution.submitted_at = self.sim.now
        if not self.can_accept(execution.requirement):
            execution.rejected = True
            self.rejected_count += 1
            self.sim.monitor.counter("compute.rejected").add()
            return False
        self._queue.append(execution)
        self._try_start()
        return True

    def _try_start(self) -> None:
        while self._queue and self.running_count < self.spec.cores:
            execution = self._queue.popleft()
            execution.started_at = self.sim.now
            self._running.append(execution)
            duration = execution.requirement.execution_time_on(self.spec)
            self._busy_core_seconds += duration
            self.energy.record_busy(duration)
            self.sim.monitor.sample("compute.execution_time").add(duration)
            self.sim.schedule(
                duration,
                _ExecutionFinish(self, execution),
                name=f"compute-finish:{self.owner}",
            )

    def _finish(self, execution: TaskExecution) -> None:
        execution.finished_at = self.sim.now
        if execution in self._running:
            self._running.remove(execution)
        self.sim.monitor.counter("compute.completed").add()
        if execution.on_complete is not None:
            execution.on_complete(execution)
        self._try_start()


class _ExecutionFinish:
    """Queued completion callback for one running execution (picklable)."""

    __slots__ = ("node", "execution")

    def __init__(self, node: ComputeNode, execution: TaskExecution) -> None:
        self.node = node
        self.execution = execution

    def __call__(self) -> None:
        self.node._finish(self.execution)
