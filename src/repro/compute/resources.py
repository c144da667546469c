"""Resource specifications and requirement matching.

A :class:`ResourceSpec` describes what a node *has*; a
:class:`ResourceRequirement` describes what a task *needs*.  Matching the two
is one of the filters in AirDnD candidate selection (RQ1): a node that cannot
even hold the task's working set is never a candidate, however close it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class ResourceSpec:
    """Compute resources owned by one node.

    Attributes
    ----------
    cpu_ops_per_second:
        Aggregate throughput of one core, in abstract operations per second.
    cores:
        Number of cores that can execute tasks concurrently.
    memory_mb:
        RAM available to guest tasks.
    accelerators:
        Named accelerators and their throughput, e.g. ``{"gpu": 5e10}``.
    """

    cpu_ops_per_second: float = 1e9
    cores: int = 2
    memory_mb: float = 2048.0
    accelerators: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cpu_ops_per_second <= 0:
            raise ValueError("cpu_ops_per_second must be positive")
        if self.cores < 1:
            raise ValueError("a node needs at least one core")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")

    def has_accelerator(self, name: str) -> bool:
        """Whether the node owns an accelerator called ``name``."""
        return name in self.accelerators

    def effective_rate(self, requirement: "ResourceRequirement") -> float:
        """Operations/second this node can give the described task.

        Accelerated tasks run at the accelerator's rate when present, else at
        CPU rate (the task is still runnable, just slower).
        """
        if requirement.accelerator and self.has_accelerator(requirement.accelerator):
            return self.accelerators[requirement.accelerator]
        return self.cpu_ops_per_second


@dataclass(frozen=True)
class ResourceRequirement:
    """What a task needs from an executor.

    Attributes
    ----------
    operations:
        Total abstract operations to execute.
    memory_mb:
        Working-set size.
    accelerator:
        Optional accelerator name that speeds the task up.
    accelerator_required:
        When ``True`` a node lacking the accelerator cannot run the task at
        all (e.g. a model that simply does not fit on CPU in time).
    deadline:
        Optional relative deadline in seconds (checked by the orchestrator).
    """

    operations: float = 1e8
    memory_mb: float = 256.0
    accelerator: str = ""
    accelerator_required: bool = False
    deadline: float = 0.0

    def __post_init__(self) -> None:
        if self.operations <= 0:
            raise ValueError("operations must be positive")
        if self.memory_mb < 0:
            raise ValueError("memory_mb cannot be negative")

    def satisfied_by(self, spec: ResourceSpec) -> bool:
        """Whether a node with ``spec`` can run this task at all."""
        if self.memory_mb > spec.memory_mb:
            return False
        if self.accelerator_required and not spec.has_accelerator(self.accelerator):
            return False
        return True

    def execution_time_on(self, spec: ResourceSpec) -> float:
        """Seconds of pure compute this task takes on a node with ``spec``."""
        return self.operations / spec.effective_rate(self)
