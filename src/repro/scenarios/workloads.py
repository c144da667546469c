"""Workload generators and the generic compute function catalogue.

Besides the perception functions, the urban-grid and utilisation experiments
need a generic, parameterisable compute workload.  ``register_generic_functions``
adds two catalogue entries:

* ``generic_compute`` — a pure function of its declared operation count;
  the result is a small summary dictionary.
* ``map_update`` — a medium-weight function that also touches the executor's
  data pond (counts recent frames), standing in for cooperative-map tasks.

:class:`GenericComputeWorkload` submits such tasks from randomly chosen nodes
with exponential inter-arrival times (a Poisson process per the usual
telecom assumption).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDNode
from repro.core.models import TaskDescription
from repro.core.task_model import build_task
from repro.data.datatypes import DataType
from repro.simcore.simulator import Simulator


def _generic_compute_body(parameters: Dict[str, Any], _pond: Any) -> Dict[str, Any]:
    """Pure compute: return a small summary of what was 'computed'."""
    return {
        "operations": float(parameters.get("operations", 1e8)),
        "label": parameters.get("label", "generic"),
    }


def _generic_compute_cost(parameters: Dict[str, Any]) -> float:
    return float(parameters.get("operations", 1e8))


def _map_update_body(parameters: Dict[str, Any], pond: Any) -> Dict[str, Any]:
    """Touch the executor's pond: summarise how many recent frames exist."""
    now = float(parameters.get("now", 0.0))
    frames = 0
    if pond is not None and hasattr(pond, "frames"):
        frames = len(pond.frames(DataType.LIDAR_SCAN, now, max_age=2.0))
    return {"frames_used": frames}


def _map_update_cost(parameters: Dict[str, Any]) -> float:
    return 2e8 + 5e7 * float(parameters.get("frame_count_hint", 1))


def register_generic_functions(registry: FunctionRegistry) -> None:
    """Register the generic workload functions into a catalogue."""
    registry.register(
        FunctionDefinition(
            name="generic_compute",
            body=_generic_compute_body,
            cost_model=_generic_compute_cost,
            memory_mb=64.0,
            result_size_bytes=500,
        )
    )
    registry.register(
        FunctionDefinition(
            name="map_update",
            body=_map_update_body,
            cost_model=_map_update_cost,
            memory_mb=128.0,
            result_size_bytes=5_000,
        )
    )


class GenericComputeWorkload:
    """Poisson task arrivals over a set of AirDnD nodes.

    Parameters
    ----------
    sim:
        The simulator.
    nodes:
        Nodes that may originate tasks.
    registry:
        The shared function catalogue (must contain ``generic_compute``).
    arrival_rate_per_s:
        Mean tasks per second across the whole fleet.
    operations_range:
        ``(low, high)`` of the per-task operation count (log-uniform draw).
    deadline_s:
        Deadline stamped on each task (0 disables).
    redundancy:
        Replica count stamped on each task (k-redundant execution with
        majority voting when > 1 — the RQ3 integrity backstop).
    rng_stream:
        Random-stream name for reproducibility.
    """

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[AirDnDNode],
        registry: FunctionRegistry,
        arrival_rate_per_s: float = 2.0,
        operations_range: tuple = (5e7, 1e9),
        deadline_s: float = 0.0,
        redundancy: int = 1,
        rng_stream: str = "workload",
    ) -> None:
        if arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if redundancy < 1:
            raise ValueError("redundancy must be at least 1")
        self.sim = sim
        self.nodes = list(nodes)
        self.registry = registry
        self.arrival_rate = arrival_rate_per_s
        self.operations_range = operations_range
        self.deadline_s = deadline_s
        self.redundancy = redundancy
        self._rng = sim.streams.get(rng_stream)
        self.submitted: List[TaskDescription] = []
        # A dict, not a set: set layout follows the hash seed and would
        # make snapshot bytes differ across processes.
        self._suspended: Dict[str, None] = {}
        self._stopped = False
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating new tasks."""
        self._stopped = True

    def suspend_node(self, node: AirDnDNode) -> None:
        """Stop ``node`` originating tasks (crashed; fault injection)."""
        self._suspended[node.name] = None

    def resume_node(self, node: AirDnDNode) -> None:
        """Let ``node`` originate tasks again (recovered)."""
        self._suspended.pop(node.name, None)

    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap = float(self._rng.exponential(1.0 / self.arrival_rate))
        self.sim.schedule(gap, self._submit_one, name="workload-arrival")

    def _submit_one(self) -> None:
        if self._stopped or not self.nodes:
            return
        eligible = (
            [node for node in self.nodes if node.name not in self._suspended]
            if self._suspended
            else self.nodes
        )
        if not eligible:
            # Whole fleet down: skip this arrival but keep the process alive.
            self._schedule_next()
            return
        node = eligible[int(self._rng.integers(len(eligible)))]
        low, high = self.operations_range
        operations = float(
            10 ** self._rng.uniform(math.log10(low), math.log10(high))
        )
        task = build_task(
            self.registry,
            "generic_compute",
            parameters={"operations": operations, "label": f"wl-{len(self.submitted)}"},
            deadline_s=self.deadline_s,
            redundancy=self.redundancy,
        )
        self.submitted.append(task)
        node.submit_task(task)
        self._schedule_next()
