"""FaaS-style function registry and runtime.

The paper frames task offloading in Function-as-a-Service terms: the task that
travels across the mesh is a *named function* plus parameters, never raw code
or raw data (Model 2).  :class:`FunctionRegistry` holds the catalogue of
functions every AirDnD node agrees on; :class:`FaaSRuntime` executes them on a
:class:`~repro.compute.node.ComputeNode` with warm/cold start latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.compute.node import ComputeNode, TaskExecution
from repro.compute.resources import ResourceRequirement
from repro.simcore.simulator import Simulator

#: A function body receives (parameters, local data pond view) and returns a
#: result object.  Cost models receive the same parameters and return the
#: operation count, so heterogeneous inputs cost different amounts.
FunctionBody = Callable[[Dict[str, Any], Any], Any]
CostModel = Callable[[Dict[str, Any]], float]


def default_cost_model(params: Dict[str, Any]) -> float:
    """Flat 1e8-operation cost for functions that don't declare their own.

    A module-level function (not a lambda default) so definitions — and the
    simulation graphs holding them — survive a snapshot pickle round-trip.
    """
    return 1e8


@dataclass
class FunctionDefinition:
    """One named function in the shared catalogue.

    Attributes
    ----------
    name:
        Unique function name (what travels inside a TaskDescription).
    body:
        The Python callable executed on the executor node.
    cost_model:
        Maps call parameters to an operation count.
    memory_mb:
        Working set of one invocation.
    result_size_bytes:
        Serialized size of the result returned over the mesh; may also be a
        callable of the result object for data-dependent sizes.
    accelerator:
        Optional accelerator that speeds up the function.
    """

    name: str
    body: FunctionBody
    cost_model: CostModel = field(default=default_cost_model)
    memory_mb: float = 256.0
    result_size_bytes: Any = 10_000
    accelerator: str = ""
    accelerator_required: bool = False

    def requirement(self, parameters: Dict[str, Any], deadline: float = 0.0) -> ResourceRequirement:
        """Resource requirement of one invocation with ``parameters``."""
        return ResourceRequirement(
            operations=float(self.cost_model(parameters)),
            memory_mb=self.memory_mb,
            accelerator=self.accelerator,
            accelerator_required=self.accelerator_required,
            deadline=deadline,
        )

    def result_size(self, result: Any) -> int:
        """Serialized size of ``result`` in bytes."""
        if callable(self.result_size_bytes):
            return int(self.result_size_bytes(result))
        return int(self.result_size_bytes)


class FunctionRegistry:
    """The catalogue of functions known to every node in the system."""

    def __init__(self) -> None:
        self._functions: Dict[str, FunctionDefinition] = {}

    def register(self, definition: FunctionDefinition) -> None:
        """Add a function; duplicate names are an error."""
        if definition.name in self._functions:
            raise ValueError(f"function {definition.name!r} already registered")
        self._functions[definition.name] = definition

    def get(self, name: str) -> FunctionDefinition:
        """Look up a function by name (raises ``KeyError`` when unknown)."""
        if name not in self._functions:
            raise KeyError(f"unknown function {name!r}")
        return self._functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> List[str]:
        """All registered function names."""
        return list(self._functions)


@dataclass
class InvocationResult:
    """Outcome of one FaaS invocation."""

    function_name: str
    result: Any
    result_size_bytes: int
    compute_time: float
    startup_time: float
    total_time: float


class FaaSRuntime:
    """Executes registry functions on a local compute node.

    Cold starts add ``cold_start_latency`` seconds the first time a function
    runs on this node (and again if it has been evicted); warm starts add
    ``warm_start_latency``.
    """

    def __init__(
        self,
        sim: Simulator,
        compute: ComputeNode,
        registry: FunctionRegistry,
        cold_start_latency: float = 0.25,
        warm_start_latency: float = 0.01,
        warm_pool_size: int = 8,
    ) -> None:
        self.sim = sim
        self.compute = compute
        self.registry = registry
        self.cold_start_latency = cold_start_latency
        self.warm_start_latency = warm_start_latency
        self.warm_pool_size = warm_pool_size
        self._warm: List[str] = []
        self.invocations = 0
        self.cold_starts = 0

    def _startup_time(self, function_name: str) -> float:
        if function_name in self._warm:
            self._warm.remove(function_name)
            self._warm.append(function_name)
            return self.warm_start_latency
        self.cold_starts += 1
        self._warm.append(function_name)
        if len(self._warm) > self.warm_pool_size:
            self._warm.pop(0)
        return self.cold_start_latency

    def invoke(
        self,
        function_name: str,
        parameters: Dict[str, Any],
        data_pond: Any,
        on_complete: Callable[[InvocationResult], None],
        deadline: float = 0.0,
    ) -> None:
        """Invoke ``function_name`` asynchronously; result arrives via callback."""
        definition = self.registry.get(function_name)
        requirement = definition.requirement(parameters, deadline)
        startup = self._startup_time(function_name)
        self.invocations += 1
        pending = _PendingInvocation(
            runtime=self,
            definition=definition,
            parameters=parameters,
            data_pond=data_pond,
            on_complete=on_complete,
            requirement=requirement,
            startup=startup,
            started=self.sim.now,
        )
        self.sim.schedule(startup, pending, name=f"faas-start:{function_name}")


class _PendingInvocation:
    """One in-flight FaaS invocation, from startup delay to result callback.

    Replaces the nested ``_submit``/``_run_body`` closures: instances land in
    the event queue (as the startup-delay callback) and on the
    :class:`~repro.compute.node.TaskExecution` (as its completion callback via
    the bound :meth:`run_body`), so they must pickle for snapshots.
    """

    __slots__ = (
        "runtime",
        "definition",
        "parameters",
        "data_pond",
        "on_complete",
        "requirement",
        "startup",
        "started",
    )

    def __init__(
        self,
        runtime: FaaSRuntime,
        definition: FunctionDefinition,
        parameters: Dict[str, Any],
        data_pond: Any,
        on_complete: Callable[[InvocationResult], None],
        requirement: ResourceRequirement,
        startup: float,
        started: float,
    ) -> None:
        self.runtime = runtime
        self.definition = definition
        self.parameters = parameters
        self.data_pond = data_pond
        self.on_complete = on_complete
        self.requirement = requirement
        self.startup = startup
        self.started = started

    def __call__(self) -> None:
        """Startup delay elapsed: submit the execution to the compute node."""
        execution = TaskExecution(
            requirement=self.requirement,
            on_complete=self.run_body,
            label=self.definition.name,
            execution_id=self.runtime.sim.new_id("execution"),
        )
        accepted = self.runtime.compute.submit(execution)
        if not accepted:
            invocation = InvocationResult(
                function_name=self.definition.name,
                result=None,
                result_size_bytes=0,
                compute_time=0.0,
                startup_time=self.startup,
                total_time=self.runtime.sim.now - self.started,
            )
            self.on_complete(invocation)

    def run_body(self, execution: TaskExecution) -> None:
        """Compute time elapsed: run the function body and deliver the result."""
        definition = self.definition
        runtime = self.runtime
        result = definition.body(self.parameters, self.data_pond)
        invocation = InvocationResult(
            function_name=definition.name,
            result=result,
            result_size_bytes=definition.result_size(result),
            compute_time=self.requirement.execution_time_on(runtime.compute.spec),
            startup_time=self.startup,
            total_time=runtime.sim.now - self.started,
        )
        self.on_complete(invocation)
