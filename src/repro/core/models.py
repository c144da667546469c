"""The three AirDnD description models (plus results).

The paper structures its contribution as three models in different layers:

* **Model 1 — Network Description** (:class:`NetworkDescription`): what one
  node knows, at one instant, about the spontaneously formed mesh around it —
  who is reachable, with what link quality, for how much longer, and with how
  much spare compute.
* **Model 2 — Task Description** (:class:`TaskDescription`): a formal,
  abstract description of a computation so that it "could work on the
  receiving node": a catalogue function name, parameters, resource needs, a
  deadline and the data it must be executed next to.
* **Model 3 — Data Description** (:class:`DataDescription`): the type and
  quality of data the task requires, and the region of interest it must
  cover.

All three are plain, serialisable dataclasses: they are what actually travels
over the mesh (tasks and results), or what the orchestrator materialises
locally from beacons (network descriptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from repro.geometry.vector import Vec2


# --------------------------------------------------------------------- Model 3


@dataclass(frozen=True)
class DataDescription:
    """Model 3: the data a task needs at its executor.

    Attributes
    ----------
    data_type:
        Which kind of data the executor must hold locally.
    required_quality:
        Minimum acceptable :class:`~repro.data.quality.DataQuality`.
    region_center / region_radius:
        Region of interest the data must cover (``None`` = anywhere).
    max_result_staleness_s:
        How old the result may be when it finally reaches the requester and
        still be useful; used for admission control against slow paths.
    """

    data_type: DataType = DataType.LIDAR_SCAN
    required_quality: DataQuality = field(default_factory=DataQuality)
    region_center: Optional[Vec2] = None
    region_radius: float = 30.0
    max_result_staleness_s: float = 2.0


# --------------------------------------------------------------------- Model 2


@dataclass
class TaskDescription:
    """Model 2: a formal, self-contained description of a computation.

    The task carries *what* to run (a shared-catalogue function name and its
    parameters), *what it needs* (operations, memory, data description) and
    *how urgent it is* (deadline) — never code and never data.

    Attributes
    ----------
    function_name:
        Name in the shared :class:`~repro.compute.faas.FunctionRegistry`.
    parameters:
        Keyword parameters passed to the function body.
    operations:
        Estimated compute cost in abstract operations.
    memory_mb:
        Working-set requirement.
    data:
        The Model 3 :class:`DataDescription` this task must be placed next to
        (``None`` for pure computation).
    deadline_s:
        Relative deadline from submission; 0 disables deadline checking.
    requester:
        Name of the node that created the task (filled in by the
        orchestrator).
    task_id:
        Identifier issued by the requester's simulation when the task is
        submitted (-1 before that).
    size_bytes:
        Serialized size of the description itself (small by construction).
    redundancy:
        Number of independent executors the orchestrator should try to use
        (>1 enables the trust layer's voting).
    """

    function_name: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    operations: float = 1e8
    memory_mb: float = 128.0
    data: Optional[DataDescription] = None
    deadline_s: float = 0.0
    requester: str = ""
    size_bytes: int = 600
    redundancy: int = 1
    task_id: int = -1

    def __post_init__(self) -> None:
        if self.operations <= 0:
            raise ValueError("operations must be positive")
        if self.redundancy < 1:
            raise ValueError("redundancy must be at least 1")

    def with_requester(self, requester: str, task_id: int) -> "TaskDescription":
        """Copy of the task stamped with its requesting node and its id."""
        return replace(
            self, parameters=dict(self.parameters), requester=requester, task_id=task_id
        )


# --------------------------------------------------------------------- Model 1


@dataclass
class NeighborDescription:
    """One neighbour as seen inside a :class:`NetworkDescription`.

    All fields derive from the neighbour's most recent beacon and from the
    local link measurement made when that beacon was received — nothing here
    required an extra message exchange.

    Read-only once built.  Not frozen: a frozen ``__init__`` pays one
    ``object.__setattr__`` per field, most of a view's per-neighbour cost.
    """

    name: str
    position: Vec2
    velocity: Vec2
    distance_m: float
    link_rate_bps: float
    link_snr_db: float
    compute_headroom_ops: float
    queue_length: int
    data_summary: Dict[str, Tuple[float, float, float]]
    trust_score: float
    beacon_age_s: float
    predicted_contact_time_s: float

    def has_data(self, data_type: DataType) -> bool:
        """Whether the neighbour advertised any data of ``data_type``."""
        return data_type.value in self.data_summary


@dataclass
class NetworkDescription:
    """Model 1: one node's instantaneous view of its surrounding mesh.

    Built afresh on every request and read-only once built.

    Attributes
    ----------
    owner:
        The node whose view this is.
    time:
        Virtual time the description was materialised.
    position:
        The owner's position at that time.
    neighbors:
        Every in-range neighbour with its derived properties.
    epoch:
        The owner's membership epoch (for diagnosing staleness).
    """

    owner: str
    time: float
    position: Vec2
    neighbors: List[NeighborDescription] = field(default_factory=list)
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.neighbors)

    def neighbor(self, name: str) -> Optional[NeighborDescription]:
        """Look up one neighbour by name."""
        for neighbor in self.neighbors:
            if neighbor.name == name:
                return neighbor
        return None

    def names(self) -> List[str]:
        """Names of all neighbours in the view."""
        return [n.name for n in self.neighbors]

    def total_headroom_ops(self) -> float:
        """Aggregate advertised spare compute across the view."""
        return sum(n.compute_headroom_ops for n in self.neighbors)

    def with_data(self, data_type: DataType) -> List[NeighborDescription]:
        """Neighbours advertising data of ``data_type``."""
        return [n for n in self.neighbors if n.has_data(data_type)]


# --------------------------------------------------------------------- results


@dataclass
class TaskResult:
    """Outcome of one task execution, as returned to the requester.

    Attributes
    ----------
    task_id:
        Identity of the task this result answers.
    executor:
        Node that produced the result ("local" executions use the requester).
    success:
        Whether a usable result was produced.
    value:
        The function's return value (``None`` on failure).
    produced_at:
        Virtual time the executor finished computing.
    compute_time_s / transfer_time_s / total_latency_s:
        Timing breakdown filled in by the orchestrator.
    result_size_bytes:
        Serialized size of ``value``.
    failure_reason:
        Human-readable reason when ``success`` is ``False``.
    """

    task_id: int
    executor: str
    success: bool
    value: Any = None
    produced_at: float = 0.0
    compute_time_s: float = 0.0
    transfer_time_s: float = 0.0
    total_latency_s: float = 0.0
    result_size_bytes: int = 0
    failure_reason: str = ""
