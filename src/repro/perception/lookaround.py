"""The "looking around the corner" perception task library.

This module defines the FaaS functions that AirDnD offloads in the driving
use case, plus the metrics used to evaluate the benefit.

The two shareable products are:

* ``perceive_objects`` — build an :class:`~repro.perception.objects.ObjectList`
  from the executor's local data pond, restricted to a region of interest.
  Tiny result, ideal for the corner use case.
* ``perceive_occupancy`` — build an
  :class:`~repro.perception.occupancy.OccupancyGrid` over a region of
  interest from local lidar frames.  Larger result, richer geometry.

Both read *only the executor's own pond*; the requesting vehicle never sees
raw frames — exactly the "tasks travel, data stays" inversion of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.geometry.vector import Vec2
from repro.perception.objects import FusedObject, ObjectList
from repro.perception.occupancy import GridSpec, OccupancyGrid

#: Approximate operations to process one lidar frame into an object list.
OBJECT_PIPELINE_OPS_PER_FRAME = 4e7
#: Approximate operations to rasterise one lidar frame into an occupancy grid.
OCCUPANCY_PIPELINE_OPS_PER_FRAME = 1.2e8


# --------------------------------------------------------------------- bodies


def build_local_object_list(parameters: Dict[str, Any], pond: DataPond) -> ObjectList:
    """Compute an object list from the executor's pond.

    Parameters (all optional):

    * ``now`` — current virtual time (defaults to newest frame's timestamp).
    * ``region_center`` / ``region_radius`` — restrict output to a region.
    * ``max_age`` — ignore frames older than this many seconds.
    """
    now = float(parameters.get("now", 0.0))
    max_age = float(parameters.get("max_age", 1.0))
    region_center: Optional[Vec2] = parameters.get("region_center")
    region_radius = float(parameters.get("region_radius", float("inf")))

    frames = pond.frames(DataType.LIDAR_SCAN, now, max_age=max_age)
    if not frames:
        return ObjectList(observer=pond.owner, timestamp=now, objects=[])
    latest = frames[-1]
    objects: List[FusedObject] = []
    for detection in latest.detections:
        if region_center is not None:
            if detection.position.distance_to(region_center) > region_radius:
                continue
        objects.append(
            FusedObject(
                label=detection.label,
                position=detection.position,
                confidence=detection.confidence,
            )
        )
    return ObjectList(observer=pond.owner, timestamp=latest.timestamp, objects=objects)


def build_local_occupancy(parameters: Dict[str, Any], pond: DataPond) -> OccupancyGrid:
    """Rasterise the executor's recent lidar frames into an occupancy grid.

    Required parameter: ``grid_spec`` (a :class:`GridSpec`).  Optional:
    ``now``, ``max_age``.
    """
    spec: GridSpec = parameters["grid_spec"]
    now = float(parameters.get("now", 0.0))
    max_age = float(parameters.get("max_age", 1.0))
    grid = OccupancyGrid(spec)
    for frame in pond.frames(DataType.LIDAR_SCAN, now, max_age=max_age):
        for detection in frame.detections:
            grid.mark_ray_free(frame.origin, detection.position)
            grid.mark_occupied(detection.position)
    return grid


# ----------------------------------------------------------------- cost model


def _object_list_cost(parameters: Dict[str, Any]) -> float:
    frames = float(parameters.get("frame_count_hint", 1))
    return OBJECT_PIPELINE_OPS_PER_FRAME * max(1.0, frames)


def _occupancy_cost(parameters: Dict[str, Any]) -> float:
    frames = float(parameters.get("frame_count_hint", 3))
    return OCCUPANCY_PIPELINE_OPS_PER_FRAME * max(1.0, frames)


def _result_size_bytes(result: Any) -> int:
    """Data-dependent result size (module-level so registries pickle)."""
    return result.size_bytes()


def register_perception_functions(registry: FunctionRegistry) -> None:
    """Register the standard perception functions into a shared registry."""
    registry.register(
        FunctionDefinition(
            name="perceive_objects",
            body=build_local_object_list,
            cost_model=_object_list_cost,
            memory_mb=128.0,
            result_size_bytes=_result_size_bytes,
        )
    )
    registry.register(
        FunctionDefinition(
            name="perceive_occupancy",
            body=build_local_occupancy,
            cost_model=_occupancy_cost,
            memory_mb=256.0,
            result_size_bytes=_result_size_bytes,
        )
    )


# -------------------------------------------------------------------- metrics


@dataclass
class LookAroundMetrics:
    """Evaluation metrics for the looking-around-the-corner experiment (E1).

    ``record_attempt`` is called once per perception round of the ego vehicle
    with the set of ground-truth occluded agents and the set of agents the
    ego ended up knowing about (after local perception or after fusion with
    remote AirDnD results).
    """

    attempts: int = 0
    occluded_present: int = 0
    occluded_detected: int = 0
    first_detection_time: Dict[str, float] = field(default_factory=dict)

    def record_attempt(
        self,
        time: float,
        occluded_ground_truth: List[str],
        known_labels: List[str],
    ) -> None:
        """Record one perception round."""
        self.attempts += 1
        known = set(known_labels)
        for label in occluded_ground_truth:
            self.occluded_present += 1
            if label in known:
                self.occluded_detected += 1
                if label not in self.first_detection_time:
                    self.first_detection_time[label] = time

    def occluded_detection_rate(self) -> float:
        """Fraction of occluded-agent observations that were detected."""
        if self.occluded_present == 0:
            return 1.0
        return self.occluded_detected / self.occluded_present

    def detected_agent_count(self) -> int:
        """Number of distinct occluded agents detected at least once."""
        return len(self.first_detection_time)
