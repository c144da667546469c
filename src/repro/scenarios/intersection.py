"""The "looking around the corner" scenario.

Layout (the paper's Figure 1 situation, concretised):

* A single four-way intersection with occluding buildings in all four
  corners.
* The *ego* vehicle approaches from the south.  A pedestrian (or a slow
  crossing vehicle) is on the east arm, hidden from the ego's own sensors by
  the corner building.
* Several other vehicles approach from the other arms; at least one of them
  has line of sight to the hidden agent and therefore holds the data the ego
  needs.
* The ego periodically submits a ``perceive_objects`` task with a region of
  interest centred on the intersection.  AirDnD places the task on an
  in-range neighbour whose pond covers the region; only the tiny object list
  travels back.

The scenario records :class:`~repro.perception.lookaround.LookAroundMetrics`
(occluded-agent detection) and, via the base class, latency/byte metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.compute.resources import ResourceSpec
from repro.core.models import DataDescription, TaskResult
from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from repro.data.sensors import LidarSensor, LidarSweep
from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mobility.providers import PositionOf
from repro.mobility.road_network import RoadNetwork, single_intersection
from repro.mobility.vehicle import Vehicle, VehicleParameters
from repro.mobility.waypoints import StaticNode
from repro.perception.lookaround import (
    LookAroundMetrics,
    register_perception_functions,
)
from repro.perception.objects import ObjectList
from repro.perception.visibility import observer_visibility
from repro.scenarios.base import BaseScenarioConfig, Scenario, ScenarioReport
from repro.simcore.simulator import Simulator


def corner_buildings(
    setback: float = 12.0, size: float = 60.0
) -> List[Rectangle]:
    """Building footprints in the four corners of the intersection."""
    return [
        Rectangle(setback, setback, setback + size, setback + size),
        Rectangle(-setback - size, setback, -setback, setback + size),
        Rectangle(setback, -setback - size, setback + size, -setback),
        Rectangle(-setback - size, -setback - size, -setback, -setback),
    ]


@dataclass
class IntersectionConfig(BaseScenarioConfig):
    """Parameters of the looking-around-the-corner scenario (plus the shared
    protocol knobs)."""

    num_vehicles: int = 6
    arm_length: float = 200.0
    sensor_range: float = 80.0
    perception_period: float = 1.0
    region_radius: float = 40.0
    vehicle_speed: float = 10.0
    pedestrian_offset: float = 35.0
    seed: int = 0


class IntersectionScenario(Scenario):
    """Assembled looking-around-the-corner scenario."""

    def __init__(self, config: Optional[IntersectionConfig] = None) -> None:
        self.config = config or IntersectionConfig()
        sim = Simulator(seed=self.config.seed)
        super().__init__(sim, name="intersection")

        cfg = self.config
        self.network: RoadNetwork = single_intersection(arm_length=cfg.arm_length)
        self.buildings = corner_buildings()
        self.visibility = VisibilityMap(self.buildings)
        self._build_world(
            tick=0.1,
            functions=register_perception_functions,
            visibility=self.visibility,
        )

        self.metrics = LookAroundMetrics()
        self.perception_results: List[ObjectList] = []

        self._build_agents()
        self._build_vehicles()
        self._schedule_perception()
        self.install_faults()

    # ------------------------------------------------------------- building

    def _build_agents(self) -> None:
        """Create the hidden road users (ground truth, not AirDnD members)."""
        cfg = self.config
        # A pedestrian standing on the east arm, tucked behind the NE corner
        # building as seen from the south approach.
        self.pedestrian = StaticNode(
            self.sim, Vec2(cfg.pedestrian_offset, 6.0), name="pedestrian-0"
        )
        self.mobility.add_node(self.pedestrian)

    def _build_vehicles(self) -> None:
        cfg = self.config
        rng = self.sim.streams.get("scenario")
        arms = ["south", "west", "north", "east"]
        params = VehicleParameters(max_speed=cfg.vehicle_speed)
        spec = ResourceSpec(cpu_ops_per_second=4e9, cores=4, memory_mb=8192)
        self.vehicles: List[Vehicle] = []
        # One occlusion pass per position epoch serves every vehicle's lidar.
        self.lidar_sweep = LidarSweep(self.ground_truth, self.visibility, self.mobility.substrate)
        for index in range(cfg.num_vehicles):
            arm = arms[index % len(arms)]
            opposite = {"south": "north", "north": "south", "east": "west", "west": "east"}[arm]
            start = self.network.position_of(arm)
            # Stagger starting positions along the arm so vehicles do not overlap.
            offset = float(rng.uniform(0.0, cfg.arm_length * 0.4))
            direction = (self.network.position_of("center") - start).normalized()
            start = start + direction * offset
            route = [start, self.network.position_of("center"), self.network.position_of(opposite)]
            vehicle = Vehicle(
                self.sim,
                route,
                params=params,
                name=f"veh-{index}",
                initial_speed=cfg.vehicle_speed * 0.8,
            )
            node = self._add_node(vehicle, spec)
            LidarSensor(
                self.sim,
                vehicle.name,
                position_provider=PositionOf(vehicle),
                ground_truth=self.ground_truth,
                pond=node.pond,
                visibility=self.visibility,
                range_m=self.config.sensor_range,
                sweep=self.lidar_sweep,
            )
        self.ego = self.nodes[0]

    # ---------------------------------------------------------- ground truth

    def ground_truth(self) -> List[Tuple[str, Vec2]]:
        """All agents a perfect sensor could observe."""
        agents = [(v.name, v.position) for v in self.vehicles]
        agents.append((self.pedestrian.name, self.pedestrian.position))
        return agents

    def occluded_from_ego(self) -> List[str]:
        """Ground-truth agents currently hidden from the ego's own sensors."""
        report = observer_visibility(
            self.ego.name,
            self.ego.position,
            self.ground_truth(),
            self.visibility,
            max_range=self.config.sensor_range,
        )
        return list(report.occluded_labels)

    # ------------------------------------------------------------ perception

    def _schedule_perception(self) -> None:
        self.sim.schedule_periodic(
            self.config.perception_period,
            self._perception_round,
            start_delay=2.0,
            name="ego-perception",
        )

    def _perception_round(self) -> None:
        """One ego perception round: local sensing plus an AirDnD task."""
        if self.ego.crashed:
            # A crashed device perceives nothing and submits nothing; rounds
            # resume automatically once the ego recovers.
            return
        cfg = self.config
        region_center = self.network.position_of("center")
        occluded = self.occluded_from_ego()

        # What the ego already knows from its own pond.
        local_list = self._local_object_labels()

        data_need = DataDescription(
            data_type=DataType.LIDAR_SCAN,
            required_quality=DataQuality(
                freshness_s=1.0, coverage_radius_m=30.0, resolution=0.5, accuracy=0.5
            ),
            region_center=region_center,
            region_radius=cfg.region_radius,
        )

        self.ego.submit_function(
            "perceive_objects",
            parameters={
                "region_center": region_center,
                "region_radius": cfg.region_radius,
                "max_age": 1.0,
                "now": self.sim.now,
            },
            data=data_need,
            deadline_s=0.0,
            redundancy=cfg.task_redundancy,
            on_result=_PerceptionFusion(self, occluded, local_list),
        )

    def _fuse_perception(
        self, result: TaskResult, occluded_then: List[str], local_then: List[str]
    ) -> None:
        """Fold one round's remote result into the ego's fused world view."""
        known = set(local_then)
        if result.success and isinstance(result.value, ObjectList):
            self.perception_results.append(result.value)
            known |= set(result.value.labels())
        self.metrics.record_attempt(self.sim.now, occluded_then, sorted(known))

    def _local_object_labels(self) -> List[str]:
        from repro.perception.lookaround import build_local_object_list

        local = build_local_object_list(
            {"now": self.sim.now, "max_age": 1.0}, self.ego.pond
        )
        return local.labels()

    # --------------------------------------------------------------- report

    def build_report(self) -> ScenarioReport:
        report = super().build_report()
        report.extra["occluded_detection_rate"] = self.metrics.occluded_detection_rate()
        report.extra["occluded_agents_detected"] = float(self.metrics.detected_agent_count())
        report.extra["perception_rounds"] = float(self.metrics.attempts)
        return report


class _PerceptionFusion:
    """Result callback of one perception round (picklable).

    Captures the round's occluded/local label lists the way the former
    closure's default arguments did, so a snapshot taken while the task is
    in flight restores the exact same fusion inputs.
    """

    __slots__ = ("scenario", "occluded_then", "local_then")

    def __init__(
        self,
        scenario: IntersectionScenario,
        occluded_then: List[str],
        local_then: List[str],
    ) -> None:
        self.scenario = scenario
        self.occluded_then = occluded_then
        self.local_then = local_then

    def __call__(self, result: TaskResult) -> None:
        self.scenario._fuse_perception(result, self.occluded_then, self.local_then)


def build_intersection_scenario(
    num_vehicles: Optional[int] = None, seed: int = 0, **overrides
) -> IntersectionScenario:
    """``build_scenario("intersection", ...)``; the fleet defaults to the config's."""
    from repro.scenarios import build_scenario  # the package imports this module

    return build_scenario("intersection", num_vehicles, seed, **overrides)
