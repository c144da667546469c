"""Urban Manhattan-grid scenario.

Many vehicles drive random routes over a Manhattan grid while a Poisson
workload of generic compute tasks arrives at random nodes.  This scenario is
the workhorse for the mesh-dynamics (E3), utilisation (E5) and scalability
(E9) experiments; it has no ground-truth pedestrians, but ``with_buildings``
fills every block interior with an occluding footprint so cross-block links
pay the NLOS path-loss penalty — the configuration the link-pipeline
benchmark (E13) runs at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compute.resources import ResourceSpec
from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.mesh.topology import TopologyObserver
from repro.mobility.road_network import manhattan_grid
from repro.mobility.vehicle import Vehicle, VehicleParameters
from repro.scenarios.base import BaseScenarioConfig, Scenario, ScenarioReport
from repro.scenarios.workloads import GenericComputeWorkload, register_generic_functions
from repro.simcore.simulator import Simulator


def block_buildings(
    rows: int, cols: int, spacing: float, street_width: float
) -> List[Rectangle]:
    """One building footprint per block interior of a Manhattan grid.

    The grid's intersections sit at multiples of ``spacing``; each footprint
    fills the block between four intersections, set back ``street_width / 2``
    from the connecting road axes.
    """
    margin = street_width / 2.0
    return [
        Rectangle(
            col * spacing + margin,
            row * spacing + margin,
            (col + 1) * spacing - margin,
            (row + 1) * spacing - margin,
        )
        for row in range(rows - 1)
        for col in range(cols - 1)
    ]


@dataclass
class UrbanGridConfig(BaseScenarioConfig):
    """Parameters of the urban-grid scenario (plus the shared protocol knobs)."""

    num_vehicles: int = 20
    grid_rows: int = 4
    grid_cols: int = 4
    block_spacing: float = 150.0
    vehicle_speed: float = 12.0
    task_rate_per_s: float = 2.0
    heterogeneous_compute: bool = True
    with_buildings: bool = False
    street_width: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        """Fail fast on nonsensical geometry knobs (sweepable via ``--set``).

        A street at least as wide as the block spacing leaves no room for a
        building footprint (crashing deep in :class:`Rectangle` with no
        mention of the knob), and a negative width would silently place
        buildings on top of the roads the vehicles drive on.
        """
        super().__post_init__()
        if not 0.0 < self.street_width < self.block_spacing:
            raise ValueError(
                f"street_width must be in (0, block_spacing="
                f"{self.block_spacing}), got {self.street_width}"
            )


class UrbanGridScenario(Scenario):
    """Assembled urban-grid scenario."""

    def __init__(self, config: Optional[UrbanGridConfig] = None) -> None:
        self.config = config or UrbanGridConfig()
        sim = Simulator(seed=self.config.seed)
        super().__init__(sim, name="urban_grid")
        cfg = self.config

        self.network = manhattan_grid(cfg.grid_rows, cfg.grid_cols, cfg.block_spacing)
        self.buildings: List[Rectangle] = (
            block_buildings(
                cfg.grid_rows, cfg.grid_cols, cfg.block_spacing, cfg.street_width
            )
            if cfg.with_buildings
            else []
        )
        self.visibility = VisibilityMap(self.buildings) if self.buildings else None
        self._build_world(
            tick=0.2,
            functions=register_generic_functions,
            visibility=self.visibility,
        )
        self._build_vehicles()
        self.topology = TopologyObserver(
            sim, [node.mesh for node in self.nodes], period=1.0
        )
        self.workload = GenericComputeWorkload(
            sim,
            self.nodes,
            self.registry,
            arrival_rate_per_s=cfg.task_rate_per_s,
            redundancy=cfg.task_redundancy,
        )
        self.install_faults(workload=self.workload)

    def _build_vehicles(self) -> None:
        cfg = self.config
        rng = self.sim.streams.get("scenario")
        params = VehicleParameters(max_speed=cfg.vehicle_speed)
        self.vehicles: List[Vehicle] = []
        for index in range(cfg.num_vehicles):
            path = self.network.random_route(rng, min_hops=3)
            # A round trip: out along the path and back, so the loop's wrap
            # to the first waypoint runs along the road, not across a block.
            route = self.network.path_to_polyline(path + path[-2:0:-1])
            vehicle = Vehicle(
                self.sim,
                route,
                params=params,
                name=f"car-{index}",
                initial_speed=cfg.vehicle_speed * 0.5,
                loop_route=True,
            )
            self._add_node(vehicle, self._compute_spec(index, rng))

    def _compute_spec(self, index: int, rng) -> ResourceSpec:
        """Heterogeneous fleet: every third vehicle is compute-rich."""
        if not self.config.heterogeneous_compute:
            return ResourceSpec(cpu_ops_per_second=2e9, cores=2)
        if index % 3 == 0:
            return ResourceSpec(
                cpu_ops_per_second=8e9, cores=4, memory_mb=16384, accelerators={"gpu": 5e10}
            )
        if index % 3 == 1:
            return ResourceSpec(cpu_ops_per_second=2e9, cores=2, memory_mb=4096)
        return ResourceSpec(cpu_ops_per_second=5e8, cores=1, memory_mb=1024)

    # --------------------------------------------------------------- report

    def build_report(self) -> ScenarioReport:
        report = super().build_report()
        latest = self.topology.latest()
        report.extra["mesh_largest_component"] = float(
            latest.largest_component_size() if latest else 0
        )
        report.extra["mesh_mean_degree"] = float(latest.mean_degree() if latest else 0.0)
        report.extra["mesh_mean_link_lifetime_s"] = self.topology.mean_link_lifetime()
        utilizations = [node.compute.utilization() for node in self.nodes]
        report.extra["mean_utilization"] = (
            sum(utilizations) / len(utilizations) if utilizations else 0.0
        )
        report.extra["max_utilization"] = max(utilizations) if utilizations else 0.0
        return report


def build_urban_grid_scenario(
    num_vehicles: Optional[int] = None, seed: int = 0, **overrides
) -> UrbanGridScenario:
    """``build_scenario("urban-grid", ...)``; the fleet defaults to the config's."""
    from repro.scenarios import build_scenario  # the package imports this module

    return build_scenario("urban-grid", num_vehicles, seed, **overrides)
