"""Highway platoon scenario.

A straight multi-kilometre road with vehicles travelling in both directions.
Contacts between same-direction vehicles are long (platoons), contacts across
directions are short (high relative speed) — the configuration that stresses
the contact-time term of the candidate scorer.  Used by the candidate-
selection ablation (E6) and as a third example application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.compute.resources import ResourceSpec
from repro.geometry.vector import Vec2
from repro.mobility.vehicle import Vehicle, VehicleParameters
from repro.scenarios.base import BaseScenarioConfig, Scenario, ScenarioReport
from repro.scenarios.workloads import GenericComputeWorkload, register_generic_functions
from repro.simcore.simulator import Simulator


@dataclass
class HighwayConfig(BaseScenarioConfig):
    """Parameters of the highway scenario (plus the shared protocol knobs)."""

    vehicles_per_direction: int = 8
    road_length: float = 2000.0
    lane_gap: float = 8.0
    headway: float = 60.0
    forward_speed: float = 25.0
    backward_speed: float = 22.0
    task_rate_per_s: float = 1.0
    seed: int = 0


class HighwayScenario(Scenario):
    """Assembled highway scenario."""

    def __init__(self, config: Optional[HighwayConfig] = None) -> None:
        self.config = config or HighwayConfig()
        sim = Simulator(seed=self.config.seed)
        super().__init__(sim, name="highway")
        cfg = self.config

        self._build_world(tick=0.2, functions=register_generic_functions)
        self._build_vehicles()
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
        params_fwd = VehicleParameters(max_speed=cfg.forward_speed)
        params_bwd = VehicleParameters(max_speed=cfg.backward_speed)
        self.vehicles: List[Vehicle] = []
        spec = ResourceSpec(cpu_ops_per_second=3e9, cores=2, memory_mb=4096)
        for index in range(cfg.vehicles_per_direction):
            start_x = -float(index) * cfg.headway
            vehicle = Vehicle(
                self.sim,
                [Vec2(start_x, 0.0), Vec2(cfg.road_length, 0.0)],
                params=params_fwd,
                name=f"fwd-{index}",
                initial_speed=cfg.forward_speed,
            )
            self._add_node(vehicle, spec)
        for index in range(cfg.vehicles_per_direction):
            start_x = cfg.road_length + float(index) * cfg.headway
            vehicle = Vehicle(
                self.sim,
                [Vec2(start_x, cfg.lane_gap), Vec2(-cfg.headway, cfg.lane_gap)],
                params=params_bwd,
                name=f"bwd-{index}",
                initial_speed=cfg.backward_speed,
            )
            self._add_node(vehicle, spec)

    # --------------------------------------------------------------- report

    def build_report(self) -> ScenarioReport:
        report = super().build_report()
        contact_predictions = []
        for node in self.nodes:
            for neighbor in node.network_description().neighbors:
                if neighbor.predicted_contact_time_s != float("inf"):
                    contact_predictions.append(neighbor.predicted_contact_time_s)
        report.extra["mean_predicted_contact_s"] = (
            sum(contact_predictions) / len(contact_predictions)
            if contact_predictions
            else 0.0
        )
        return report


def build_highway_scenario(
    vehicles_per_direction: Optional[int] = None, seed: int = 0, **overrides
) -> HighwayScenario:
    """``build_scenario("highway", ...)``; the fleet defaults to the config's."""
    from repro.scenarios import build_scenario  # the package imports this module

    return build_scenario("highway", vehicles_per_direction, seed, **overrides)
