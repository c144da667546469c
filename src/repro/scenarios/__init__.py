"""Ready-made evaluation scenarios.

Each scenario is a full simulation — road network, obstacles, mobility,
radio, AirDnD nodes, sensors and a workload.  A scenario class states only
its geography, its fleet and its extra report fields; the
:class:`~repro.scenarios.base.Scenario` base class assembles the shared
world (mobility manager, radio environment, function registry, shared
scorer) and one AirDnD node per vehicle.  :meth:`Scenario.run` produces a
:class:`~repro.scenarios.base.ScenarioReport` with the headline metrics the
benchmarks consume.

* :mod:`repro.scenarios.intersection` — the paper's "looking around the
  corner" use case.
* :mod:`repro.scenarios.urban_grid` — a Manhattan grid with many vehicles and
  a generic compute workload (mesh dynamics, utilisation, scalability).
* :mod:`repro.scenarios.highway` — a straight road with platoons passing an
  intersection-free stretch (long contact times, churn at the edges).
* :mod:`repro.scenarios.workloads` — workload generators shared by the
  scenarios and the baselines.

:data:`SCENARIOS` maps each scenario name to its config class, scenario
class and fleet-size field; :func:`build_scenario` gives the CLI and the
experiment sweep runner one uniform way to instantiate any scenario by name
with a fleet size: the per-scenario fleet field (``num_vehicles`` vs.
``vehicles_per_direction``) is normalised to ``n``, its default is the
config dataclass's, and any other config field — including the protocol
knobs every scenario exposes uniformly (``beacon_period``, ``min_trust``,
``task_rate_per_s``) — can be overridden by keyword, which is how
``repro sweep --set`` reaches them.
"""

from typing import Dict, Optional, Tuple, Type

from repro.scenarios.base import BaseScenarioConfig, Scenario, ScenarioReport
from repro.scenarios.intersection import (
    IntersectionConfig,
    IntersectionScenario,
    build_intersection_scenario,
)
from repro.scenarios.urban_grid import (
    UrbanGridConfig,
    UrbanGridScenario,
    build_urban_grid_scenario,
)
from repro.scenarios.highway import HighwayConfig, HighwayScenario, build_highway_scenario
from repro.scenarios.workloads import (
    GenericComputeWorkload,
    register_generic_functions,
)

#: ``name -> (config class, scenario class, fleet-size field)``.  The fleet
#: field is the config knob ``n`` stands for (vehicles, or vehicles per
#: direction for the highway).
SCENARIOS: Dict[str, Tuple[Type[BaseScenarioConfig], Type[Scenario], str]] = {
    "intersection": (IntersectionConfig, IntersectionScenario, "num_vehicles"),
    "urban-grid": (UrbanGridConfig, UrbanGridScenario, "num_vehicles"),
    "highway": (HighwayConfig, HighwayScenario, "vehicles_per_direction"),
}


def build_scenario(
    name: str, n: Optional[int] = None, seed: int = 0, **overrides
) -> Scenario:
    """Instantiate the scenario registered under ``name``.

    Parameters
    ----------
    name:
        A key of :data:`SCENARIOS` (``intersection``, ``urban-grid`` or
        ``highway``).
    n:
        Fleet size (the config's default when ``None``).
    seed:
        Experiment seed.
    overrides:
        Extra keyword arguments forwarded to the scenario's config.
    """
    try:
        config_class, scenario_class, fleet_field = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    fleet = {} if n is None else {fleet_field: n}
    return scenario_class(config_class(seed=seed, **fleet, **overrides))


__all__ = [
    "Scenario",
    "ScenarioReport",
    "SCENARIOS",
    "build_scenario",
    "IntersectionScenario",
    "build_intersection_scenario",
    "UrbanGridScenario",
    "build_urban_grid_scenario",
    "HighwayScenario",
    "build_highway_scenario",
    "GenericComputeWorkload",
    "register_generic_functions",
]
