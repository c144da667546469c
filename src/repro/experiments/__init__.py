"""Experiment harness: multi-dimensional parameter sweeps with repetitions."""

from repro.experiments.export import export_results, sweep_payload, write_csv, write_json
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    ScenarioRunOnce,
    SweepGrid,
    SweepPoint,
    numeric_metrics,
    run_scenario_once,
    sweep_scenario_grid,
)

__all__ = [
    "ExperimentRunner",
    "ExperimentResult",
    "ScenarioRunOnce",
    "SweepGrid",
    "SweepPoint",
    "numeric_metrics",
    "run_scenario_once",
    "sweep_scenario_grid",
    "export_results",
    "sweep_payload",
    "write_csv",
    "write_json",
]
