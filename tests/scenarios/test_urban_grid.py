"""Tests for the urban grid scenario."""

from repro.scenarios.urban_grid import UrbanGridConfig, UrbanGridScenario, build_urban_grid_scenario


def test_scenario_structure_and_heterogeneity():
    scenario = build_urban_grid_scenario(num_vehicles=9, seed=3)
    assert len(scenario.nodes) == 9
    specs = {node.compute.spec.cpu_ops_per_second for node in scenario.nodes}
    assert len(specs) >= 2    # heterogeneous fleet


def test_homogeneous_fleet_option():
    scenario = UrbanGridScenario(UrbanGridConfig(num_vehicles=6, heterogeneous_compute=False, seed=1))
    specs = {node.compute.spec.cpu_ops_per_second for node in scenario.nodes}
    assert len(specs) == 1


def test_run_produces_mesh_and_task_metrics():
    scenario = build_urban_grid_scenario(num_vehicles=10, seed=3)
    report = scenario.run(duration=15.0)
    assert report.tasks_submitted > 0
    assert report.success_rate > 0.5
    assert report.extra["mesh_largest_component"] >= 2
    assert report.extra["mesh_mean_degree"] > 0
    assert 0.0 <= report.extra["mean_utilization"] <= 1.0
    assert report.extra["max_utilization"] >= report.extra["mean_utilization"]


def test_reports_are_reproducible_for_same_seed():
    first = build_urban_grid_scenario(num_vehicles=8, seed=5).run(duration=10.0)
    second = build_urban_grid_scenario(num_vehicles=8, seed=5).run(duration=10.0)
    assert first.tasks_submitted == second.tasks_submitted
    assert first.tasks_completed == second.tasks_completed
    assert first.mesh_bytes == second.mesh_bytes


def test_vehicles_stay_on_road_axes_and_out_of_buildings():
    # Looping routes are round trips, so the wrap back to the first waypoint
    # drives along a road instead of cutting across a block.
    scenario = build_urban_grid_scenario(num_vehicles=60, seed=1, with_buildings=True)
    cfg = scenario.config
    spacing = cfg.block_spacing
    width = (cfg.grid_cols - 1) * spacing
    height = (cfg.grid_rows - 1) * spacing
    checked = []
    off_road = []

    def on_axis(coordinate):
        return abs(coordinate - spacing * round(coordinate / spacing)) < 1e-6

    def check(now):
        checked.append(now)
        for vehicle in scenario.vehicles:
            p = vehicle.position
            inside = (
                -1e-6 <= p.x <= width + 1e-6 and -1e-6 <= p.y <= height + 1e-6
            )
            in_building = any(building.contains(p) for building in scenario.buildings)
            if not inside or not (on_axis(p.x) or on_axis(p.y)) or in_building:
                off_road.append((now, vehicle.name, p))

    scenario.mobility.on_tick(check)
    scenario.run(duration=60.1)  # tick times accumulate 0.2 s steps
    assert len(checked) == 300 and checked[-1] > 59.99
    assert scenario.buildings
    assert off_road == []
