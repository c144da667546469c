"""Protocol knobs (beacon_period, min_trust) reach every node's AirDnDConfig."""

import pytest

from repro.scenarios import SCENARIOS, build_scenario

SMALL_FLEET = {"intersection": 3, "urban-grid": 3, "highway": 2}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_build_scenario_forwards_protocol_knobs(name):
    scenario = build_scenario(name, n=SMALL_FLEET[name], seed=1,
                              beacon_period=0.25, min_trust=0.7)
    assert scenario.config.beacon_period == 0.25
    assert scenario.config.min_trust == 0.7
    for node in scenario.nodes:
        assert node.config.beacon_period == 0.25
        assert node.config.min_trust == 0.7
        # ...and the knobs land in the live protocol objects, not just the
        # config snapshot.
        assert node.mesh.beacon_agent.beacon_period == 0.25
        assert node.orchestrator.scorer.min_trust == 0.7


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_defaults_keep_airdnd_defaults(name):
    scenario = build_scenario(name, n=SMALL_FLEET[name], seed=1)
    for node in scenario.nodes:
        assert node.config.beacon_period == 0.5
        assert node.config.min_trust == 0.3


def test_invalid_knob_values_fail_at_construction():
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, beacon_period=0.0)
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, min_trust=1.5)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_scenario_installs_a_fault_injector(name):
    scenario = build_scenario(name, n=SMALL_FLEET[name], seed=1)
    assert scenario.faults is not None
    # Default knobs are null: no adversaries, and the run report still
    # exports the fault metrics.
    assert scenario.faults.malicious_names == []
    report = scenario.run(2.0)
    assert report.extra["availability"] == 1.0
    assert report.extra["crashes_injected"] == 0.0
    assert "wrong_result_acceptance_rate" in report.extra
    assert "reputation_gap" in report.extra


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fault_knobs_reach_the_injector(name):
    fleet = {"intersection": 4, "urban-grid": 4, "highway": 2}[name]
    scenario = build_scenario(
        name, n=fleet, seed=1, malicious_fraction=0.5, adversary_profile="free_rider"
    )
    expected = int(0.5 * len(scenario.nodes) + 0.5)
    assert len(scenario.faults.malicious_names) == expected
    for victim in scenario.faults.malicious_names:
        node = next(n for n in scenario.nodes if n.name == victim)
        assert node.executor.silent


def test_invalid_fault_knob_values_fail_at_construction():
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, malicious_fraction=1.5)
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, crash_rate=-0.1)
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, adversary_profile="nope")
    with pytest.raises(ValueError):
        build_scenario("highway", n=2, seed=0, task_redundancy=0)


def test_task_redundancy_reaches_the_workload():
    scenario = build_scenario("highway", n=2, seed=0, task_redundancy=3)
    assert scenario.workload.redundancy == 3


def test_every_scenario_shares_one_candidate_scorer():
    """All of a scenario's nodes rank through the same scorer instance."""
    from repro.scenarios import build_scenario

    for name in ("intersection", "urban-grid", "highway"):
        scenario = build_scenario(name, n=4, seed=1)
        scorers = {id(node.orchestrator.scorer) for node in scenario.nodes}
        assert scorers == {id(scenario.scorer)}, name


def test_shared_scorer_inherits_scenario_min_trust():
    from repro.scenarios import build_scenario

    scenario = build_scenario("highway", n=4, seed=1, min_trust=0.7)
    assert scenario.scorer.min_trust == 0.7


def test_urban_grid_buildings_knob_creates_occluding_visibility():
    from repro.geometry.vector import Vec2
    from repro.scenarios.urban_grid import build_urban_grid_scenario

    open_world = build_urban_grid_scenario(num_vehicles=2, seed=0)
    assert open_world.visibility is None and open_world.buildings == []

    built = build_urban_grid_scenario(num_vehicles=2, seed=0, with_buildings=True)
    cfg = built.config
    assert len(built.buildings) == (cfg.grid_rows - 1) * (cfg.grid_cols - 1)
    assert built.environment.visibility is built.visibility
    # A ray cutting diagonally through a block interior is occluded; one
    # running along a street axis is not.
    spacing = cfg.block_spacing
    assert built.visibility.is_occluded(
        Vec2(spacing * 0.5, spacing * 0.1), Vec2(spacing * 0.5, spacing * 0.9)
    )
    assert built.visibility.has_line_of_sight(
        Vec2(0.0, 0.0), Vec2(spacing, 0.0)
    )


def test_urban_grid_street_width_knob_fails_fast():
    import pytest

    from repro.scenarios.urban_grid import UrbanGridConfig

    with pytest.raises(ValueError, match="street_width"):
        UrbanGridConfig(street_width=150.0)  # == block_spacing: no block left
    with pytest.raises(ValueError, match="street_width"):
        UrbanGridConfig(street_width=-20.0)  # would pave buildings over roads


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fast_math_knob_selects_the_radio_tier(name):
    exact = build_scenario(name, n=SMALL_FLEET[name], seed=1)
    fast = build_scenario(name, n=SMALL_FLEET[name], seed=1, fast_math=True)
    assert exact.config.fast_math is False
    assert exact.environment.link_budget.fast_math is False
    assert fast.config.fast_math is True
    assert fast.environment.link_budget.fast_math is True


def test_fast_math_knob_fails_fast_on_non_bool():
    # `--set fast_math=1` must die at construction, not silently run the
    # exact tier under a truthy label.
    with pytest.raises(ValueError, match="fast_math"):
        build_scenario("highway", n=2, seed=0, fast_math=1)
