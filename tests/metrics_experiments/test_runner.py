"""Tests for the experiment sweep runner."""

import math

import pytest

from repro.experiments.runner import (
    ExperimentRunner,
    ProfiledRunOnce,
    ScenarioRunOnce,
    SweepGrid,
    SweepPoint,
    numeric_metrics,
    run_scenario_once,
    sweep_scenario_grid,
    sweep_scenario_grid_warm,
)


def test_sweep_point_construction():
    point = SweepPoint.of("n=5", n=5, policy="airdnd")
    assert point.as_dict() == {"n": 5, "policy": "airdnd"}
    assert point.name == "n=5"


def test_runner_repetitions_and_seed_variation():
    seen_seeds = []

    def run_once(params, seed):
        seen_seeds.append(seed)
        return {"value": params["n"] * 10 + seed % 10}

    runner = ExperimentRunner(run_once, repetitions=3, base_seed=100)
    results = runner.run_sweep([SweepPoint.of("n=1", n=1), SweepPoint.of("n=2", n=2)])
    assert len(results) == 2
    assert len(results[0].runs) == 3
    assert len(set(seen_seeds)) == 6   # every run gets a distinct seed
    assert results[0].mean("value") != results[1].mean("value")


def test_result_statistics_and_missing_metrics():
    def run_once(params, seed):
        return {"always": 1.0} if seed % 2 == 0 else {"always": 3.0, "sometimes": 5.0}

    runner = ExperimentRunner(run_once, repetitions=4, base_seed=0)
    (result,) = runner.run_sweep([SweepPoint.of("p")])
    assert result.mean("always") == 2.0
    assert result.metric_values("sometimes") == [5.0, 5.0]
    assert result.metric_names() == ["always", "sometimes"]
    low, high = result.ci("always")
    assert low < 2.0 < high
    assert result.stddev("always") > 0


def test_invalid_repetitions():
    with pytest.raises(ValueError):
        ExperimentRunner(lambda p, s: {}, repetitions=0)
    with pytest.raises(ValueError):
        ExperimentRunner(lambda p, s: {}, seed_stride=0)
    with pytest.raises(ValueError):
        ExperimentRunner(lambda p, s: {}).run_sweep([], jobs=0)
    with pytest.raises(ValueError):
        # Would make adjacent points share seeds (rep 1000 of point 0 ==
        # rep 0 of point 1 at the default stride).
        ExperimentRunner(lambda p, s: {}, repetitions=1001)
    ExperimentRunner(lambda p, s: {}, repetitions=50, seed_stride=50)  # boundary ok


# -------------------------------------------------------------- sweep grids


def test_grid_enumerates_row_major():
    grid = SweepGrid({"n": [8, 16], "beacon_period": [0.2, 0.5, 1.0]})
    assert grid.dimension_names == ["n", "beacon_period"]
    assert grid.shape == (2, 3)
    assert len(grid) == 6
    points = grid.points("highway:")
    assert [p.as_dict() for p in points] == [
        {"n": 8, "beacon_period": 0.2},
        {"n": 8, "beacon_period": 0.5},
        {"n": 8, "beacon_period": 1.0},
        {"n": 16, "beacon_period": 0.2},
        {"n": 16, "beacon_period": 0.5},
        {"n": 16, "beacon_period": 1.0},
    ]
    assert points[0].name == "highway:n=8,beacon_period=0.2"


def test_grid_rejects_degenerate_dimensions():
    with pytest.raises(ValueError):
        SweepGrid({})
    with pytest.raises(ValueError):
        SweepGrid({"n": []})
    with pytest.raises(ValueError):
        SweepGrid({"n": [4, 4]})


def test_seed_convention_is_index_times_stride():
    runner = ExperimentRunner(lambda p, s: {}, repetitions=3, base_seed=1000)
    assert runner.seed_for(0, 0) == 1000
    assert runner.seed_for(0, 2) == 1002
    assert runner.seed_for(2, 1) == 3001
    wide = ExperimentRunner(lambda p, s: {}, repetitions=3, base_seed=1000, seed_stride=2000)
    assert wide.seed_for(1, 0) == 3000


def test_grid_points_never_share_a_seed_sequence():
    seeds_per_point = {}

    def run_once(params, seed):
        seeds_per_point.setdefault(tuple(sorted(params.items())), []).append(seed)
        return {}

    runner = ExperimentRunner(run_once, repetitions=4, base_seed=10)
    runner.run_grid(SweepGrid({"a": [1, 2, 3], "b": [10, 20]}))
    all_seeds = [seed for seeds in seeds_per_point.values() for seed in seeds]
    assert len(seeds_per_point) == 6
    assert len(all_seeds) == len(set(all_seeds))  # no seed reused anywhere


# ------------------------------------------------------------- parallelism


def _square_run_once(params, seed):
    """Module-level so it pickles into multiprocessing workers."""
    return {"value": float(params["x"] * params["x"] + seed), "seed": float(seed)}


def test_parallel_jobs_match_sequential_exactly():
    grid = SweepGrid({"x": [1, 2, 3]})
    sequential = ExperimentRunner(_square_run_once, repetitions=2, base_seed=7)
    parallel = ExperimentRunner(_square_run_once, repetitions=2, base_seed=7)
    one = sequential.run_grid(grid, jobs=1)
    many = parallel.run_grid(grid, jobs=3)
    assert [r.point for r in one] == [r.point for r in many]
    assert [r.runs for r in one] == [r.runs for r in many]


# ----------------------------------------------------------- metric typing


def test_numeric_metrics_excludes_bools_and_non_numbers():
    # Regression: isinstance(True, int) is True, so flags used to be silently
    # aggregated as 0/1 "metrics".
    report = {
        "count": 3,
        "rate": 0.5,
        "flag": True,
        "other_flag": False,
        "label": "airdnd",
        "latency": math.nan,
    }
    metrics = numeric_metrics(report)
    assert metrics == {
        "count": 3.0,
        "rate": 0.5,
        "latency": pytest.approx(math.nan, nan_ok=True),
    }
    assert all(type(value) is float for value in metrics.values())


def test_run_scenario_once_drops_bool_report_entries(monkeypatch):
    class FakeReport:
        def as_dict(self):
            return {"tasks": 2, "converged": True, "name": "fake"}

    class FakeScenario:
        def run(self, duration):
            return FakeReport()

    import repro.scenarios

    monkeypatch.setattr(
        repro.scenarios, "build_scenario", lambda *args, **kwargs: FakeScenario()
    )
    metrics = run_scenario_once("intersection", seed=1, n=2, duration=1.0)
    assert metrics == {"tasks": 2.0}


# --------------------------------------------------------- scenario sweeps


def test_run_scenario_once_returns_numeric_report():
    metrics = run_scenario_once("intersection", seed=3, n=4, duration=3.0)
    assert metrics["node_count"] == 4.0
    assert all(isinstance(v, float) for v in metrics.values())
    assert "success_rate" in metrics and "occluded_detection_rate" in metrics


def test_run_scenario_once_forwards_protocol_knobs():
    chatty = run_scenario_once("highway", seed=5, n=3, duration=4.0, beacon_period=0.1)
    quiet = run_scenario_once("highway", seed=5, n=3, duration=4.0, beacon_period=1.0)
    assert chatty["mesh_bytes"] > quiet["mesh_bytes"]


def test_sweep_scenario_runs_each_size_with_repetitions():
    results = sweep_scenario_grid(
        "intersection", SweepGrid({"n": [4, 5]}), duration=3.0, repetitions=2, base_seed=50
    )
    assert [r.point.as_dict()["n"] for r in results] == [4, 5]
    assert all(len(r.runs) == 2 for r in results)
    assert results[0].runs[0]["node_count"] == 4.0
    assert results[1].runs[0]["node_count"] == 5.0


def test_sweep_scenario_is_deterministic_for_equal_seeds():
    kwargs = dict(duration=3.0, repetitions=2, base_seed=7)
    first = sweep_scenario_grid("intersection", SweepGrid({"n": [4]}), **kwargs)
    second = sweep_scenario_grid("intersection", SweepGrid({"n": [4]}), **kwargs)
    assert first[0].runs == second[0].runs


def test_one_dimensional_grid_matches_legacy_fleet_sweep():
    # The historical fleet-size-only sweep carried ``duration`` in every
    # point's parameters; the grid path must be seed- and result-identical.
    runner = ExperimentRunner(
        ScenarioRunOnce(scenario="intersection"), repetitions=2, base_seed=11
    )
    legacy = runner.run_sweep([
        SweepPoint.of(f"intersection:n={size}", n=size, duration=3.0)
        for size in (4, 5)
    ])
    grid = sweep_scenario_grid(
        "intersection",
        SweepGrid({"n": [4, 5]}),
        duration=3.0,
        repetitions=2,
        base_seed=11,
    )
    assert [r.runs for r in legacy] == [r.runs for r in grid]


def _runs_equal(a, b):
    """Dict-list equality treating nan == nan (pickling breaks the identity
    shortcut Python's ``==`` relies on for in-process nan comparisons)."""
    if len(a) != len(b):
        return False
    for run_a, run_b in zip(a, b):
        if run_a.keys() != run_b.keys():
            return False
        for key in run_a:
            va, vb = run_a[key], run_b[key]
            if not (va == vb or (math.isnan(va) and math.isnan(vb))):
                return False
    return True


def test_sweep_scenario_grid_parallel_jobs_identical():
    kwargs = dict(duration=3.0, repetitions=2, base_seed=9)
    grid = SweepGrid({"n": [4, 5]})
    one = sweep_scenario_grid("intersection", grid, jobs=1, **kwargs)
    many = sweep_scenario_grid("intersection", grid, jobs=4, **kwargs)
    assert [r.point for r in one] == [r.point for r in many]
    assert all(_runs_equal(a.runs, b.runs) for a, b in zip(one, many))


def test_scenario_run_once_is_picklable_and_merges_overrides():
    import pickle

    run_once = ScenarioRunOnce(
        scenario="intersection", duration=3.0, overrides=(("vehicle_speed", 8.0),)
    )
    clone = pickle.loads(pickle.dumps(run_once))
    metrics = clone({"n": 4}, seed=2)
    assert metrics["node_count"] == 4.0


def test_sweep_scenario_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        sweep_scenario_grid("not-a-scenario", SweepGrid({"n": [2]}), repetitions=1)


class _OneCellCache:
    """Resume-cache stand-in holding the metrics of a single seed."""

    def __init__(self, seed, metrics):
        self.seed = seed
        self.metrics = metrics

    def lookup(self, params, seed):
        return dict(self.metrics) if seed == self.seed else None


def test_parallel_profiled_cells_dump_one_stats_file_each(tmp_path):
    """Each fresh cell dumps ``cell-s<seed>.prof`` from its worker; cached
    cells dump nothing, and the sweep results are untouched."""
    import pstats

    points = [SweepPoint.of("p0", x=2), SweepPoint.of("p1", x=3)]
    expected = ExperimentRunner(_square_run_once, repetitions=2, base_seed=7).run_sweep(
        points, jobs=2
    )
    cached = _OneCellCache(1007, expected[1].runs[0])   # point 1, repetition 0
    profiled = ExperimentRunner(
        ProfiledRunOnce(inner=_square_run_once, profile_dir=str(tmp_path)),
        repetitions=2,
        base_seed=7,
    )
    results = profiled.run_sweep(points, jobs=2, cache=cached)
    assert [r.runs for r in results] == [r.runs for r in expected]
    dumped = sorted(path.name for path in tmp_path.iterdir())
    assert dumped == ["cell-s1008.prof", "cell-s7.prof", "cell-s8.prof"]
    stats = pstats.Stats(*(str(tmp_path / name) for name in dumped))
    calls = {name: counts[1] for (_, _, name), counts in stats.stats.items()}
    assert calls["_square_run_once"] == 3


# ------------------------------------------------------------ warm starts


def test_warm_sweep_cells_equal_cold_runs_at_their_group_seed():
    from repro.scenarios import build_scenario

    durations = [2.0, 5.0]
    grid = SweepGrid({"n": [3, 4], "duration": durations})
    warm = sweep_scenario_grid_warm("highway", grid, repetitions=2, base_seed=40)
    assert [r.point for r in warm] == grid.points("highway:")
    for result in warm:
        params = result.point.as_dict()
        group_index = [3, 4].index(params["n"])
        for repetition, run in enumerate(result.runs):
            seed = 40 + group_index * 1000 + repetition
            cold = build_scenario("highway", n=params["n"], seed=seed).run(
                duration=params["duration"], fault_horizon=max(durations)
            )
            assert _runs_equal([run], [numeric_metrics(cold.as_dict())])

