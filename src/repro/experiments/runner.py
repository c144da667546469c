"""Multi-dimensional parameter sweeps with seeded, optionally parallel reps.

Every benchmark follows the same shape: for each point of a parameter sweep,
run ``repetitions`` independent simulations (different seeds), collect a flat
metric dictionary per run, and aggregate mean/stddev per metric.  The
:class:`ExperimentRunner` factors that loop out so each benchmark only
supplies a ``run_once(point, seed) -> dict`` function.

Sweeps are no longer one-dimensional: a :class:`SweepGrid` describes the
cartesian product of arbitrary named knobs (fleet size, beacon period, trust
threshold, ...) and enumerates it row-major into :class:`SweepPoint` s.  The
seed convention is a pure function of the flat point index::

    seed = base_seed + point_index * seed_stride + repetition

so (a) distinct grid points never share a seed sequence, (b) repetitions can
run in parallel (``jobs``) without changing any seed, and (c) a slice of a
grid can be reproduced point-for-point by a smaller sweep whose ``base_seed``
/ ``seed_stride`` are chosen to match the slice's flat indices (benchmark
E12 asserts exactly this).

:func:`sweep_scenario_grid` specialises the runner for the packaged
scenarios: one call drives a named scenario over a grid of config knobs with
repetitions and returns the aggregated :class:`ExperimentResult` per point.
It backs the ``repro sweep`` CLI command.  Every in-process sweep cell —
plain, ``--resume``-filtered, traced, profiled or warm-started, at any
``jobs`` — runs through :meth:`ExperimentRunner.run_sweep`; tracing and
profiling are picklable ``run_once`` wrappers, not separate paths.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.metrics.statistics import confidence_interval, mean, stddev

#: Default seed distance between adjacent sweep points (see seed convention
#: above).  The runner rejects repetition counts beyond the stride, which
#: would make adjacent points' seed sequences overlap.
DEFAULT_SEED_STRIDE = 1000


#: One sweep point: a name plus the keyword parameters passed to run_once.
@dataclass(frozen=True)
class SweepPoint:
    """A named parameter combination in a sweep."""

    name: str
    params: tuple = ()

    @staticmethod
    def of(name: str, **params) -> "SweepPoint":
        """Build a point from keyword parameters."""
        return SweepPoint(name=name, params=tuple(sorted(params.items())))

    def as_dict(self) -> Dict[str, object]:
        """The parameters as a dictionary."""
        return dict(self.params)


class SweepGrid:
    """The cartesian product of named knob value lists.

    Dimensions keep their insertion order; :meth:`points` enumerates the
    product row-major (the *last* dimension varies fastest), which fixes the
    flat point index — and therefore, via the runner's seed convention, every
    seed in the sweep.

    >>> grid = SweepGrid({"n": [8, 16], "beacon_period": [0.2, 0.5]})
    >>> [p.as_dict()["beacon_period"] for p in grid.points()]
    [0.2, 0.5, 0.2, 0.5]
    """

    def __init__(self, dimensions: Mapping[str, Sequence[object]]) -> None:
        if not dimensions:
            raise ValueError("a sweep grid needs at least one dimension")
        self.dimensions: Dict[str, List[object]] = {}
        for name, values in dimensions.items():
            values = list(values)
            if not values:
                raise ValueError(f"dimension {name!r} has no values")
            if len(set(map(repr, values))) != len(values):
                raise ValueError(f"dimension {name!r} repeats a value")
            self.dimensions[name] = values

    @property
    def dimension_names(self) -> List[str]:
        """Knob names in insertion (= enumeration) order."""
        return list(self.dimensions)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Number of values per dimension, in order."""
        return tuple(len(values) for values in self.dimensions.values())

    def __len__(self) -> int:
        total = 1
        for count in self.shape:
            total *= count
        return total

    def points(self, name_prefix: str = "") -> List[SweepPoint]:
        """All grid points, row-major, named ``prefix``\\ ``k1=v1,k2=v2``."""
        names = self.dimension_names
        points = []
        for combo in product(*self.dimensions.values()):
            label = ",".join(f"{k}={v}" for k, v in zip(names, combo))
            points.append(SweepPoint.of(f"{name_prefix}{label}", **dict(zip(names, combo))))
        return points


@dataclass
class ExperimentResult:
    """Aggregated metrics of one sweep point."""

    point: SweepPoint
    runs: List[Dict[str, float]] = field(default_factory=list)

    def metric_names(self) -> List[str]:
        """Sorted union of metric names over all repetitions."""
        names = set()
        for run in self.runs:
            names.update(run)
        return sorted(names)

    def metric_values(self, metric: str) -> List[float]:
        """All repetitions' values of ``metric`` (missing treated as absent)."""
        return [run[metric] for run in self.runs if metric in run]

    def mean(self, metric: str) -> float:
        """Mean of ``metric`` over repetitions."""
        return mean(self.metric_values(metric))

    def stddev(self, metric: str) -> float:
        """Standard deviation of ``metric`` over repetitions."""
        return stddev(self.metric_values(metric))

    def ci(self, metric: str) -> tuple:
        """95% confidence interval of ``metric``."""
        return confidence_interval(self.metric_values(metric))


class ExperimentRunner:
    """Runs ``run_once`` over a sweep with repetitions.

    Parameters
    ----------
    run_once:
        Callable ``(params_dict, seed) -> metrics_dict``.  Must be picklable
        (a module-level function or instance of a module-level class) when
        ``jobs > 1`` is used.
    repetitions:
        Independent runs per sweep point.
    base_seed:
        Seeds are ``base_seed + point_index * seed_stride + repetition``, so
        different points never share a seed sequence.
    seed_stride:
        Seed distance between adjacent points.  The default (1000) is the
        historical convention; grid slices pick other strides to reproduce a
        parent grid's seeds (see the module docstring).
    """

    def __init__(
        self,
        run_once: Callable[[Dict[str, object], int], Dict[str, float]],
        repetitions: int = 3,
        base_seed: int = 1000,
        seed_stride: int = DEFAULT_SEED_STRIDE,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if seed_stride < 1:
            raise ValueError("seed_stride must be at least 1")
        if repetitions > seed_stride:
            raise ValueError(
                f"repetitions ({repetitions}) must not exceed seed_stride "
                f"({seed_stride}), or adjacent sweep points would share seeds"
            )
        self.run_once = run_once
        self.repetitions = repetitions
        self.base_seed = base_seed
        self.seed_stride = seed_stride

    def seed_for(self, point_index: int, repetition: int) -> int:
        """The seed of one (point, repetition) cell of the sweep."""
        return self.base_seed + point_index * self.seed_stride + repetition

    def cells(self, points: Sequence[SweepPoint]) -> List[Tuple[int, int, SweepPoint, int]]:
        """Every ``(point_index, repetition, point, seed)`` cell, flat-index order."""
        return [
            (index, repetition, point, self.seed_for(index, repetition))
            for index, point in enumerate(points)
            for repetition in range(self.repetitions)
        ]

    def run_sweep(
        self,
        points: Sequence[SweepPoint],
        jobs: int = 1,
        cache: Optional[object] = None,
    ) -> List[ExperimentResult]:
        """Run the whole sweep in order.

        ``cache`` (an object with ``lookup(params, seed) -> metrics|None``,
        e.g. :class:`~repro.experiments.export.SweepCache`) short-circuits
        cells already computed by an earlier sweep; only the remaining cells
        run.  They run in this process when ``jobs == 1``, else over a
        :mod:`multiprocessing` pool of ``jobs`` workers.  Every cell keeps
        its seed and results are reassembled in flat-index order, so the
        returned list — and anything rendered from it — is identical for
        any ``jobs``.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        runs: Dict[Tuple[int, int], Dict[str, float]] = {}
        fresh_keys = []
        fresh_cells = []
        for index, repetition, point, seed in self.cells(points):
            params = point.as_dict()
            metrics = cache.lookup(params, seed) if cache is not None else None
            if metrics is None:
                fresh_keys.append((index, repetition))
                fresh_cells.append((params, seed))
            else:
                runs[(index, repetition)] = metrics
        if jobs == 1 or len(fresh_cells) <= 1:
            fresh_metrics = [self.run_once(params, seed) for params, seed in fresh_cells]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(fresh_cells))) as pool:
                fresh_metrics = pool.starmap(self.run_once, fresh_cells)
        runs.update(zip(fresh_keys, map(dict, fresh_metrics)))
        return [
            ExperimentResult(
                point=point,
                runs=[runs[(index, repetition)] for repetition in range(self.repetitions)],
            )
            for index, point in enumerate(points)
        ]

    def run_grid(
        self, grid: SweepGrid, jobs: int = 1, cache: Optional[object] = None
    ) -> List[ExperimentResult]:
        """Run every point of ``grid`` (row-major order)."""
        return self.run_sweep(grid.points(), jobs=jobs, cache=cache)


# ----------------------------------------------------------- scenario sweeps


def numeric_metrics(report: Mapping[str, object]) -> Dict[str, float]:
    """Keep the numeric entries of a flat report, as floats.

    Booleans are *excluded*, not coerced: ``isinstance(flag, int)`` is true
    for ``bool``, and silently averaging a flag as 0/1 produced meaningless
    "mean/stddev" rows.  A scenario that wants a flag aggregated must export
    it as an explicit 0.0/1.0 rate.  ``nan`` metrics are kept — the
    statistics helpers already ignore them.
    """
    return {
        name: float(value)
        for name, value in report.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def run_scenario_once(
    scenario: str,
    seed: int,
    n: Optional[int] = None,
    duration: float = 20.0,
    **overrides,
) -> Dict[str, float]:
    """Build and run one packaged scenario; return its flat numeric report.

    Non-numeric report entries (strings, booleans, ...) are dropped by
    :func:`numeric_metrics` so the result aggregates cleanly with
    :class:`ExperimentResult`.  ``overrides`` are forwarded to the scenario's
    config dataclass — any config field (``beacon_period``, ``min_trust``,
    ``task_rate_per_s``, ...) can be swept this way.
    """
    # Imported lazily: scenarios pull in the whole stack, and this module is
    # also used by lightweight benchmark code that never touches them.
    from repro.scenarios import build_scenario

    report = build_scenario(scenario, n=n, seed=seed, **overrides).run(duration=duration)
    return numeric_metrics(report.as_dict())


@dataclass(frozen=True)
class ScenarioRunOnce:
    """Picklable ``run_once`` driving one packaged scenario.

    A plain closure over the scenario name would not survive the trip into a
    ``jobs > 1`` worker process; this frozen dataclass does.  Point
    parameters override the fixed ``overrides``; a ``duration`` parameter (in
    either) overrides the default duration.
    """

    scenario: str
    duration: float = 20.0
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[str, float]:
        merged = dict(self.overrides)
        merged.update(params)
        duration = float(merged.pop("duration", self.duration))
        return run_scenario_once(self.scenario, seed, duration=duration, **merged)


@dataclass(frozen=True)
class TracedRunOnce:
    """Wrap a ``run_once`` so each cell writes a Chrome trace-event file.

    The cell's seed is unique across the sweep (see the module seed
    convention), so ``cell-s<seed>.json`` filenames are deterministic and
    collision-free.  Tracing is byte-invisible to the cell's metrics — the
    tracer only observes (see :mod:`repro.telemetry.trace`).
    """

    inner: Callable[[Dict[str, object], int], Dict[str, float]]
    trace_dir: str

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[str, float]:
        import os

        from repro.telemetry.trace import Tracer, activate

        tracer = Tracer()
        with activate(tracer):
            metrics = self.inner(params, seed)
        tracer.save(os.path.join(self.trace_dir, f"cell-s{seed}.json"))
        return metrics


@dataclass(frozen=True)
class ProfiledRunOnce:
    """Wrap a ``run_once`` so each cell dumps its :mod:`cProfile` stats.

    cProfile is per-process, so the profile is taken where the cell runs —
    in this process or in a pool worker — and written to
    ``cell-s<seed>.prof``; merge the files with ``pstats.Stats(*paths)``.
    """

    inner: Callable[[Dict[str, object], int], Dict[str, float]]
    profile_dir: str

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[str, float]:
        import cProfile
        import os

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            return self.inner(params, seed)
        finally:
            profiler.disable()
            profiler.dump_stats(os.path.join(self.profile_dir, f"cell-s{seed}.prof"))


def _instrumented(
    run_once: Callable[[Dict[str, object], int], Dict[str, float]],
    trace_dir: Optional[str],
    profile_dir: Optional[str],
) -> Callable[[Dict[str, object], int], Dict[str, float]]:
    """``run_once`` wrapped in the requested per-cell instruments."""
    if profile_dir is not None:
        run_once = ProfiledRunOnce(inner=run_once, profile_dir=profile_dir)
    if trace_dir is not None:
        run_once = TracedRunOnce(inner=run_once, trace_dir=trace_dir)
    return run_once


def sweep_scenario_grid(
    scenario: str,
    grid: SweepGrid,
    duration: float = 20.0,
    repetitions: int = 3,
    base_seed: int = 1000,
    jobs: int = 1,
    cache: Optional[object] = None,
    trace_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
    **overrides,
) -> List[ExperimentResult]:
    """Run ``scenario`` over every point of ``grid`` with repetitions.

    Grid dimensions name scenario config knobs (``n``, ``beacon_period``,
    ``min_trust``, ``task_rate_per_s``, ...); fixed ``overrides`` apply to
    every point.  Returns one :class:`ExperimentResult` per grid point in
    row-major order; seeds follow the :class:`ExperimentRunner` convention.
    ``cache`` (see :meth:`ExperimentRunner.run_sweep`) lets ``repro sweep
    --resume`` skip cells an earlier export already contains.
    ``trace_dir`` / ``profile_dir`` write one Chrome trace-event file /
    cProfile dump per fresh cell (``cell-s<seed>.json`` / ``.prof``).
    """
    run_once = ScenarioRunOnce(
        scenario=scenario, duration=duration, overrides=tuple(sorted(overrides.items()))
    )
    runner = ExperimentRunner(
        _instrumented(run_once, trace_dir, profile_dir),
        repetitions=repetitions,
        base_seed=base_seed,
    )
    return runner.run_sweep(grid.points(f"{scenario}:"), jobs=jobs, cache=cache)


def run_scenario_durations_warm(
    scenario: str,
    durations: Sequence[float],
    seed: int,
    n: Optional[int] = None,
    **overrides,
) -> Dict[float, Dict[str, float]]:
    """Run one seeded scenario at several horizons, sharing the common prefix.

    The shortest horizon runs once with the fault timeline armed for the
    *longest* horizon and is snapshotted at its end; every longer horizon
    restores that snapshot and resumes over its own suffix only.  Because the
    fault timeline's per-window draws are a pure function of (seed, window
    start, horizon), arming the full horizon up front makes each warm cell
    byte-identical to a cold ``run(duration=d, fault_horizon=longest)`` of
    the same seed — the snapshot merely skips re-simulating the shared
    prefix.  Returns ``{duration: numeric metrics}``.
    """
    # Imported lazily for the same reason as run_scenario_once.
    from repro.scenarios import build_scenario
    from repro.scenarios.base import Scenario

    ordered = sorted({float(duration) for duration in durations})
    if not ordered:
        raise ValueError("durations must not be empty")
    if ordered[0] <= 0:
        raise ValueError("durations must be positive")
    shortest, longest = ordered[0], ordered[-1]
    cold = build_scenario(scenario, n=n, seed=seed, **overrides)
    start = cold.sim.now
    metrics: Dict[float, Dict[str, float]] = {}
    if shortest == longest:
        report = cold.run(duration=shortest, fault_horizon=longest)
        return {shortest: numeric_metrics(report.as_dict())}
    # Snapshot at the end of the shortest window; run() writes to a path, so
    # round-trip the prefix artifact through a scratch file.
    import os
    import tempfile

    handle, path = tempfile.mkstemp(suffix=".reprosnap")
    os.close(handle)
    try:
        report = cold.run(
            duration=shortest,
            fault_horizon=longest,
            snapshot_at=shortest,
            snapshot_to=path,
        )
        with open(path, "rb") as stream:
            prefix = stream.read()
    finally:
        os.unlink(path)
    metrics[shortest] = numeric_metrics(report.as_dict())
    for duration in ordered[1:]:
        warm = Scenario.restore(prefix)
        report = warm.resume(until=start + duration)
        metrics[duration] = numeric_metrics(report.as_dict())
    return metrics


@dataclass(frozen=True)
class WarmTrajectoryRunOnce:
    """Picklable ``run_once`` simulating one warm-started trajectory.

    Unlike a metric-returning cell it returns ``{duration: metrics}`` for
    every horizon in ``durations`` (:func:`run_scenario_durations_warm`);
    :func:`sweep_scenario_grid_warm` spreads them over the grid's points.
    """

    scenario: str
    durations: Tuple[float, ...]
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __call__(self, params: Dict[str, object], seed: int) -> Dict[float, Dict[str, float]]:
        merged = dict(self.overrides)
        merged.update(params)
        fleet = merged.pop("n", None)
        return run_scenario_durations_warm(
            self.scenario, self.durations, seed=seed, n=fleet, **merged
        )


def sweep_scenario_grid_warm(
    scenario: str,
    grid: SweepGrid,
    repetitions: int = 3,
    base_seed: int = 1000,
    jobs: int = 1,
    trace_dir: Optional[str] = None,
    profile_dir: Optional[str] = None,
    **overrides,
) -> List[ExperimentResult]:
    """Warm-started variant of :func:`sweep_scenario_grid` for duration grids.

    ``grid`` must have a ``duration`` dimension.  Points sharing every
    *other* knob form one group; the groups are the points of an
    :class:`ExperimentRunner` sweep whose cells each simulate one
    trajectory (:class:`WarmTrajectoryRunOnce`), whose prefix snapshot
    warm-starts every longer duration.  A group's duration cells therefore
    share the seed :meth:`ExperimentRunner.seed_for` gives the (group,
    repetition) cell, which is what makes prefix sharing possible; the
    byte-identical cold equivalent of a cell is ``run(duration=d,
    fault_horizon=max_duration)`` at that same seed, *not* a default
    :func:`sweep_scenario_grid` cell (whose per-point seeds differ).
    ``jobs``, ``trace_dir`` and ``profile_dir`` act per trajectory.

    Results come back one per grid point in the grid's own row-major order,
    exactly like the cold sweep.
    """
    if "duration" not in grid.dimensions:
        raise ValueError("warm-started sweeps need a 'duration' grid dimension")
    durations = tuple(float(value) for value in grid.dimensions["duration"])
    other_dimensions = {
        name: values for name, values in grid.dimensions.items() if name != "duration"
    }
    groups = (
        SweepGrid(other_dimensions).points() if other_dimensions else [SweepPoint("")]
    )
    run_once = WarmTrajectoryRunOnce(
        scenario=scenario, durations=durations, overrides=tuple(sorted(overrides.items()))
    )
    runner = ExperimentRunner(
        _instrumented(run_once, trace_dir, profile_dir),
        repetitions=repetitions,
        base_seed=base_seed,
    )
    by_cell = {
        (group.params, duration): [trajectory[duration] for trajectory in result.runs]
        for group, result in zip(groups, runner.run_sweep(groups, jobs=jobs))
        for duration in durations
    }
    results = []
    for point in grid.points(f"{scenario}:"):
        params = point.as_dict()
        duration = float(params.pop("duration"))
        key = (tuple(sorted(params.items())), duration)
        results.append(ExperimentResult(point=point, runs=by_cell[key]))
    return results
