"""Populating and draining fabric stores: the submit/export API.

``repro sweep --fabric PATH`` calls :func:`submit_grid` to expand a
:class:`~repro.experiments.runner.SweepGrid` into one store cell per
``(point, repetition)`` — the same flat-index seed convention as an
in-process sweep, so any cell's result is byte-identical no matter which
side computes it.  A prior ``--out`` JSON export can seed the store
(``resume_cache``): cells it already holds are inserted as ``done``, and
only the remainder is ever leased.

:func:`export_store` is the inverse: it reassembles the completed cells
into :class:`~repro.experiments.runner.ExperimentResult` rows in flat-index
order and hands them to the *same* :func:`~repro.experiments.export.
export_results` writer with the *same* metadata the sequential CLI path
uses — which is why a fabric export is certified byte-identical to
``repro sweep --jobs 1`` output (benchmark E18), no matter how many workers
ran, died, or retried in between.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.export import export_results
from repro.experiments.runner import (
    DEFAULT_SEED_STRIDE,
    ExperimentResult,
    ExperimentRunner,
    ScenarioRunOnce,
    SweepGrid,
    SweepPoint,
)
from repro.fabric.store import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_BACKOFF_CAP,
    DEFAULT_JITTER_FRACTION,
    DEFAULT_LEASE_TTL,
    DEFAULT_MAX_ATTEMPTS,
    CellSpec,
    FabricError,
    JobStore,
)


class StoreIncompleteError(FabricError):
    """An export was requested from a store with unfinished cells."""


def grid_cells(
    grid: SweepGrid,
    *,
    scenario: str,
    repetitions: int,
    base_seed: int,
    seed_stride: int = DEFAULT_SEED_STRIDE,
) -> List[CellSpec]:
    """Expand a grid into fabric cells under the flat-index seed convention.

    Seeds and repetition validation come from :class:`ExperimentRunner`
    itself, so a fabric cell and an in-process sweep cell of the same grid
    agree on every seed.  The runner's ``run_once`` is never called here:
    workers run the cells.
    """
    runner = ExperimentRunner(
        ScenarioRunOnce(scenario=scenario),
        repetitions=repetitions,
        base_seed=base_seed,
        seed_stride=seed_stride,
    )
    return [
        CellSpec(
            index=index,
            repetition=repetition,
            name=point.name,
            params=point.as_dict(),
            seed=seed,
        )
        for index, repetition, point, seed in runner.cells(grid.points(f"{scenario}:"))
    ]


def submit_grid(
    store_path: str,
    scenario: str,
    grid: SweepGrid,
    *,
    duration: float = 20.0,
    repetitions: int = 3,
    base_seed: int = 1000,
    seed_stride: int = DEFAULT_SEED_STRIDE,
    resume_cache: Optional[object] = None,
    overrides: Optional[Dict[str, object]] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    backoff_cap: float = DEFAULT_BACKOFF_CAP,
    jitter_fraction: float = DEFAULT_JITTER_FRACTION,
) -> JobStore:
    """Create a job store holding every cell of one scenario sweep.

    ``resume_cache`` (a :class:`~repro.experiments.export.SweepCache`) seeds
    cells an earlier export already computed: they are stored ``done`` with
    their cached metrics and never leased.  ``overrides`` are fixed knobs
    applied to every cell on top of the grid parameters (the programmatic
    equivalent of a point dimension with one value).

    The store records the exact export metadata a sequential
    ``repro sweep --jobs 1 --out`` call would write, so
    :func:`export_store` can reproduce that output byte for byte.
    """
    cells = grid_cells(
        grid,
        scenario=scenario,
        repetitions=repetitions,
        base_seed=base_seed,
        seed_stride=seed_stride,
    )
    # Key order matters: this dict is replayed verbatim into the JSON
    # export's "sweep" object, matching the CLI's kwargs order.
    metadata: Dict[str, object] = {
        "scenario": scenario,
        "grid": dict(grid.dimensions),
        "duration": duration,
        "repetitions": repetitions,
        "base_seed": base_seed,
        "jobs": 1,
        "seed_stride": seed_stride,
        "overrides": dict(overrides or {}),
    }
    store = JobStore.create(
        store_path,
        cells,
        metadata=metadata,
        lease_ttl=lease_ttl,
        max_attempts=max_attempts,
        backoff_base=backoff_base,
        backoff_cap=backoff_cap,
        jitter_fraction=jitter_fraction,
    )
    if resume_cache is not None:
        for cell in cells:
            metrics = resume_cache.lookup(cell.params, cell.seed)
            if metrics is not None:
                store.preload_done(cell.index, cell.repetition, metrics)
    return store


def store_results(store: JobStore, *, partial: bool = False) -> List[ExperimentResult]:
    """Reassemble a store's cells into per-point results, flat-index order.

    Raises :class:`StoreIncompleteError` unless every cell is ``done``
    (``partial=True`` keeps only fully-done points instead — useful for
    peeking at a running grid, never for the byte-identity export).
    """
    cells = store.cells()
    missing = [c for c in cells if c["state"] != "done"]
    if missing and not partial:
        states: Dict[str, int] = {}
        for cell in missing:
            states[cell["state"]] = states.get(cell["state"], 0) + 1
        summary = ", ".join(f"{n} {state}" for state, n in sorted(states.items()))
        raise StoreIncompleteError(
            f"store {store.path!r} has {len(missing)} unfinished cells "
            f"({summary}); run more workers or `repro fabric requeue`"
        )
    by_point: Dict[int, List[Dict[str, object]]] = {}
    for cell in cells:
        by_point.setdefault(cell["idx"], []).append(cell)
    results = []
    for index in sorted(by_point):
        point_cells = sorted(by_point[index], key=lambda c: c["rep"])
        if any(c["state"] != "done" for c in point_cells):
            continue  # partial=True: drop incomplete points wholesale
        first = point_cells[0]
        point = SweepPoint.of(first["name"], **first["params"])
        results.append(
            ExperimentResult(
                point=point, runs=[dict(c["metrics"]) for c in point_cells]
            )
        )
    return results


def export_store(
    store: JobStore,
    paths: Sequence[str],
    *,
    partial: bool = False,
) -> List[ExperimentResult]:
    """Write a completed store to ``paths`` (.json / .csv by suffix).

    Uses the submit-time metadata and the grid's own dimension order, so
    the JSON and CSV bytes match a sequential ``repro sweep --jobs 1
    --out`` of the same grid exactly (E18's gate).  Returns the results.
    """
    results = store_results(store, partial=partial)
    meta = store.metadata
    grid_dims = meta.get("grid") or {}
    export_metadata = {
        key: meta[key]
        for key in ("scenario", "grid", "duration", "repetitions", "base_seed", "jobs")
        if key in meta
    }
    for path in paths:
        export_results(
            path,
            results,
            dimensions=list(grid_dims) or None,
            **export_metadata,
        )
    return results
