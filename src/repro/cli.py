"""Command-line interface for running the packaged scenarios.

Usage::

    repro run --scenario intersection --vehicles 6 --duration 25 --seed 7
    repro run --scenario urban-grid --vehicles 20 --duration 30
    repro run --scenario highway --vehicles 8 --duration 25
    repro sweep --scenario urban-grid --set n=10,20,40 --repetitions 3
    repro sweep --scenario highway --set n=8,16 --set beacon_period=0.2,0.5 \\
                --jobs 4 --out results.json --out results.csv
    repro serve --port 8517 --snapshot-dir /tmp/evictions

(``repro`` is the installed console script; ``python -m repro.cli`` works
identically from a source checkout.)

``run`` builds the named scenario, runs it, and prints the scenario report
as an aligned table — the quickest way to poke at the system without
writing any code.  ``sweep`` drives one scenario over the
cartesian grid of every ``--set`` knob (``--n A B C`` is an alias for
``--set n=A,B,C``) with seeded repetitions through the
:mod:`~repro.experiments.runner` harness, prints mean/stddev per metric per
grid point, optionally fans repetitions out over ``--jobs`` worker processes
(same seeds, byte-identical output), and exports raw runs + aggregates with
``--out results.json`` / ``--out results.csv``.  ``--resume earlier.json``
reuses every (scenario, point params, seed) cell already present in an
earlier JSON export and runs only the missing ones — extend a grid, crash
halfway, or add repetitions without re-simulating what is already on disk.
Every in-process cell runs through one executor,
:meth:`ExperimentRunner.run_sweep <repro.experiments.runner.ExperimentRunner.run_sweep>`,
so ``--jobs``, ``--resume``, ``--warm-start``, ``--trace-dir`` and
``--profile`` compose freely (only ``--warm-start`` with ``--resume`` is
refused).  ``--profile`` runs every fresh cell under :mod:`cProfile`, in
whichever process runs it, and prints the merged top cumulative hot spots
afterwards (``--profile-out stats.prof`` keeps the raw stats), so
performance PRs start from measured data instead of guesses.

Fault & adversary knobs (``crash_rate``, ``mean_downtime``,
``radio_degradation``, ``malicious_fraction``, ``adversary_profile``,
``loss_burst_rate``, ``task_redundancy`` — see ``docs/FAULTS.md``) are
ordinary scenario config knobs, so churn/trust studies sweep like anything
else::

    repro sweep --scenario urban-grid --set malicious_fraction=0,0.1,0.3 \\
                --set crash_rate=0,0.05 --jobs 2 --out faults.json
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from repro.experiments.export import export_results, load_sweep_cache
from repro.experiments.runner import (
    SweepGrid,
    run_scenario_once,
    sweep_scenario_grid,
    sweep_scenario_grid_warm,
)
from repro.metrics.report import ResultTable
from repro.scenarios import SCENARIOS, build_scenario

#: Metrics shown by ``repro sweep`` unless ``--metrics`` selects others.
DEFAULT_SWEEP_METRICS = [
    "tasks_submitted",
    "tasks_completed",
    "success_rate",
    "mean_task_latency_s",
    "p95_task_latency_s",
    "mesh_bytes",
    "offloaded_tasks",
]

#: Virtual-time cap of the single-repetition probe run that validates
#: ``--metrics`` names *before* the sweep starts.
PROBE_DURATION_S = 2.0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run AirDnD evaluation scenarios from the command line.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_cmd = subparsers.add_parser(
        "run",
        help="run one scenario with optional checkpoint/restore "
             "(see docs/SNAPSHOTS.md)",
    )
    run_cmd.add_argument("--scenario", default=None,
                         type=lambda name: name.replace("_", "-"),
                         choices=sorted(SCENARIOS),
                         help="scenario to run (required unless --from-snapshot)")
    run_cmd.add_argument("--vehicles", type=int, default=None,
                         help="fleet size (scenario default when omitted)")
    run_cmd.add_argument("--duration", type=float, default=None,
                         help="virtual seconds to simulate (default: 20; with "
                              "--from-snapshot: finish the interrupted window, "
                              "or resume to this offset from the window start)")
    run_cmd.add_argument("--seed", type=int, default=0,
                         help="experiment seed (default: 0)")
    run_cmd.add_argument("--snapshot-at", type=float, default=None, metavar="T",
                         help="write a snapshot T virtual seconds into the run, "
                              "then keep running; the pause is byte-neutral")
    run_cmd.add_argument("--snapshot-out", default=None, metavar="PATH",
                         help="path the --snapshot-at artifact is written to")
    run_cmd.add_argument("--from-snapshot", default=None, metavar="PATH",
                         help="restore a snapshot and resume it instead of "
                              "building a scenario")
    run_cmd.add_argument("--trace", default=None, metavar="PATH",
                         help="record a Chrome trace-event JSON of the run "
                              "(open in Perfetto; see docs/OBSERVABILITY.md)")
    run_cmd.add_argument("--trace-sample", type=int, default=1, metavar="K",
                         help="with --trace: keep every K-th span per "
                              "category (default: 1 = keep all)")

    serve = subparsers.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP/WebSocket facade "
             "(see docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="interface to bind (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8517,
                       help="TCP port to listen on; 0 picks a free one, "
                            "which the banner reports (default: 8517)")
    serve.add_argument("--step-slice", type=int, default=2000, metavar="N",
                       help="events per scheduler slice per session "
                            "(default: 2000)")
    serve.add_argument("--snapshot-dir", default=None, metavar="DIR",
                       help="directory eviction artifacts are written to "
                            "(default: kept in memory)")
    serve.add_argument("--no-auto-drive", action="store_true",
                       help="do not advance running sessions in the "
                            "background; every slice must be requested "
                            "via POST /sessions/{id}/step")

    sweep = subparsers.add_parser(
        "sweep",
        help="sweep one scenario over a grid of config knobs with repetitions",
    )
    sweep.add_argument("--duration", type=float, default=20.0,
                       help="virtual seconds to simulate (default: 20)")
    sweep.add_argument("--seed", type=int, default=0,
                       help="experiment seed (default: 0)")
    sweep.add_argument("--scenario", required=True,
                       type=lambda name: name.replace("_", "-"),
                       choices=sorted(SCENARIOS),
                       help="which scenario to sweep (underscores accepted: "
                            "urban_grid == urban-grid)")
    sweep.add_argument("--set", dest="sets", action="append", default=None,
                       metavar="KNOB=V1,V2,...",
                       help="one sweep dimension: a scenario config knob and its "
                            "comma-separated values (e.g. --set beacon_period=0.2,0.5); "
                            "repeat for a multi-dimensional cartesian grid")
    sweep.add_argument("--n", type=int, nargs="+", default=None,
                       help="fleet sizes to sweep; alias for --set n=... "
                            "(kept as the first grid dimension)")
    sweep.add_argument("--repetitions", type=int, default=3,
                       help="independent seeded runs per grid point (default: 3)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the (point, repetition) cells; "
                            "seeds and output are identical to --jobs 1 (default: 1)")
    sweep.add_argument("--out", dest="out", action="append", default=None,
                       metavar="PATH",
                       help="export raw runs + aggregates; format from the suffix "
                            "(.json or .csv); repeat for both formats")
    sweep.add_argument("--resume", default=None, metavar="PATH",
                       help="reuse cells already present in an earlier --out "
                            "JSON export, keyed on (scenario, point params, "
                            "seed); only the missing cells run")
    sweep.add_argument("--metrics", nargs="+", default=None, metavar="METRIC",
                       help="report metrics to tabulate ('all' for every one; "
                            f"default: {' '.join(DEFAULT_SWEEP_METRICS)})")
    sweep.add_argument("--profile", action="store_true",
                       help="run every fresh cell under cProfile and print "
                            "the merged top cumulative-time hot spots "
                            "afterwards")
    sweep.add_argument("--profile-top", type=int, default=25, metavar="N",
                       help="number of profile rows to print (default: 25)")
    sweep.add_argument("--profile-out", default=None, metavar="PATH",
                       help="also dump the raw cProfile stats to PATH "
                            "(loadable with pstats / snakeviz)")
    sweep.add_argument("--warm-start", action="store_true",
                       help="for sweeps with a duration dimension: simulate "
                            "one trajectory per (other knobs, repetition), "
                            "snapshot the shortest horizon and warm-start "
                            "every longer cell from it; cells share their "
                            "group's seed across durations by construction")
    sweep.add_argument("--fabric", default=None, metavar="STORE",
                       help="do not run the sweep here: create a durable job "
                            "store at STORE with one pending cell per (point, "
                            "repetition) and exit; drain it with any number "
                            "of `repro worker --store STORE` processes and "
                            "collect with `repro fabric export` "
                            "(see docs/FABRIC.md)")
    sweep.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                       help="with --fabric: seconds a worker lease lasts "
                            "between heartbeats before the cell is "
                            "presumed abandoned (default: 30)")
    sweep.add_argument("--max-attempts", type=int, default=None, metavar="N",
                       help="with --fabric: lease acquisitions a cell gets "
                            "before poison-cell quarantine (default: 5)")
    sweep.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="write one Chrome trace-event JSON per fresh "
                            "sweep cell (per trajectory with --warm-start) "
                            "under DIR (see docs/OBSERVABILITY.md)")

    worker = subparsers.add_parser(
        "worker",
        help="drain a fabric job store: claim leased cells, heartbeat, run, "
             "commit results (see docs/FABRIC.md)",
    )
    worker.add_argument("--store", required=True, metavar="PATH",
                        help="the job store created by `repro sweep --fabric`")
    worker.add_argument("--id", dest="worker_id", default=None,
                        help="worker identity recorded on leases "
                             "(default: host:pid)")
    worker.add_argument("--max-cells", type=int, default=None, metavar="N",
                        help="exit after completing N cells (default: drain)")
    worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="sleep between claim attempts when nothing is "
                             "claimable (default: 0.2)")
    worker.add_argument("--heartbeat", type=float, default=None, metavar="S",
                        help="lease renewal period (default: lease TTL / 4)")
    worker.add_argument("--keep-polling", action="store_true",
                        help="keep polling after the store drains instead of "
                             "exiting (daemon mode; SIGTERM drains cleanly)")
    worker.add_argument("--metrics-port", type=int, default=None, metavar="N",
                        help="serve Prometheus metrics on 127.0.0.1:N for the "
                             "worker's lifetime (0 = any free port)")

    fabric = subparsers.add_parser(
        "fabric",
        help="query and drain fabric job stores (see docs/FABRIC.md)",
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)
    fabric_status = fabric_sub.add_parser(
        "status", help="per-state cell counts and quarantined cells"
    )
    fabric_status.add_argument("--store", required=True, metavar="PATH")
    fabric_status.add_argument("--json", action="store_true",
                               help="print the full status document as JSON")
    fabric_status.add_argument("--prometheus", action="store_true",
                               help="print the store's gauges in Prometheus "
                                    "text exposition format instead")
    fabric_requeue = fabric_sub.add_parser(
        "requeue", help="put failed/quarantined cells back to pending"
    )
    fabric_requeue.add_argument("--store", required=True, metavar="PATH")
    fabric_requeue.add_argument("--states", default="failed,quarantined",
                                metavar="S1,S2",
                                help="states to requeue (default: "
                                     "failed,quarantined)")
    fabric_requeue.add_argument("--expired", action="store_true",
                                help="also requeue leased cells whose "
                                     "deadline already passed")
    fabric_export = fabric_sub.add_parser(
        "export",
        help="reassemble a completed store into the sweep export "
             "(byte-identical to `repro sweep --jobs 1 --out`)",
    )
    fabric_export.add_argument("--store", required=True, metavar="PATH")
    fabric_export.add_argument("--out", dest="out", action="append",
                               required=True, metavar="PATH",
                               help="export path (.json or .csv); repeat "
                                    "for both formats")
    fabric_export.add_argument("--partial", action="store_true",
                               help="export only fully-completed grid points "
                                    "of a still-running store")
    return parser


def report_table(scenario_name: str, report) -> ResultTable:
    """Render a scenario report as a two-column table."""
    table = ResultTable(f"AirDnD scenario report: {scenario_name}", ["metric", "value"])
    for key, value in report.as_dict().items():
        table.add_row(key, value)
    return table


# ------------------------------------------------------------------ sweeps


def _parse_knob_value(token: str):
    """One ``--set`` value: int, then float, then bool, else raw string."""
    for caster in (int, float):
        try:
            return caster(token)
        except ValueError:
            pass
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return token


#: Scenario-specific fleet-size field names, normalised to the uniform ``n``
#: (passing them through verbatim would collide with the builder's own
#: ``n`` forwarding).
FLEET_KNOB_ALIASES = frozenset(fleet for _, _, fleet in SCENARIOS.values())


def parse_sweep_dimensions(args: argparse.Namespace) -> Dict[str, List[object]]:
    """The ordered grid dimensions requested by ``--n`` / ``--set``."""
    dimensions: Dict[str, List[object]] = {}
    if args.n is not None:
        dimensions["n"] = list(args.n)
    for assignment in args.sets or ():
        knob, separator, values = assignment.partition("=")
        knob = knob.strip()
        if not separator or not knob:
            raise SystemExit(f"--set expects KNOB=V1,V2,..., got {assignment!r}")
        if knob == "seed":
            raise SystemExit(
                "the sweep seed is set by --seed (every repetition derives its "
                "own seed from it), not by --set seed=..."
            )
        if knob in FLEET_KNOB_ALIASES:
            knob = "n"
        if knob in dimensions:
            raise SystemExit(f"duplicate sweep dimension {knob!r}")
        tokens = [token.strip() for token in values.split(",") if token.strip()]
        if not tokens:
            raise SystemExit(f"--set {knob}= needs at least one value")
        dimensions[knob] = [_parse_knob_value(token) for token in tokens]
    if not dimensions:
        raise SystemExit("sweep needs at least one dimension (--set KNOB=... or --n ...)")
    return dimensions


def validate_sweep_metrics(args: argparse.Namespace, dimensions) -> Optional[List[str]]:
    """Fail fast on unknown ``--metrics`` names, before the sweep runs.

    A typo used to surface only *after* the entire sweep had finished.  A
    single cheap probe repetition (first grid point, duration capped at
    :data:`PROBE_DURATION_S`) now collects the scenario's metric names up
    front — the report's key set does not depend on duration or knob values,
    so the probe is authoritative.  Returns the metric list to tabulate, or
    ``None`` when it must be derived from the sweep results (``all``).
    """
    if args.metrics is None:
        # Defaults may include metrics a scenario doesn't report; those rows
        # are simply omitted from the table.
        return DEFAULT_SWEEP_METRICS
    if args.metrics == ["all"]:
        return None
    probe_params = {knob: values[0] for knob, values in dimensions.items()}
    probe_params.setdefault("duration", min(args.duration, PROBE_DURATION_S))
    probe_params["duration"] = min(float(probe_params["duration"]), PROBE_DURATION_S)
    available = run_scenario_once(args.scenario, seed=1000 + args.seed, **probe_params)
    unknown = [metric for metric in args.metrics if metric not in available]
    if unknown:
        raise SystemExit(
            f"unknown metric(s): {', '.join(unknown)} "
            f"(available: {', '.join(sorted(available))})"
        )
    return args.metrics


def load_resume_cache(args: argparse.Namespace):
    """Load and sanity-check the ``--resume`` cache (None when not asked for).

    A resume file written for a different scenario would silently satisfy
    zero cells (seeds/params would not match anyway), but failing loudly
    catches the much likelier operator mistake of pointing at the wrong
    export.
    """
    if args.resume is None:
        return None
    try:
        cache = load_sweep_cache(args.resume)
    except FileNotFoundError:
        raise SystemExit(f"--resume: no such file: {args.resume!r}")
    except (ValueError, OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"--resume: cannot use {args.resume!r}: {error}")
    if cache.scenario is not None and cache.scenario != args.scenario:
        raise SystemExit(
            f"--resume: {args.resume!r} holds a {cache.scenario!r} sweep, "
            f"not {args.scenario!r}"
        )
    if cache.duration is not None and cache.duration != args.duration:
        # A cell's metrics are only valid for the duration they were
        # simulated at; silently reusing them would mislabel the export.
        raise SystemExit(
            f"--resume: {args.resume!r} was swept at --duration "
            f"{cache.duration:g}, not {args.duration:g}"
        )
    return cache


def sweep_table(
    args: argparse.Namespace, profile_dir: Optional[str] = None
) -> ResultTable:
    """Run the requested sweep and tabulate mean/stddev per metric per point.

    Seeds derive from ``--seed`` the same way single runs do, so two sweeps
    with the same arguments are byte-identical — including across ``--jobs``
    settings, and against the historical ``--n``-only command line.
    ``profile_dir`` receives one cProfile dump per fresh cell.
    """
    dimensions = parse_sweep_dimensions(args)
    for path in args.out or ():   # fail on a bad suffix before, not after, the sweep
        if not path.lower().endswith((".json", ".csv")):
            raise SystemExit(
                f"cannot infer export format from {path!r} (use .json or .csv)"
            )
    cache = load_resume_cache(args)
    metrics = validate_sweep_metrics(args, dimensions)
    grid = SweepGrid(dimensions)
    trace_dir = getattr(args, "trace_dir", None)
    cell_options = dict(
        repetitions=args.repetitions,
        base_seed=1000 + args.seed,
        jobs=args.jobs,
        trace_dir=trace_dir,
        profile_dir=profile_dir,
    )
    if args.warm_start:
        if "duration" not in grid.dimensions:
            raise SystemExit(
                "--warm-start needs a duration dimension "
                "(e.g. --set duration=10,30,60)"
            )
        if cache is not None:
            # The cache is keyed per duration cell; a warm trajectory spans
            # every duration of its group at once.
            raise SystemExit("--warm-start does not support --resume")
        results = sweep_scenario_grid_warm(args.scenario, grid, **cell_options)
    else:
        results = sweep_scenario_grid(
            args.scenario, grid, duration=args.duration, cache=cache, **cell_options
        )
    if trace_dir is not None:
        unit = "trajectory" if args.warm_start else "fresh cell"
        print(f"traces: one Chrome trace-event file per {unit} in {trace_dir}")
    if cache is not None:
        total = len(grid) * args.repetitions
        print(
            f"resume: reused {cache.hits} of {total} cells from {args.resume} "
            f"({total - cache.hits} run fresh)"
        )
    if metrics is None:   # --metrics all
        collected: dict = {}
        for result in results:
            for run in result.runs:
                collected.update(dict.fromkeys(run))
        metrics = list(collected)
    for path in args.out or ():
        export_results(
            path,
            results,
            dimensions=grid.dimension_names,
            scenario=args.scenario,
            grid=dict(dimensions),
            duration=args.duration,
            repetitions=args.repetitions,
            base_seed=1000 + args.seed,
            jobs=args.jobs,
        )
    grid_label = " × ".join(f"{name}={values}" for name, values in dimensions.items())
    table = ResultTable(
        f"AirDnD sweep: {args.scenario} × {grid_label} "
        f"({args.repetitions} reps, {args.duration:g} sim-s)",
        [*grid.dimension_names, "metric", "mean", "stddev"],
    )
    for result in results:
        params = result.point.as_dict()
        prefix = [params[name] for name in grid.dimension_names]
        for metric in metrics:
            if not result.metric_values(metric):
                continue
            table.add_row(*prefix, metric, result.mean(metric), result.stddev(metric))
    return table


def run_profiled_sweep(args: argparse.Namespace) -> None:
    """Run the sweep with every fresh cell profiled; print the hot spots.

    Perf work starts from data: the sweep table prints first, then the
    top-``--profile-top`` functions by cumulative time; ``--profile-out``
    dumps the raw stats for offline tooling.  cProfile is per-process, so
    each cell dumps its own stats wherever it runs (this process or a
    ``--jobs`` worker) and the dumps are merged here.  Work outside the
    cells — the ``--metrics`` probe, the export — is not profiled.
    """
    import glob
    import os
    import pstats
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-profile-") as profile_dir:
        print(sweep_table(args, profile_dir=profile_dir).render())
        paths = sorted(glob.glob(os.path.join(profile_dir, "cell-s*.prof")))
        if not paths:
            print("profile: no fresh cells ran, nothing to report")
            return
        stats = pstats.Stats(*paths)
    if args.profile_out:
        stats.dump_stats(args.profile_out)
    stats.sort_stats("cumulative")
    print(
        f"profile: top {args.profile_top} functions by cumulative time "
        f"({len(paths)} cell profiles merged)"
    )
    stats.print_stats(args.profile_top)


# ------------------------------------------------------------------ fabric


def submit_fabric_sweep(args: argparse.Namespace) -> int:
    """``repro sweep --fabric STORE``: populate a job store, run nothing.

    The store records the same grid/seed/duration metadata a sequential
    sweep would export, so after workers drain it ``repro fabric export``
    reproduces the ``--jobs 1 --out`` files byte for byte.
    """
    from repro.fabric import DEFAULT_LEASE_TTL, DEFAULT_MAX_ATTEMPTS, submit_grid
    from repro.fabric.store import FabricError

    for flag, name in (
        (args.warm_start, "--warm-start"),
        (args.profile, "--profile"),
        (args.out, "--out"),
        (getattr(args, "trace_dir", None), "--trace-dir"),
    ):
        if flag:
            raise SystemExit(
                f"--fabric submits cells for workers to run; {name} belongs "
                "to the in-process sweep (export later with "
                "`repro fabric export`)"
            )
    if args.jobs != 1:
        raise SystemExit(
            "--fabric replaces --jobs: parallelism comes from running "
            "`repro worker` processes against the store"
        )
    dimensions = parse_sweep_dimensions(args)
    cache = load_resume_cache(args)
    grid = SweepGrid(dimensions)
    try:
        store = submit_grid(
            args.fabric,
            args.scenario,
            grid,
            duration=args.duration,
            repetitions=args.repetitions,
            base_seed=1000 + args.seed,
            resume_cache=cache,
            lease_ttl=(
                DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
            ),
            max_attempts=(
                DEFAULT_MAX_ATTEMPTS
                if args.max_attempts is None
                else args.max_attempts
            ),
        )
    except (FabricError, FileExistsError, OSError, ValueError) as error:
        raise SystemExit(f"--fabric: {error}")
    counts = store.counts()
    total = sum(counts.values())
    print(
        f"fabric: submitted {total} cells "
        f"({counts['done']} preloaded from --resume, "
        f"{counts['pending']} pending) to {args.fabric}"
    )
    print(
        f"drain with: repro worker --store {args.fabric}   (any number of "
        f"processes); then: repro fabric export --store {args.fabric} "
        f"--out results.json"
    )
    store.close()
    return 0


def worker_command(args: argparse.Namespace) -> int:
    """The ``repro worker`` subcommand: one pull-based fabric worker."""
    from repro.fabric import FabricWorker
    from repro.fabric.store import FabricError
    from repro.fabric.worker import run_worker

    try:
        worker = FabricWorker(
            args.store,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat,
            poll_interval=args.poll,
            max_cells=args.max_cells,
            exit_when_idle=not args.keep_polling,
            install_signal_handlers=True,
        )
        completed = run_worker(worker, args.metrics_port)
    except FileNotFoundError:
        raise SystemExit(f"worker: no such store: {args.store!r}")
    except FabricError as error:
        raise SystemExit(f"worker: {error}")
    print(
        f"worker {worker.worker_id}: {completed} completed, "
        f"{worker.failed} failed, {worker.abandoned} abandoned"
    )
    return 0


def fabric_command(args: argparse.Namespace) -> int:
    """The ``repro fabric`` subcommands: status / requeue / export."""
    from repro.fabric import JobStore, export_store
    from repro.fabric.store import FabricError

    try:
        store = JobStore(args.store)
    except FileNotFoundError:
        raise SystemExit(f"fabric: no such store: {args.store!r}")
    except FabricError as error:
        raise SystemExit(f"fabric: {error}")
    with store:
        if args.fabric_command == "status":
            if args.prometheus:
                from repro.telemetry import job_store_exposition

                print(job_store_exposition(store.observe()), end="")
                return 0
            status = store.status()
            if args.json:
                print(json.dumps(status, indent=2))
                return 0
            states = status["states"]
            print(f"fabric store {args.store}: {status['cells']} cells")
            for state, count in states.items():
                print(f"  {state:>11}: {count}")
            print(f"  lease acquisitions so far: {status['attempts']}")
            for cell in status["quarantined"]:
                print(
                    f"  quarantined {cell['name']} (rep {cell['repetition']}, "
                    f"{cell['attempts']} attempts): {cell['error']}"
                )
            return 0
        if args.fabric_command == "requeue":
            states = tuple(
                token.strip() for token in args.states.split(",") if token.strip()
            )
            try:
                count = store.requeue(states, expired_leases=args.expired)
            except ValueError as error:
                raise SystemExit(f"fabric requeue: {error}")
            print(f"fabric: requeued {count} cells in {args.store}")
            return 0
        # export
        for path in args.out:
            if not path.lower().endswith((".json", ".csv")):
                raise SystemExit(
                    f"cannot infer export format from {path!r} (use .json or .csv)"
                )
        try:
            results = export_store(store, args.out, partial=args.partial)
        except FabricError as error:
            raise SystemExit(f"fabric export: {error}")
        print(
            f"fabric: exported {len(results)} grid points from {args.store} "
            f"to {', '.join(args.out)}"
        )
        return 0


def run_command(args: argparse.Namespace) -> int:
    """The ``repro run`` subcommand: one scenario, optionally checkpointed.

    ``--trace PATH`` activates the telemetry tracer around the whole run and
    writes a Chrome trace-event JSON afterwards; the run's report stays
    byte-identical (the tracer only observes — see docs/OBSERVABILITY.md).
    """
    if args.trace is None:
        return _execute_run(args)
    from repro.telemetry import Tracer, activate

    try:
        tracer = Tracer(sample_every=args.trace_sample)
    except ValueError as error:
        raise SystemExit(f"--trace-sample: {error}")
    with activate(tracer):
        code = _execute_run(args)
    count = tracer.save(args.trace)
    print(f"trace: {count} events written to {args.trace}")
    return code


def _execute_run(args: argparse.Namespace) -> int:
    from repro.scenarios.base import Scenario
    from repro.snapshot import SnapshotCodec, SnapshotError

    if args.from_snapshot is not None:
        if (
            args.scenario is not None
            or args.vehicles is not None
            or args.snapshot_at is not None
            or args.snapshot_out is not None
        ):
            raise SystemExit(
                "--from-snapshot restores a saved run; it cannot be combined "
                "with --scenario/--vehicles/--snapshot-at/--snapshot-out"
            )
        try:
            with open(args.from_snapshot, "rb") as handle:
                blob = handle.read()
            header = SnapshotCodec().read_header(blob)
            scenario = Scenario.restore(blob)
        except FileNotFoundError:
            raise SystemExit(f"--from-snapshot: no such file: {args.from_snapshot!r}")
        except SnapshotError as error:
            raise SystemExit(f"--from-snapshot: {error}")
        meta = header["metadata"]
        print(
            f"restored {meta.get('scenario')!r} snapshot at t={meta.get('time'):g} "
            f"(seed {meta.get('seed')}, {meta.get('node_count')} nodes)"
        )
        try:
            if args.duration is None:
                report = scenario.resume()
            else:
                window_start = scenario._window_end - scenario._window_duration
                report = scenario.resume(until=window_start + args.duration)
        except (RuntimeError, ValueError, TypeError) as error:
            raise SystemExit(f"--from-snapshot: cannot resume: {error}")
        # Titled by the CLI name, as `repro run --scenario` titles it.
        name = next(
            (key for key, (_, scenario_class, _) in SCENARIOS.items()
             if type(scenario) is scenario_class),
            scenario.name,
        )
        print(report_table(name, report).render())
        return 0
    if args.scenario is None:
        raise SystemExit("run needs --scenario NAME or --from-snapshot PATH")
    if (args.snapshot_at is None) != (args.snapshot_out is None):
        raise SystemExit("--snapshot-at and --snapshot-out must be given together")
    scenario = build_scenario(args.scenario, n=args.vehicles, seed=args.seed)
    duration = 20.0 if args.duration is None else args.duration
    report = scenario.run(
        duration=duration,
        snapshot_at=args.snapshot_at,
        snapshot_to=args.snapshot_out,
    )
    if args.snapshot_out is not None:
        print(f"snapshot written to {args.snapshot_out} at t={args.snapshot_at:g}")
    print(report_table(args.scenario, report).render())
    return 0


def serve_command(args: argparse.Namespace) -> int:
    """The ``repro serve`` subcommand: expose the session service over HTTP.

    Serves through the bundled stdlib ASGI server in
    :mod:`repro.service.httpd`.
    """
    from repro.service.app import create_app
    from repro.service.httpd import run_server
    from repro.service.registry import SessionRegistry

    registry = SessionRegistry(
        step_slice=args.step_slice, snapshot_dir=args.snapshot_dir
    )
    app = create_app(registry, auto_drive=not args.no_auto_drive)
    banner = (
        "repro service on http://{}:{} "
        f"(stdlib server, step slice {args.step_slice}; Ctrl-C to stop)"
    )
    # The banner is the readiness signal: printed once the socket is bound.
    run_server(
        app,
        lambda host, port: print(banner.format(host, port), flush=True),
        host=args.host,
        port=args.port,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_command(args)
    if args.command == "serve":
        return serve_command(args)
    if args.command == "sweep":
        if args.fabric is not None:
            return submit_fabric_sweep(args)
        if args.lease_ttl is not None or args.max_attempts is not None:
            raise SystemExit("--lease-ttl/--max-attempts only apply with --fabric")
        if args.profile:
            run_profiled_sweep(args)
        else:
            print(sweep_table(args).render())
        return 0
    if args.command == "worker":
        return worker_command(args)
    return fabric_command(args)


if __name__ == "__main__":   # pragma: no cover - exercised via subprocess in examples
    raise SystemExit(main())
