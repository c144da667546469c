"""Scenario-level benchmark of the AirDnD reproduction.

One *run* measures one workload for a fixed host-time budget.  It repeats
the workload's whole scenario window (a *repetition*) until the budget is
spent, at least twice:

* repetition 1 pauses, evicts and restores the session at the workload's
  checkpoint times, the service's evict/restore promise;
* every other repetition runs the window uninterrupted.

All repetitions of one seed must produce the same report digest, which
checks determinism and the evict/restore promise at once.  A repetition
whose digest or sanity invariants fail is counted as a failed operation;
the run still finishes and reports.

Host time is measured per 2000-event session slice.  A fixed pure-Python
probe (a pointer chase) is timed just before each slice and the slice is
rescaled to the probe's reference speed, so the figures survive a host
whose speed drifts between runs (see ``README.md``).  Raw wall time is
recorded beside it.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Hash seed every run is pinned to, so snapshot bytes repeat across runs.
PINNED_HASHSEED = "0"

#: Events per session slice (the service's default scheduler slice).
SLICE_EVENTS = 2000

#: The host-speed probe chases pointers through a random cyclic
#: permutation of ``PROBE_SIZE`` list slots (about 9 MB of list and int
#: objects, beyond the per-core caches), ``PROBE_STEPS`` steps at a time.
#: Like the simulator, it is slowed both by lost CPU time and by memory
#: contention from other tenants; a cache-resident arithmetic loop
#: under-corrected the latter.  An interval of ``raw`` host seconds
#: measured while the probe took ``p`` seconds is reported as
#: ``raw * (PROBE_REFERENCE_S / p) ** PROBE_EXPONENT``.  The exponent is
#: a least-squares fit of log slice time on log probe time over repeated
#: ``urban-dense`` slices on a 2-core x86-64 container (1.26, 1.28 and
#: 1.31 from three separate sets of runs).  ``PROBE_REFERENCE_S`` is
#: about the probe's time there when the host was quiet; it only fixes
#: the unit.
PROBE_SIZE = 1 << 18
PROBE_STEPS = 16000
PROBE_REFERENCE_S = 0.004
PROBE_EXPONENT = 1.3

#: Fresh-interpreter samples of the ``repro`` import time per run.  Each
#: is divided by the import time of a fixed set of standard-library
#: modules, measured in its own fresh interpreter just before, and
#: multiplied by ``REFERENCE_IMPORT_S``, that set's import time on a quiet
#: 2-core x86-64 container (Python 3.11).  The pointer-chase probe did not
#: track import time (file system calls, module execution); the paired
#: reference halved the run-to-run spread.
IMPORT_SAMPLES = 5
REFERENCE_IMPORTS = (
    "asyncio, email.mime.multipart, http.server, json, decimal, "
    "xml.etree.ElementTree, sqlite3, unittest, argparse, logging, ssl, csv, zipfile"
)
REFERENCE_IMPORT_S = 0.07

#: End-to-end metrics: name -> unit (printed with ``--trace 0``).
END_TO_END: Dict[str, str] = {
    "wall_per_sim_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "snapshot_mb": "MB",
    "task_success_rate": "ratio",
    "mesh_mb_per_sim_s": "MB/s",
}


@dataclass(frozen=True)
class Workload:
    """One named scenario configuration the benchmark runs."""

    name: str
    scenario: str
    n: int
    duration: float
    checkpoints: Tuple[float, ...]
    overrides: Dict[str, object] = field(default_factory=dict)
    why: str = ""

    def build(self, seed: int):
        from repro.scenarios import build_scenario

        return build_scenario(self.scenario, n=self.n, seed=seed, **self.overrides)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "urban-dense",
            "urban-grid",
            300,
            2.0,
            (1.0,),
            why="300 vehicles on the default urban grid: mesh membership and "
            "the exact radio tier dominate, core and compute are idle",
        ),
        Workload(
            "corner-perception",
            "intersection",
            24,
            60.0,
            (15.0,),
            {"perception_period": 0.2},
            why="the paper's look-around-the-corner case: occluders, lidar and "
            "line-of-sight queries dominate",
        ),
        Workload(
            "offload-checkpoint",
            "urban-grid",
            60,
            20.0,
            (4.0, 8.0, 12.0),
            {"task_rate_per_s": 40.0, "fast_math": True},
            why="offload-heavy grid on the statistical radio tier, evicted and "
            "restored every 4 sim-s: orchestration, compute and snapshots",
        ),
    )
}


# --------------------------------------------------------------- host speed


_probe_ring: List[int] = []


def probe() -> float:
    """Time ``PROBE_STEPS`` steps of the pointer chase (built on first use)."""
    ring = _probe_ring
    if not ring:
        order = list(range(PROBE_SIZE))
        random.Random(0).shuffle(order)
        ring.extend(order)  # placeholder values, overwritten below
        for here, there in zip(order, order[1:] + order[:1]):
            ring[here] = there
    start = time.perf_counter()
    slot = 0
    for _ in range(PROBE_STEPS):
        slot = ring[slot]
    return time.perf_counter() - start


def at_reference(raw: float, probe_s: float) -> float:
    """Rescale ``raw`` host seconds to the probe's reference speed."""
    return raw * (PROBE_REFERENCE_S / probe_s) ** PROBE_EXPONENT


def timed_import(modules: str) -> float:
    """Seconds to import ``modules`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {modules}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=PINNED_HASHSEED)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True,
        text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def import_seconds() -> float:
    """``import repro.scenarios, repro.service.session`` in a fresh
    interpreter, rescaled by the paired standard-library reference."""
    reference = timed_import(REFERENCE_IMPORTS)
    return timed_import("repro.scenarios, repro.service.session") * REFERENCE_IMPORT_S / reference


def smoothed(timeline: Sequence[float], index: int) -> float:
    """Host speed around ``timeline[index]``: the median of the probes
    from two before to two after it (about a second of host time)."""
    return statistics.median(timeline[max(0, index - 2): index + 3])


# -------------------------------------------------------------- repetitions


@dataclass
class Rep:
    """What one repetition of a workload window measured."""

    index: int
    digest: str
    report: Dict[str, float]
    build_s: float  # at reference probe speed
    slices: List[Tuple[float, float]]  # (raw seconds, smoothed probe seconds)
    checkpoint_raw_s: float = 0.0
    checkpoint_norm_s: float = 0.0
    snapshot_bytes: int = 0  # the last eviction artifact
    build_raw_s: float = 0.0
    frames_delivered: float = 0.0
    frames_lost: float = 0.0
    joins: float = 0.0
    events: int = 0
    cache_hit_rate: float = 0.0
    outcomes: Dict[str, float] = field(default_factory=dict)
    invariant_errors: List[str] = field(default_factory=list)

    @property
    def window_raw_s(self) -> float:
        return sum(raw for raw, _ in self.slices)


def report_digest(report: Dict[str, float]) -> str:
    """sha256 of the report's sorted JSON (NaN spelled as JSON's ``NaN``)."""
    text = json.dumps(report, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_rep(
    workload: Workload, seed: int, index: int, checkpoint: bool, workdir: str
) -> Rep:
    """Build the scenario and drive its window through a session."""
    from repro.service.session import SessionState, SimulationSession

    # Collect the previous repetition's garbage outside the timed regions,
    # so every repetition starts from a like heap.
    gc.collect()
    speed = probe()
    start = time.perf_counter()
    scenario = workload.build(seed)
    session = SimulationSession(
        f"{workload.name}-{index}", scenario, duration=workload.duration,
        step_slice=SLICE_EVENTS,
    )
    session.start()
    build_raw_s = time.perf_counter() - start
    build_s = at_reference(build_raw_s, speed)

    pending = list(workload.checkpoints) if checkpoint else []
    timeline: List[float] = []  # probe seconds, in time order
    slices: List[Tuple[float, int]] = []  # (raw seconds, timeline index)
    checkpoints: List[Tuple[float, int]] = []
    rep = Rep(index, "", {}, build_s, [], build_raw_s=build_raw_s)
    clock = time.perf_counter
    while session.state is SessionState.RUNNING:
        timeline.append(probe())
        begin = clock()
        outcome = session.step()
        slices.append((clock() - begin, len(timeline) - 1))
        rep.events += outcome.events_fired
        if pending and session.state is SessionState.RUNNING and outcome.now >= pending[0]:
            pending.pop(0)
            path = os.path.join(workdir, f"{workload.name}-{os.getpid()}.reprosnap")
            gc.collect()
            timeline.append(probe())
            begin = clock()
            session.pause()
            session.evict(path)
            rep.snapshot_bytes = os.path.getsize(path)
            session.restore()
            session.resume()
            checkpoints.append((clock() - begin, len(timeline) - 1))
            os.remove(path)
    rep.slices = [(raw, smoothed(timeline, i)) for raw, i in slices]
    for raw, i in checkpoints:
        rep.checkpoint_raw_s += raw
        rep.checkpoint_norm_s += at_reference(raw, smoothed(timeline, i))
    if session.state is not SessionState.FINISHED:
        raise RuntimeError(f"session ended {session.state.value}: {session.error}")
    final = session.scenario
    monitor = final.sim.monitor
    rep.report = session.report.as_dict()
    rep.digest = report_digest(rep.report)
    rep.frames_delivered = monitor.counter_value("radio.frames_delivered")
    rep.frames_lost = monitor.counter_value("radio.frames_lost")
    rep.joins = monitor.counter_value("mesh.joins")
    rep.cache_hit_rate = final.scorer.cache_hit_rate
    rep.outcomes = outcome_metrics(final, rep.report)
    rep.invariant_errors = invariant_errors(rep.report, rep.frames_delivered, final.sim.now, workload)
    if pending:
        rep.invariant_errors.append(f"checkpoints {pending} never reached")
    return rep


def invariant_errors(
    report: Dict[str, float], frames_delivered: float, now: float, workload: Workload
) -> List[str]:
    """Sanity invariants every healthy repetition satisfies."""
    errors = []
    if frames_delivered <= 0:
        errors.append("no radio frames delivered")
    if report["tasks_submitted"] <= 0:
        errors.append("no tasks submitted")
    if report["tasks_completed"] + report["tasks_failed"] > report["tasks_submitted"]:
        errors.append("completed + failed exceeds submitted")
    if not math.isclose(report["duration_s"], workload.duration):
        errors.append(f"window covered {report['duration_s']} s, not {workload.duration}")
    if not math.isclose(now, workload.duration):
        errors.append(f"clock ended at {now}, not {workload.duration}")
    return errors


def failed_reps(reps: Sequence[Rep], reference: Optional[str] = None) -> List[Tuple[int, str]]:
    """Repetitions that fail a check, with the reason.

    ``reference`` is the expected report digest; by default it is the
    digest of the first (uninterrupted) repetition.
    """
    expected = reference if reference is not None else reps[0].digest
    failures = []
    for rep in reps:
        if rep.digest != expected:
            failures.append((rep.index, f"report digest {rep.digest[:12]} != {expected[:12]}"))
        elif rep.invariant_errors:
            failures.append((rep.index, "; ".join(rep.invariant_errors)))
    return failures


def run_reps(
    workload: Workload, seed: int, seconds: float, workdir: str, checkpoint_all: bool = False,
) -> List[Rep]:
    """Repeat the window until ``seconds`` of host time are spent (>= 2 reps).

    Repetition 1 is checkpointed, or with ``checkpoint_all`` every one.  A
    new repetition starts only if it fits, judged by the length of the last
    repetition of its kind.
    """
    reps: List[Rep] = []
    lengths: List[float] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= 2:
            same_kind = lengths[-1] if checkpoint_all or len(reps) >= 3 else lengths[0]
            if elapsed + same_kind > seconds:
                break
        rep_start = time.perf_counter()
        checkpoint = checkpoint_all or len(reps) == 1
        reps.append(run_rep(workload, seed, len(reps), checkpoint, workdir))
        lengths.append(time.perf_counter() - rep_start)
        print(
            f"rep {len(reps) - 1}: {lengths[-1]:.2f} s (window {reps[-1].window_raw_s:.2f} s, "
            f"checkpoint {reps[-1].checkpoint_raw_s:.2f} s)",
            file=sys.stderr,
        )
    return reps


# ------------------------------------------------------------------ metrics


def normalised_window_s(reps: Sequence[Rep]) -> float:
    """Window host seconds at reference probe speed.

    Slice ``k`` does the same work in every repetition, so each slice's
    normalised time is the median over repetitions, then summed.
    """
    count = min(len(rep.slices) for rep in reps)
    total = 0.0
    for k in range(count):
        total += statistics.median(
            at_reference(*rep.slices[k]) for rep in reps
        )
    return total


def end_to_end_metrics(
    workload: Workload, reps: Sequence[Rep], import_samples: Sequence[float]
) -> Dict[str, float]:
    checkpointed = [rep for rep in reps if rep.snapshot_bytes]
    first = reps[0]
    return {
        "wall_per_sim_s": normalised_window_s(reps) / workload.duration,
        "setup_s": statistics.median(import_samples)
        + statistics.median(rep.build_s for rep in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "snapshot_mb": checkpointed[0].snapshot_bytes / 1e6,
        "task_success_rate": first.report["success_rate"],
        "mesh_mb_per_sim_s": first.report["mesh_bytes"] / 1e6 / workload.duration,
    }


def raw_figures(workload: Workload, reps: Sequence[Rep]) -> Dict[str, float]:
    """Raw (unnormalised) host figures recorded beside the metrics."""
    checkpointed = [rep for rep in reps if rep.snapshot_bytes]
    return {
        "raw_wall_per_sim_s": statistics.median(rep.window_raw_s for rep in reps)
        / workload.duration,
        "raw_checkpoint_s": statistics.median(rep.checkpoint_raw_s for rep in checkpointed),
        "checkpoint_s": statistics.median(rep.checkpoint_norm_s for rep in checkpointed),
        "probe_median_s": statistics.median(s for rep in reps for _, s in rep.slices),
        "reps": len(reps),
        "events_per_rep": reps[0].events,
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, as the scenario report computes it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q / 100.0 * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def outcome_metrics(scenario, report: Dict[str, float]) -> Dict[str, float]:
    """Workload-specific simulated outcomes (0 where a workload lacks them)."""
    latencies = [
        l.total_latency()
        for l in scenario.all_lifecycles()
        if l.is_terminal and l.succeeded and l.total_latency() is not None
    ]
    return {
        "outcome.tasks_completed": float(len(latencies)),
        "outcome.task_latency_p50_s": percentile(latencies, 50),
        # p95 needs ten samples beyond it, so 200 in all.
        "outcome.task_latency_p95_s": percentile(latencies, 95) if len(latencies) >= 200 else 0.0,
        "outcome.occluded_detection_rate": report.get("occluded_detection_rate", 0.0),
    }


# --------------------------------------------------------------- provenance


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def provenance() -> Dict[str, object]:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "src_lines": src_lines(),
    }


# ------------------------------------------------------------- traced run


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics: name -> unit (printed with ``--trace 1``)."""
    from tracing import LAYERS, TARGETS

    units: Dict[str, str] = {}
    for _, _, _, _, key in TARGETS:
        units[f"{key}.self_s"] = "s"
        units[f"{key}.calls"] = "count"
    units.update(
        {
            "simcore.events": "count",
            "radio.delivery_ratio": "ratio",
            "mesh.joins": "count",
            "core.CandidateScorer.cache_hit_rate": "ratio",
            "snapshot.bytes": "B",
            "snapshot.checkpoint_share": "ratio",
            "snapshot.hashseed_stable": "bool",
        }
    )
    for layer in LAYERS:
        if layer != "snapshot":
            units[f"layer.{layer}.share"] = "ratio"
    units.update(
        {
            "traced.attributed_share": "ratio",
            "traced.overhead": "ratio",
            "outcome.tasks_completed": "count",
            "outcome.task_latency_p50_s": "s",
            "outcome.task_latency_p95_s": "s",
            "outcome.occluded_detection_rate": "ratio",
        }
    )
    return units


def capture_sha(workload: Workload, seed: int) -> str:
    """sha256 of a snapshot taken at the workload's first checkpoint time."""
    from repro.service.session import SimulationSession

    session = SimulationSession("hashseed", workload.build(seed), duration=workload.duration)
    session.start()
    while session.scenario.sim.now < workload.checkpoints[0]:
        session.step()
    return hashlib.sha256(session.snapshot()).hexdigest()


def hashseed_stable(workload: Workload, seed: int) -> bool:
    """Whether the mid-run snapshot bytes match under two hash seeds.

    Each capture runs in a fresh interpreter, so process-global id counters
    start from the same place; only ``PYTHONHASHSEED`` differs.
    """
    fields = dataclasses.asdict(workload)
    code = (
        "import sys; sys.path[:0] = [{here!r}, {src!r}]; import bench; "
        "fields = {fields!r}; fields['checkpoints'] = tuple(fields['checkpoints']); "
        "print(bench.capture_sha(bench.Workload(**fields), {seed}))"
    ).format(here=HERE, src=SRC, fields=fields, seed=seed)
    shas = []
    for hashseed in (PINNED_HASHSEED, "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, capture_output=True,
            text=True, timeout=170,
        )
        shas.append(out.stdout.split()[-1])
    return shas[0] == shas[1]


def normalised_rep_window(rep: Rep) -> float:
    return sum(at_reference(raw, speed) for raw, speed in rep.slices)


def traced_metrics(tracer, untraced: Rep, traced: Sequence[Rep], stable: bool) -> Dict[str, float]:
    """Per-layer metrics, averaged per traced repetition."""
    from tracing import CHECKPOINT_KEYS, LAYERS, TARGETS

    count = len(traced)
    window = sum(rep.window_raw_s for rep in traced)
    # Building the scenario also calls wrapped functions, so the share
    # is taken over build plus window time.
    busy = window + sum(rep.build_raw_s for rep in traced)
    metrics: Dict[str, float] = {}
    for _, _, _, _, key in TARGETS:
        self_s, calls = tracer.stats[key]
        metrics[f"{key}.self_s"] = self_s / count
        metrics[f"{key}.calls"] = calls / count
    first = traced[0]
    delivered, lost = first.frames_delivered, first.frames_lost
    checkpoint_total = sum(tracer.stats[key][0] for key in CHECKPOINT_KEYS)
    snapshot_total = sum(
        tracer.stats[key][0] for key in CHECKPOINT_KEYS if key.startswith("snapshot.")
    )
    metrics.update(
        {
            "simcore.events": float(first.events),
            "radio.delivery_ratio": delivered / (delivered + lost) if delivered + lost else 0.0,
            "mesh.joins": first.joins,
            "core.CandidateScorer.cache_hit_rate": first.cache_hit_rate,
            "snapshot.bytes": float(first.snapshot_bytes),
            "snapshot.checkpoint_share": snapshot_total / checkpoint_total if checkpoint_total else 0.0,
            "snapshot.hashseed_stable": 1.0 if stable else 0.0,
        }
    )
    in_window = dict.fromkeys(LAYERS, 0.0)
    for layer, _, _, _, key in TARGETS:
        if key not in CHECKPOINT_KEYS:
            in_window[layer] += tracer.stats[key][0]
    for layer in LAYERS:
        if layer != "snapshot":
            metrics[f"layer.{layer}.share"] = in_window[layer] / busy
    metrics["traced.attributed_share"] = sum(in_window.values()) / busy
    metrics["traced.overhead"] = statistics.median(
        normalised_rep_window(rep) for rep in traced
    ) / normalised_rep_window(untraced)
    metrics.update(first.outcomes)
    return metrics


# -------------------------------------------------------------------- runs


@dataclass
class Result:
    """One run's printed result plus what it recorded beside the metrics."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    failures: List[Tuple[int, str]]
    extra: Dict[str, object]
    digests: List[str]

    def line(self) -> str:
        """The result's last-line JSON object."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": self.metrics[name], "unit": self.units[name]}
                    for name in self.units
                },
            }
        )


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, workdir: str,
    reference: Optional[str] = None,
) -> Result:
    """Run one workload for ``seconds`` of host time; traced or not.

    ``reference`` overrides the expected report digest (the first
    repetition's by default).
    """
    os.makedirs(workdir, exist_ok=True)
    if not trace:
        imports = [import_seconds() for _ in range(IMPORT_SAMPLES)]
        reps = run_reps(workload, seed, seconds, workdir)
        metrics = end_to_end_metrics(workload, reps, imports)
        units = END_TO_END
        extra: Dict[str, object] = dict(raw_figures(workload, reps), import_s=imports)
    else:
        from tracing import LayerTracer

        start = time.perf_counter()
        stable = hashseed_stable(workload, seed)
        untraced = run_rep(workload, seed, 0, False, workdir)
        remaining = max(0.0, seconds - (time.perf_counter() - start))
        with LayerTracer() as tracer:
            traced = run_reps(workload, seed, remaining, workdir, checkpoint_all=True)
        reps = [untraced] + traced
        for index, rep in enumerate(reps):
            rep.index = index
        metrics = traced_metrics(tracer, untraced, traced, stable)
        units = per_layer_units()
        extra = {"reps": len(reps)}
    failures = failed_reps(reps, reference)
    return Result(
        correct=not failures,
        attempted=len(reps),
        failed=len(failures),
        metrics=metrics,
        units=units,
        failures=failures,
        extra=extra,
        digests=[rep.digest for rep in reps],
    )
