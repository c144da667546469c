"""Prometheus text-exposition rendering for every live metric source.

This module turns the repo's metric surfaces — per-simulation
:class:`~repro.simcore.monitor.Monitor` registries, the service layer's
session bookkeeping, the fabric store's cell states and the fabric worker's
loop counters — into `Prometheus text exposition format 0.0.4
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_.

Everything here is *pull-side and read-only*: rendering walks already-
existing metric objects and plain dictionaries, creates nothing inside the
simulation, draws no RNG, and schedules no events — the zero-perturbation
contract shared with :mod:`repro.telemetry.trace` (certified by the
telemetry null-invariance suite and benchmark E19).  The module is
deliberately duck-typed (it imports nothing from the rest of the package),
so the service, fabric and CLI layers can all feed it without cycles.

Mapping of the repo's metric kinds (``docs/OBSERVABILITY.md`` tabulates the
full name/label reference):

========================  =============================================
Monitor kind              Prometheus family
========================  =============================================
``Counter``               counter ``repro_<name>_total``
``Gauge``                 gauge ``repro_<name>``
``SampleSeries``          histogram ``repro_<name>`` (+ ``_sum``/``_count``)
========================  =============================================
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: The Content-Type a conforming 0.0.4 exposition endpoint must serve.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Metric-name prefix for every family this repo exports.
NAMESPACE = "repro"

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_SCRUB = re.compile(r"[^a-zA-Z0-9_]")


def sanitize_metric_name(name: str, namespace: str = NAMESPACE) -> str:
    """``radio.frames_delivered`` → ``repro_radio_frames_delivered``."""
    scrubbed = _NAME_SCRUB.sub("_", name).strip("_")
    full = f"{namespace}_{scrubbed}" if namespace else scrubbed
    if not _NAME_OK.match(full):
        full = "_" + full
    return full


def escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format (\\\\, \\", \\n)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def format_value(value: float) -> str:
    """Render one sample value (exposition spec: ``NaN``, ``+Inf``, ``-Inf``)."""
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_block(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{escape_label_value(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


@dataclass(frozen=True)
class MetricPoint:
    """One counter or gauge sample bound for the exposition.

    ``name`` is the raw family name (dots allowed; sanitised at render
    time).  Counters get the conventional ``_total`` suffix appended if the
    name does not already carry it.
    """

    name: str
    kind: str  # "counter" | "gauge"
    value: float
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge"):
            raise ValueError(f"MetricPoint kind must be counter/gauge, got {self.kind!r}")


@dataclass(frozen=True)
class HistogramPoint:
    """One histogram sample set (cumulative buckets + sum + count)."""

    name: str
    buckets: Tuple[Tuple[float, int], ...]  # (upper bound, cumulative count)
    sum: float
    count: int
    help: str = ""
    labels: Tuple[Tuple[str, str], ...] = ()

    kind: str = field(default="histogram", init=False)


def _labels_tuple(labels: Optional[Mapping[str, object]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def point(
    name: str,
    kind: str,
    value: float,
    *,
    help: str = "",
    labels: Optional[Mapping[str, object]] = None,
) -> MetricPoint:
    """Convenience constructor accepting a plain label dict."""
    return MetricPoint(
        name=name, kind=kind, value=float(value), help=help,
        labels=_labels_tuple(labels),
    )


# ------------------------------------------------------------------ monitor


def monitor_points(
    monitor: Any,
    labels: Optional[Mapping[str, object]] = None,
) -> List[Any]:
    """Bridge one :class:`~repro.simcore.monitor.Monitor` into points.

    Read-only: walks the monitor's registries without creating any metric.
    Duck-typed so old unpickled monitors (which may lack the ``gauges``
    registry added with this module) bridge cleanly.
    """
    out: List[Any] = []
    for name, counter in getattr(monitor, "counters", {}).items():
        out.append(
            point(
                name, "counter", counter.value,
                help=f"Monitor counter {name!r}", labels=labels,
            )
        )
    for name, gauge in getattr(monitor, "gauges", {}).items():
        out.append(
            point(
                name, "gauge", gauge.value,
                help=f"Monitor gauge {name!r}", labels=labels,
            )
        )
    for name, sample in getattr(monitor, "samples", {}).items():
        if sample.count:
            out.append(
                HistogramPoint(
                    name=name,
                    buckets=sample.cumulative_buckets(),
                    sum=sample.sum,
                    count=sample.count,
                    help=f"Monitor sample series {name!r}",
                    labels=_labels_tuple(labels),
                )
            )
    return out


# ---------------------------------------------------------------- rendering


def _family_name(sample: Any) -> str:
    name = sanitize_metric_name(sample.name)
    if sample.kind == "counter" and not name.endswith("_total"):
        name += "_total"
    return name


def render_exposition(points: Iterable[Any]) -> str:
    """Render points as exposition text (one HELP/TYPE block per family).

    Families are emitted in sorted name order and each family's samples in
    sorted label order, so the document is deterministic for a given metric
    state.  A family name claimed by two different kinds, or the same
    (family, labels) pair sampled twice, is a programming error and raises.
    """
    families: Dict[str, List[Any]] = {}
    kinds: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    for sample in points:
        family = _family_name(sample)
        if kinds.setdefault(family, sample.kind) != sample.kind:
            raise ValueError(
                f"metric family {family!r} claimed as both "
                f"{kinds[family]!r} and {sample.kind!r}"
            )
        if sample.help and family not in helps:
            helps[family] = sample.help
        families.setdefault(family, []).append(sample)
    lines: List[str] = []
    for family in sorted(families):
        samples = sorted(families[family], key=lambda s: s.labels)
        seen = set()
        for sample in samples:
            if sample.labels in seen:
                raise ValueError(
                    f"duplicate sample {family}{dict(sample.labels)!r}"
                )
            seen.add(sample.labels)
        if family in helps:
            escaped = helps[family].replace("\\", "\\\\").replace("\n", "\\n")
            lines.append(f"# HELP {family} {escaped}")
        lines.append(f"# TYPE {family} {kinds[family]}")
        for sample in samples:
            labels = dict(sample.labels)
            if kinds[family] == "histogram":
                acc = dict(labels)
                for bound, cum in sample.buckets:
                    acc["le"] = format_value(bound)
                    lines.append(
                        f"{family}_bucket{_label_block(acc)} {cum}"
                    )
                acc["le"] = "+Inf"
                lines.append(f"{family}_bucket{_label_block(acc)} {sample.count}")
                lines.append(
                    f"{family}_sum{_label_block(labels)} {format_value(sample.sum)}"
                )
                lines.append(f"{family}_count{_label_block(labels)} {sample.count}")
            else:
                lines.append(
                    f"{family}{_label_block(labels)} {format_value(sample.value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


# ------------------------------------------------------- service-layer bridge


def _session_tier(session: Any) -> str:
    config = getattr(getattr(session, "scenario", None), "config", None)
    return "statistical" if getattr(config, "fast_math", False) else "exact"


def session_registry_points(registry: Any) -> List[Any]:
    """Service-level gauges + every live session's monitor, labelled.

    Duck-typed over :class:`~repro.service.registry.SessionRegistry`:
    sessions whose scenario is gone (evicted/failed) contribute only to the
    state gauges.  The service bookkeeping lives on the registry object, not
    inside any simulation's monitor, so scraping cannot leak service
    metrics into a scenario report.
    """
    points: List[Any] = []
    for state, count in registry.state_counts().items():
        points.append(
            point(
                "service.sessions", "gauge", count,
                help="Sessions per lifecycle state",
                labels={"state": state},
            )
        )
    points.append(
        point(
            "service.scheduler_passes", "counter",
            getattr(registry, "scheduler_passes", 0),
            help="Round-robin scheduler passes completed",
        )
    )
    points.append(
        point(
            "service.sessions_stepped", "counter",
            getattr(registry, "sessions_stepped", 0),
            help="Session slices executed by the scheduler",
        )
    )
    for session in registry.sessions():
        scenario = getattr(session, "scenario", None)
        if scenario is None:
            continue
        labels = {
            "session_id": session.id,
            "scenario": session.scenario_name,
            "tier": _session_tier(session),
        }
        points.extend(monitor_points(scenario.sim.monitor, labels))
    return points


def session_registry_exposition(registry: Any) -> str:
    """The service facade's ``GET /metrics`` document."""
    return render_exposition(session_registry_points(registry))


# --------------------------------------------------------------- fabric bridge


def job_store_points(observation: Mapping[str, Any]) -> List[Any]:
    """Points from one :meth:`~repro.fabric.store.JobStore.observe` document.

    The observation dict is the *single shared accessor* both this renderer
    and ``repro fabric status --json`` consume, so the Prometheus view and
    the JSON view can never diverge.
    """
    points: List[Any] = []
    for state, count in observation["states"].items():
        points.append(
            point(
                "fabric.cells", "gauge", count,
                help="Fabric cells per state", labels={"state": state},
            )
        )
    points.append(
        point(
            "fabric.lease_expirations", "gauge", observation["lease_expired"],
            help="Leased cells whose deadline has passed (worker presumed dead)",
        )
    )
    points.append(
        point(
            "fabric.lease_acquisitions", "counter", observation["attempts_total"],
            help="Total lease acquisitions across all cells",
        )
    )
    points.append(
        point(
            "fabric.retries", "counter", observation["retries_total"],
            help="Lease acquisitions beyond each cell's first",
        )
    )
    histogram = observation["attempt_histogram"]
    bounds = (1.0, 2.0, 3.0, 5.0, 10.0)
    cumulative = [
        (bound, sum(n for attempts, n in histogram.items() if 0 < attempts <= bound))
        for bound in bounds
    ]
    attempted = sum(n for attempts, n in histogram.items() if attempts > 0)
    total = sum(attempts * n for attempts, n in histogram.items())
    points.append(
        HistogramPoint(
            name="fabric.cell_attempts",
            buckets=tuple(cumulative),
            sum=float(total),
            count=attempted,
            help="Lease acquisitions per attempted cell",
        )
    )
    for worker in observation["workers"]:
        labels = {"worker_id": worker["worker"]}
        points.append(
            point(
                "fabric.worker_leased_cells", "gauge", worker["leased"],
                help="Cells currently leased per worker", labels=labels,
            )
        )
        points.append(
            point(
                "fabric.worker_heartbeat_age_seconds", "gauge",
                worker["last_heartbeat_age_s"],
                help="Seconds since each worker's last store write",
                labels=labels,
            )
        )
    return points


def job_store_exposition(observation: Mapping[str, Any]) -> str:
    """``repro fabric status --prometheus``'s document."""
    return render_exposition(job_store_points(observation))


def worker_points(worker: Any) -> List[Any]:
    """A fabric worker's loop counters, labelled with its identity."""
    labels = {"worker_id": worker.worker_id}
    return [
        point(
            "fabric_worker.cells_completed", "counter", worker.completed,
            help="Cells this worker completed", labels=labels,
        ),
        point(
            "fabric_worker.cells_failed", "counter", worker.failed,
            help="Cell attempts this worker failed", labels=labels,
        ),
        point(
            "fabric_worker.cells_abandoned", "counter", worker.abandoned,
            help="Cells this worker abandoned (lease lost or released)",
            labels=labels,
        ),
    ]
