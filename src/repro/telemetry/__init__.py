"""Zero-perturbation observability: metrics export + sim-time tracing.

Two pillars, both off by default and provably byte-invisible when enabled
(no RNG draws, no scheduled events, no report deltas — the same
null-invariance contract :mod:`repro.faults` and :mod:`repro.snapshot`
honour, certified here by ``tests/telemetry`` and benchmark E19):

* :mod:`repro.telemetry.prometheus` — bridges every live
  :class:`~repro.simcore.monitor.Monitor` (per session, per worker, per
  run) plus the service/fabric bookkeeping into Prometheus text exposition
  format 0.0.4.  Served from ``GET /metrics`` on the service facade,
  ``repro worker --metrics-port``, and ``repro fabric status
  --prometheus``.
* :mod:`repro.telemetry.trace` — dual-clocked (wall + sim time) span
  recording as Chrome trace-event JSON, viewable in Perfetto.  Enabled via
  ``repro run --trace out.json`` / ``repro sweep --trace-dir DIR`` or the
  :func:`~repro.telemetry.trace.activate` context manager.
* :mod:`repro.telemetry.httpd` — the ``/metrics`` sidecar the worker
  attaches: a small ASGI app served by the service facade's stdlib server
  (:class:`~repro.service.httpd.StdlibASGIServer`) on a background thread.

See ``docs/OBSERVABILITY.md`` for the metric/label reference, the
trace-event schema, and the zero-perturbation contract.
"""

from repro.telemetry.prometheus import (
    CONTENT_TYPE,
    DEFAULT_BUCKETS,
    HistogramPoint,
    MetricPoint,
    TelemetryRegistry,
    histogram_from_values,
    job_store_exposition,
    job_store_points,
    monitor_points,
    point,
    render_exposition,
    sanitize_metric_name,
    session_registry_exposition,
    session_registry_points,
    worker_points,
)
from repro.telemetry.trace import (
    TRACE_SCHEMA,
    Tracer,
    activate,
    current_tracer,
    deactivate,
)

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "HistogramPoint",
    "MetricPoint",
    "TRACE_SCHEMA",
    "TelemetryRegistry",
    "Tracer",
    "activate",
    "current_tracer",
    "deactivate",
    "histogram_from_values",
    "job_store_exposition",
    "job_store_points",
    "monitor_points",
    "point",
    "render_exposition",
    "sanitize_metric_name",
    "session_registry_exposition",
    "session_registry_points",
    "worker_points",
]
