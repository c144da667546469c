"""Scenario-level snapshot orchestration.

A snapshot payload is the scenario's whole object graph (simulator, event
queue, RNG streams, nodes, radio environment, fault injector, mobility)
plus the process-global id counters.  Ephemeral derived structures — radio
link/fast-plan caches, spatial-grid cell sets — are dropped at capture time
by the layers' ``__getstate__`` hooks and rebuilt on demand after restore;
``docs/SNAPSHOTS.md`` tabulates what is captured versus rebuilt.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.snapshot.codec import SnapshotCodec
from repro.snapshot.counters import capture_global_counters, restore_global_counters
from repro.telemetry.trace import current_tracer


def snapshot_scenario(
    scenario: Any, metadata: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialise ``scenario`` (mid-run or idle) into one snapshot artifact."""
    tracer = current_tracer()
    trace_start = tracer.clock() if tracer is not None else 0.0
    codec = SnapshotCodec()
    # A tuple, not a dict: a wrapper key "scenario" would share one string
    # object with the RNG stream of that name in a fresh graph but not in a
    # restored one, so snapshot-of-restored could never match the original.
    payload = (scenario, capture_global_counters())
    header_metadata: Dict[str, Any] = {
        "scenario": scenario.name,
        "time": scenario.sim.now,
        "seed": getattr(getattr(scenario, "config", None), "seed", None),
        "node_count": len(scenario.nodes),
        "pending_events": scenario.sim.pending_events,
    }
    if metadata:
        header_metadata.update(metadata)
    blob = codec.encode(payload, header_metadata)
    if tracer is not None:
        tracer.span(
            "snapshot_capture",
            "snapshot",
            trace_start,
            sim_time=scenario.sim.now,
            args={"scenario": scenario.name, "bytes": len(blob)},
        )
    return blob


def restore_scenario(blob: bytes) -> Tuple[Any, Dict[str, Any]]:
    """Rebuild a scenario from a snapshot artifact.

    Returns ``(scenario, header)``.  The global id counters are advanced to
    at least their captured values so the restored run never re-issues ids.
    """
    tracer = current_tracer()
    trace_start = tracer.clock() if tracer is not None else 0.0
    payload, header = SnapshotCodec().decode(blob)
    if not (
        isinstance(payload, tuple) and len(payload) == 2 and isinstance(payload[1], dict)
    ):
        raise ValueError(
            "snapshot payload is not a scenario snapshot (expected a "
            "(scenario, counters) tuple); was this artifact written by "
            "snapshot_scenario?"
        )
    scenario, counters = payload
    restore_global_counters(counters)
    if tracer is not None:
        tracer.span(
            "snapshot_restore",
            "snapshot",
            trace_start,
            sim_time=scenario.sim.now,
            args={"scenario": header.get("scenario"), "bytes": len(blob)},
        )
    return scenario, header


def load_snapshot(path: str) -> Tuple[Any, Dict[str, Any]]:
    """Restore a scenario from the artifact at ``path``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    return restore_scenario(blob)
