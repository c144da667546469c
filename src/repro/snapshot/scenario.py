"""Scenario-level snapshot orchestration.

A snapshot payload is the scenario itself: its whole object graph
(simulator with its id numbering, event queue, RNG streams, nodes, radio
environment, fault injector, mobility) and nothing else, so a restore sets
no process-global state.  Ephemeral derived structures — radio link/plan
caches, the obstacle index's edge columns, the neighbour store's pair
index — are dropped at capture time by the layers' ``__getstate__`` hooks
and rebuilt on demand after restore;
``docs/SNAPSHOTS.md`` tabulates what is captured versus rebuilt.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.scenarios.base import Scenario
from repro.snapshot.codec import SnapshotCodec
from repro.telemetry.trace import current_tracer


def snapshot_scenario(
    scenario: Any, metadata: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialise ``scenario`` (mid-run or idle) into one snapshot artifact."""
    tracer = current_tracer()
    trace_start = tracer.clock() if tracer is not None else 0.0
    codec = SnapshotCodec()
    header_metadata: Dict[str, Any] = {
        "scenario": scenario.name,
        "time": scenario.sim.now,
        "seed": getattr(getattr(scenario, "config", None), "seed", None),
        "node_count": len(scenario.nodes),
        "pending_events": scenario.sim.pending_events,
    }
    if metadata:
        header_metadata.update(metadata)
    blob = codec.encode(scenario, header_metadata)
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

    Returns ``(scenario, header)``.
    """
    tracer = current_tracer()
    trace_start = tracer.clock() if tracer is not None else 0.0
    scenario, header = SnapshotCodec().decode(blob)
    if not isinstance(scenario, Scenario):
        raise ValueError(
            "snapshot payload is not a scenario snapshot (expected a "
            f"Scenario, got {type(scenario).__name__}); was this artifact "
            "written by snapshot_scenario?"
        )
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
