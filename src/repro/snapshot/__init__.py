"""Deterministic checkpoint/restore of full simulation state.

The snapshot subsystem serialises a *running* simulation — clock, event
queue, RNG streams, node state, radio environment, fault timelines — into a
versioned, hash-stamped artifact, and restores it such that continuing the
run is byte-identical to never having stopped (delivered-frame sequences,
reports and snapshot bytes all match).  See ``docs/SNAPSHOTS.md``.
"""

from repro.snapshot.codec import (
    PICKLE_PROTOCOL,
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotCodec,
    SnapshotError,
    SnapshotFormatError,
    SnapshotIntegrityError,
    SnapshotVersionError,
)
from repro.snapshot.scenario import (
    load_snapshot,
    restore_scenario,
    snapshot_scenario,
)
from repro.snapshot.verify import DeliveredFrameLog

__all__ = [
    "PICKLE_PROTOCOL",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotCodec",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotIntegrityError",
    "SnapshotVersionError",
    "load_snapshot",
    "restore_scenario",
    "snapshot_scenario",
    "DeliveredFrameLog",
]
