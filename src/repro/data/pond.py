"""Per-node data ponds.

A :class:`DataPond` is the local store of recent sensor frames on one edge
device — the paper's "mini mobile data pond".  It enforces a retention window
(old frames are dropped), answers local queries, and produces the compact
summaries that ride in beacons and catalogs.  Crucially, the pond has no
remote read API: the only way another node benefits from this data is by
sending a task here.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from repro.geometry.vector import Vec2

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.data.sensors import SensorFrame


class DataPond:
    """Recent sensor frames held by one node.

    Parameters
    ----------
    owner:
        Name of the owning node.
    retention_s:
        Frames older than this are evicted lazily on access.
    max_frames_per_type:
        Hard cap per data type (oldest evicted first).
    """

    def __init__(
        self,
        owner: str,
        retention_s: float = 5.0,
        max_frames_per_type: int = 100,
    ) -> None:
        if retention_s <= 0:
            raise ValueError("retention must be positive")
        self.owner = owner
        self.retention_s = retention_s
        self.max_frames_per_type = max_frames_per_type
        self._frames: Dict[DataType, Deque["SensorFrame"]] = defaultdict(deque)
        self.total_bytes_stored = 0
        self.frames_stored = 0

    # -------------------------------------------------------------- storing

    def store(self, frame: "SensorFrame") -> None:
        """Add a frame, evicting the oldest if the per-type cap is reached."""
        bucket = self._frames[frame.data_type]
        bucket.append(frame)
        if len(bucket) > self.max_frames_per_type:
            bucket.popleft()
        self.total_bytes_stored += frame.size_bytes
        self.frames_stored += 1

    def _evict_stale(self, data_type: DataType, now: float) -> None:
        bucket = self._frames.get(data_type)
        if not bucket:
            return
        while bucket and now - bucket[0].timestamp > self.retention_s:
            bucket.popleft()

    # ------------------------------------------------------------- querying

    def frames(self, data_type: DataType, now: float, max_age: Optional[float] = None) -> List["SensorFrame"]:
        """Frames of ``data_type`` no older than ``max_age`` (or retention)."""
        self._evict_stale(data_type, now)
        limit = self.retention_s if max_age is None else max_age
        return [f for f in self._frames.get(data_type, ()) if now - f.timestamp <= limit]

    def latest(self, data_type: DataType, now: float) -> Optional["SensorFrame"]:
        """Most recent frame of ``data_type`` within retention, or ``None``.

        The last element :meth:`frames` would return, found by scanning the
        bucket from the newest end.
        """
        self._evict_stale(data_type, now)
        retention = self.retention_s
        for frame in reversed(self._frames.get(data_type, ())):
            if now - frame.timestamp <= retention:
                return frame
        return None

    def frame_count(self, data_type: Optional[DataType] = None) -> int:
        """Number of frames currently held (optionally of one type)."""
        if data_type is not None:
            return len(self._frames.get(data_type, ()))
        return sum(len(bucket) for bucket in self._frames.values())

    def data_types(self) -> List[DataType]:
        """Data types with at least one stored frame."""
        return [t for t, bucket in self._frames.items() if bucket]

    # ------------------------------------------------------------ summaries

    def quality_of(self, data_type: DataType, now: float) -> Optional[DataQuality]:
        """Quality vector of the freshest frame of ``data_type``."""
        latest = self.latest(data_type, now)
        if latest is None:
            return None
        mean_confidence = (
            sum(d.confidence for d in latest.detections) / len(latest.detections)
            if latest.detections
            else 0.9
        )
        return DataQuality(
            freshness_s=max(0.0, now - latest.timestamp),
            coverage_radius_m=latest.range_m,
            resolution=0.5,
            accuracy=mean_confidence,
        )

    def summary(self, now: float) -> Dict[str, Tuple[float, float, float]]:
        """Beacon digest: type name → (coverage_m, freshness_s, quality 0..1).

        The digest is deliberately tiny (a few tens of bytes per type) because
        it rides in every beacon.
        """
        from repro.data.quality import quality_score

        digest: Dict[str, Tuple[float, float, float]] = {}
        for data_type in self.data_types():
            quality = self.quality_of(data_type, now)
            if quality is None:
                continue
            digest[data_type.value] = (
                quality.coverage_radius_m,
                quality.freshness_s,
                quality_score(quality),
            )
        return digest

    def coverage_center(self, data_type: DataType, now: float) -> Optional[Vec2]:
        """Origin of the freshest frame (where the coverage is centred)."""
        latest = self.latest(data_type, now)
        return latest.origin if latest is not None else None
