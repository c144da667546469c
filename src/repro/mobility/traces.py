"""Per-node trajectory traces.

Traces support post-hoc analysis (contact-time ground truth, encounter
statistics) and can be exported to a plain CSV-like row format for external
plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.geometry.vector import Vec2


@dataclass(frozen=True)
class TracePoint:
    """Position and speed of one node at one instant."""

    time: float
    position: Vec2
    speed: float


class TrajectoryTrace:
    """The time-ordered trajectory of a single node."""

    def __init__(self, node_name: str) -> None:
        self.node_name = node_name
        self.points: List[TracePoint] = []

    def record(self, time: float, position: Vec2, speed: float = 0.0) -> None:
        """Append a sample; times must be non-decreasing."""
        if self.points and time < self.points[-1].time:
            raise ValueError("trace times must be non-decreasing")
        self.points.append(TracePoint(time, position, speed))

    def __len__(self) -> int:
        return len(self.points)

    def position_at(self, time: float) -> Optional[Vec2]:
        """Linearly interpolated position at ``time`` (None outside range)."""
        if not self.points:
            return None
        if time <= self.points[0].time:
            return self.points[0].position
        if time >= self.points[-1].time:
            return self.points[-1].position
        for earlier, later in zip(self.points, self.points[1:]):
            if earlier.time <= time <= later.time:
                span = later.time - earlier.time
                if span <= 0:
                    return later.position
                t = (time - earlier.time) / span
                return earlier.position.lerp(later.position, t)
        return self.points[-1].position

    def total_distance(self) -> float:
        """Total path length travelled."""
        return sum(
            a.position.distance_to(b.position)
            for a, b in zip(self.points, self.points[1:])
        )

    def duration(self) -> float:
        """Seconds between first and last sample."""
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].time - self.points[0].time

    def mean_speed(self) -> float:
        """Average speed derived from distance over duration."""
        duration = self.duration()
        if duration <= 0:
            return 0.0
        return self.total_distance() / duration



def contact_intervals(
    trace_a: TrajectoryTrace,
    trace_b: TrajectoryTrace,
    radius: float,
) -> List[Tuple[float, float]]:
    """Time intervals during which two traced nodes were within ``radius``.

    Samples are compared at the union of both traces' sample times; adjacent
    in-range samples are merged into intervals.  Used as ground truth when
    validating the candidate scorer's contact-time predictions.
    """
    times = sorted(
        {p.time for p in trace_a.points} | {p.time for p in trace_b.points}
    )
    intervals: List[Tuple[float, float]] = []
    start: Optional[float] = None
    for t in times:
        pa = trace_a.position_at(t)
        pb = trace_b.position_at(t)
        in_range = (
            pa is not None and pb is not None and pa.distance_to(pb) <= radius
        )
        if in_range and start is None:
            start = t
        elif not in_range and start is not None:
            intervals.append((start, t))
            start = None
    if start is not None and times:
        intervals.append((start, times[-1]))
    return intervals
