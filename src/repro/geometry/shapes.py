"""Segments, rectangles and polygons used as obstacles and road edges."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from repro.geometry.vector import Vec2


@dataclass(frozen=True)
class Segment:
    """A line segment between two points."""

    a: Vec2
    b: Vec2

    def length(self) -> float:
        """Segment length."""
        return self.a.distance_to(self.b)

    def midpoint(self) -> Vec2:
        """Point halfway along the segment."""
        return self.a.lerp(self.b, 0.5)

    def point_at(self, t: float) -> Vec2:
        """Point at fraction ``t`` along the segment (``t`` in [0, 1])."""
        return self.a.lerp(self.b, t)

    def intersects(self, other: "Segment") -> bool:
        """Whether the two segments intersect (including touching)."""
        return _segments_intersect(self.a, self.b, other.a, other.b)

    def distance_to_point(self, p: Vec2) -> float:
        """Shortest distance from ``p`` to any point on the segment."""
        ab = self.b - self.a
        denom = ab.length_squared()
        if denom == 0.0:
            return self.a.distance_to(p)
        t = max(0.0, min(1.0, (p - self.a).dot(ab) / denom))
        return self.a.lerp(self.b, t).distance_to(p)


#: Collinearity band: an orientation value below this magnitude counts as 0.
COLLINEAR_EPS = 1e-12

#: Bound on the rounding error of a float orientation value, relative to the
#: summed magnitudes of its two products.  The true bound is about four unit
#: roundoffs (4.4e-16); the margin covers the rounding of the bound itself.
ORIENT_ERR = 1e-15


def _orientation(p: Vec2, q: Vec2, r: Vec2) -> int:
    """Orientation of ordered triplet: 0 collinear, 1 clockwise, 2 ccw.

    Classifies the *exact* value of
    ``(q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y)``, collinear
    below :data:`COLLINEAR_EPS`.  The float evaluation decides whenever its
    rounding error cannot change the class; the rare rest is recomputed in
    rational arithmetic.  Rounding alone would otherwise flip the sign of
    nearly collinear triplets and report segments as crossing metres apart.
    """
    t1 = (q.y - p.y) * (r.x - q.x)
    t2 = (q.x - p.x) * (r.y - q.y)
    val = t1 - t2
    err = ORIENT_ERR * (abs(t1) + abs(t2))
    if abs(val) - err >= COLLINEAR_EPS:
        return 1 if val > 0 else 2
    if abs(val) + err < COLLINEAR_EPS:
        return 0
    try:
        px, py, qx, qy, rx, ry = map(Fraction, (p.x, p.y, q.x, q.y, r.x, r.y))
    except (OverflowError, ValueError):  # infinite or NaN coordinates
        exact = val
    else:
        exact = (qy - py) * (rx - qx) - (qx - px) * (ry - qy)
    if abs(exact) < COLLINEAR_EPS:
        return 0
    return 1 if exact > 0 else 2


def _on_segment(p: Vec2, q: Vec2, r: Vec2) -> bool:
    """Whether collinear point ``q`` lies on segment ``pr``."""
    return (
        min(p.x, r.x) - 1e-12 <= q.x <= max(p.x, r.x) + 1e-12
        and min(p.y, r.y) - 1e-12 <= q.y <= max(p.y, r.y) + 1e-12
    )


def _segments_intersect(p1: Vec2, q1: Vec2, p2: Vec2, q2: Vec2) -> bool:
    """Orientation-based segment intersection test (touching counts).

    The sign test decides only when no point is within the collinearity
    band.  Otherwise a hit needs a near-collinear endpoint to lie on the
    other segment: with the band, two "collinear" points no longer imply
    that the segments share a line, so the sign test alone would report
    nearly collinear segments as meeting however far apart they are.
    """
    o1 = _orientation(p1, q1, p2)
    o2 = _orientation(p1, q1, q2)
    o3 = _orientation(p2, q2, p1)
    o4 = _orientation(p2, q2, q1)

    if o1 and o2 and o3 and o4:
        return o1 != o2 and o3 != o4
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False


class Polygon:
    """A simple polygon described by its vertices in order."""

    def __init__(self, vertices: Sequence[Vec2]) -> None:
        if len(vertices) < 3:
            raise ValueError("a polygon needs at least three vertices")
        self.vertices = tuple(vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polygon({len(self.vertices)} vertices)"

    def edges(self) -> List[Segment]:
        """The polygon's boundary segments."""
        verts = list(self.vertices)
        return [
            Segment(verts[i], verts[(i + 1) % len(verts)])
            for i in range(len(verts))
        ]

    def contains(self, point: Vec2) -> bool:
        """Ray-casting point-in-polygon test (boundary counts as inside)."""
        inside = False
        verts = self.vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            vi, vj = verts[i], verts[j]
            if Segment(vi, vj).distance_to_point(point) < 1e-9:
                return True
            if (vi.y > point.y) != (vj.y > point.y):
                x_cross = vj.x + (point.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
                if point.x < x_cross:
                    inside = not inside
            j = i
        return inside

    def intersects_segment(self, segment: Segment) -> bool:
        """Whether ``segment`` crosses the polygon boundary or lies inside it."""
        for edge in self.edges():
            if edge.intersects(segment):
                return True
        return self.contains(segment.a) and self.contains(segment.b)

    def centroid(self) -> Vec2:
        """Arithmetic mean of the vertices (adequate for convex footprints)."""
        sx = sum(v.x for v in self.vertices)
        sy = sum(v.y for v in self.vertices)
        n = len(self.vertices)
        return Vec2(sx / n, sy / n)

    def area(self) -> float:
        """Absolute area via the shoelace formula."""
        total = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            j = (i + 1) % n
            total += verts[i].x * verts[j].y - verts[j].x * verts[i].y
        return abs(total) / 2.0


class Rectangle(Polygon):
    """An axis-aligned rectangle, the typical building footprint."""

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float) -> None:
        if x_max <= x_min or y_max <= y_min:
            raise ValueError("rectangle must have positive width and height")
        self.x_min = x_min
        self.y_min = y_min
        self.x_max = x_max
        self.y_max = y_max
        super().__init__(
            [
                Vec2(x_min, y_min),
                Vec2(x_max, y_min),
                Vec2(x_max, y_max),
                Vec2(x_min, y_max),
            ]
        )

    def contains(self, point: Vec2) -> bool:
        """Fast axis-aligned containment test."""
        return (
            self.x_min - 1e-9 <= point.x <= self.x_max + 1e-9
            and self.y_min - 1e-9 <= point.y <= self.y_max + 1e-9
        )

    @property
    def width(self) -> float:
        """Extent along x."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.y_max - self.y_min
