"""2-D geometry primitives, line-of-sight tests and the position substrate.

The mobility, radio and perception substrates all reason about positions in a
flat 2-D world.  This package provides the shared primitives:

* :class:`~repro.geometry.vector.Vec2` — immutable 2-D vectors.
* :class:`~repro.geometry.shapes.Segment`, :class:`~repro.geometry.shapes.Rectangle`,
  :class:`~repro.geometry.shapes.Polygon` — building footprints and
  road edges, with segment-intersection and containment tests.
* :func:`~repro.geometry.los.line_of_sight` — whether two points can see each
  other given a set of obstacles (used both by the radio shadowing model and
  by the perception visibility model).
* :class:`~repro.geometry.obstacle_index.ObstacleIndex` — obstacle edges
  as numpy columns, and one exact kernel that tests a whole batch of rays
  against every edge at once.
* :class:`~repro.geometry.substrate.SpatialSubstrate` — the fleet's
  tracked keys and one position epoch, committed by the mobility manager
  each tick; the radio environment keys its per-epoch caches on that epoch.
"""

from repro.geometry.vector import Vec2
from repro.geometry.shapes import Polygon, Rectangle, Segment
from repro.geometry.los import VisibilityMap, line_of_sight
from repro.geometry.obstacle_index import ObstacleIndex
from repro.geometry.substrate import SpatialSubstrate

__all__ = [
    "Vec2",
    "Segment",
    "Rectangle",
    "Polygon",
    "line_of_sight",
    "ObstacleIndex",
    "VisibilityMap",
    "SpatialSubstrate",
]
