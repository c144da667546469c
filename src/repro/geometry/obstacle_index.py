"""Obstacle edges as numpy columns: one exact kernel for many rays at once.

:meth:`ObstacleIndex.blocked_rays` tests every (ray, edge) pair of a batch
of rays in numpy and flags ray ``i`` exactly when
``not line_of_sight(a_i, b_i, obstacles)`` would, for *any* ray (zero-length,
on an edge's line, through a vertex).  It holds by construction, pair by
pair:

* Each of the segment primitive's four orientation values is computed with
  ``_orientation``'s expression and sorted by its rounding bound into
  clearly non-zero, clearly collinear or uncertain: ``_orientation``'s own
  float branches.  With four certain values the primitive's decision (the
  sign test, or the ``_on_segment`` checks of collinear values) runs in
  numpy; a pair with an uncertain value goes to ``_segments_intersect``.
* A ray crossing no edge is blocked iff both endpoints lie inside one
  footprint.  ``Polygon.contains`` can only hold within a padded bounding
  box of the footprint, so the boxes pick the pairs it is called on.

The property suite (``tests/properties/test_property_obstacle_index.py``)
fuzzes the contract against the brute-force scan.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.shapes import (
    COLLINEAR_EPS,
    ORIENT_ERR,
    Polygon,
    _segments_intersect,
)
from repro.geometry.vector import Vec2

#: ``_on_segment``'s tolerance on each coordinate.
_ON_SEGMENT_EPS = 1e-12

#: Margin around each footprint's bounding box, relative to its magnitude,
#: outside which ``Polygon.contains`` (boundary band 1e-9 m) cannot hold.
_BOX_PAD = 1e-6

#: Most (ray, edge) pairs one numpy pass holds, so that its float arrays
#: stay small; larger batches run in chunks.
_PAIR_CHUNK = 1 << 14


def _orientation_classes(
    t1: np.ndarray, t2: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(positive, clearly non-zero, clearly collinear)`` per orientation.

    ``t1 - t2`` and its rounding bound are ``_orientation``'s expressions,
    computed in place over ``t1`` and ``t2``; a value that is neither
    clearly non-zero nor clearly collinear is one it recomputes exactly.
    """
    value = t1 - t2
    positive = value > 0
    err = np.add(np.abs(t1, out=t1), np.abs(t2, out=t2), out=t1)
    err *= ORIENT_ERR
    magnitude = np.abs(value, out=value)
    sure = np.subtract(magnitude, err, out=t2) >= COLLINEAR_EPS
    return positive, sure, np.add(magnitude, err, out=magnitude) < COLLINEAR_EPS


class ObstacleIndex:
    """The occluding footprints' edges and boxes as float columns.

    ``obstacles`` are the footprints; :meth:`add_obstacle` adds more.  Only
    the polygons are pickled: every column derives from them.
    """

    def __init__(self, obstacles: Iterable[Polygon] = ()) -> None:
        self._obstacles: List[Polygon] = list(obstacles)
        self._build()

    def _build(self) -> None:
        self._edges = [edge for polygon in self._obstacles for edge in polygon.edges()]
        ex0, ey0, ex1, ey1 = np.array(
            [(e.a.x, e.a.y, e.b.x, e.b.y) for e in self._edges], np.float64
        ).reshape(-1, 4).T
        # Both endpoints of every edge, for _orientation(a, b, e) ...
        self._ends_x = np.concatenate((ex0, ex1))
        self._ends_y = np.concatenate((ey0, ey1))
        # ... the operands of _orientation(e0, e1, p) ...
        self._edge_x1, self._edge_y1 = ex1, ey1
        self._edge_dx, self._edge_dy = ex1 - ex0, ey1 - ey0
        # ... and _on_segment(e0, p, e1)'s box.
        self._edge_lo_x = np.minimum(ex0, ex1) - _ON_SEGMENT_EPS
        self._edge_lo_y = np.minimum(ey0, ey1) - _ON_SEGMENT_EPS
        self._edge_hi_x = np.maximum(ex0, ex1) + _ON_SEGMENT_EPS
        self._edge_hi_y = np.maximum(ey0, ey1) + _ON_SEGMENT_EPS
        corners = [np.array([(v.x, v.y) for v in p.vertices]) for p in self._obstacles]
        boxes = np.array(
            [np.concatenate((c.min(axis=0), c.max(axis=0))) for c in corners], np.float64
        ).reshape(-1, 4)
        pad = _BOX_PAD * (1.0 + np.abs(boxes).max(axis=1, initial=0.0))
        self._box_lo_x, self._box_lo_y, self._box_hi_x, self._box_hi_y = (
            boxes + pad[:, None] * (-1.0, -1.0, 1.0, 1.0)
        ).T

    def __getstate__(self) -> dict:
        return {"_obstacles": self._obstacles}

    def __setstate__(self, state: dict) -> None:
        # The polygons hold only vectors, which never reach back to this
        # index, so they are fully built by the time this runs.
        self._obstacles = state["_obstacles"]
        self._build()

    def add_obstacle(self, polygon: Polygon) -> None:
        """Index one more occluding footprint."""
        self._obstacles.append(polygon)
        self._build()

    def blocked(self, a: Vec2, b: Vec2) -> bool:
        """Whether any obstacle blocks the segment a-b."""
        return bool(self.blocked_rays([a.x], [a.y], [b.x], [b.y])[0])

    def blocked_batch(self, origin: Vec2, targets: Sequence[Vec2]) -> List[bool]:
        """Per-target :meth:`blocked` flags for rays fanning out of ``origin``."""
        count = len(targets)
        xs = np.fromiter((target.x for target in targets), np.float64, count)
        ys = np.fromiter((target.y for target in targets), np.float64, count)
        return self.blocked_rays(
            np.full(count, origin.x), np.full(count, origin.y), xs, ys
        ).tolist()

    def blocked_rays(self, ax, ay, bx, by) -> np.ndarray:
        """Per-ray flags: does an obstacle block the segment ``a_i``-``b_i``?

        The four arguments are equal-length float columns of the rays'
        endpoints; see the module docstring for the equivalence contract.
        """
        ax, ay, bx, by = (np.asarray(c, dtype=np.float64) for c in (ax, ay, bx, by))
        count = len(ax)
        if not self._obstacles or not count:
            return np.zeros(count, dtype=bool)
        step = max(1, _PAIR_CHUNK // len(self._edges))
        return np.concatenate(
            [
                self._blocked_chunk(*(c[start:start + step] for c in (ax, ay, bx, by)))
                for start in range(0, count, step)
            ]
        )

    def _blocked_chunk(
        self, ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray
    ) -> np.ndarray:
        edges, rays = len(self._edges), len(ax)
        axc, ayc, bxc, byc = ax[:, None], ay[:, None], bx[:, None], by[:, None]
        # o1, o2 = _orientation(a, b, e0), _orientation(a, b, e1) in one
        # (ray, edge endpoint) pass, first endpoints in the first half ...
        positive12, sure12, zero12 = _orientation_classes(
            (byc - ayc) * (self._ends_x - bxc), (bxc - axc) * (self._ends_y - byc)
        )
        # ... o3, o4 = _orientation(e0, e1, a), _orientation(e0, e1, b) in
        # one (ray endpoint, edge) pass, the a endpoints in the first half.
        px = np.concatenate((ax, bx))[:, None]
        py = np.concatenate((ay, by))[:, None]
        positive34, sure34, zero34 = _orientation_classes(
            self._edge_dy * (px - self._edge_x1), self._edge_dx * (py - self._edge_y1)
        )
        o1, o2 = slice(None, edges), slice(edges, None)
        o3, o4 = slice(None, rays), slice(rays, None)
        certain = sure12[:, o1] & sure12[:, o2] & sure34[o3] & sure34[o4]
        hits = (
            certain
            & (positive12[:, o1] != positive12[:, o2])
            & (positive34[o3] != positive34[o4])
        )
        if zero12.any() or zero34.any():
            # Collinear values: _on_segment(a, e, b) for an edge endpoint e,
            # _on_segment(e0, p, e1) for a ray endpoint p.
            certain12, certain34 = sure12 | zero12, sure34 | zero34
            certain = certain12[:, o1] & certain12[:, o2] & certain34[o3] & certain34[o4]
            on_ray = zero12 & (
                (np.minimum(axc, bxc) - _ON_SEGMENT_EPS <= self._ends_x)
                & (self._ends_x <= np.maximum(axc, bxc) + _ON_SEGMENT_EPS)
                & (np.minimum(ayc, byc) - _ON_SEGMENT_EPS <= self._ends_y)
                & (self._ends_y <= np.maximum(ayc, byc) + _ON_SEGMENT_EPS)
            )
            on_edge = zero34 & (
                (self._edge_lo_x <= px) & (px <= self._edge_hi_x)
                & (self._edge_lo_y <= py) & (py <= self._edge_hi_y)
            )
            hits |= certain & (on_ray[:, o1] | on_ray[:, o2] | on_edge[o3] | on_edge[o4])
        blocked = hits.any(axis=1)
        if not certain.all():
            # Uncertain values: the segment primitive itself decides.
            for ray, edge in zip(*np.nonzero(~certain)):
                if not blocked[ray]:
                    blocked[ray] = _segments_intersect(
                        Vec2(float(ax[ray]), float(ay[ray])),
                        Vec2(float(bx[ray]), float(by[ray])),
                        self._edges[edge].a,
                        self._edges[edge].b,
                    )
        # Containment: both endpoints in a footprint's padded box, then in
        # the footprint itself.
        inside = (
            (self._box_lo_x <= np.minimum(axc, bxc))
            & (np.maximum(axc, bxc) <= self._box_hi_x)
            & (self._box_lo_y <= np.minimum(ayc, byc))
            & (np.maximum(ayc, byc) <= self._box_hi_y)
        )
        if inside.any():
            for ray, poly in zip(*np.nonzero(inside)):
                if not blocked[ray]:
                    polygon = self._obstacles[poly]
                    blocked[ray] = polygon.contains(
                        Vec2(float(ax[ray]), float(ay[ray]))
                    ) and polygon.contains(Vec2(float(bx[ray]), float(by[ray])))
        return blocked
