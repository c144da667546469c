"""Grid-bucketed index over obstacle edges for fast line-of-sight tests.

The brute-force :func:`~repro.geometry.los.line_of_sight` scans **every**
obstacle polygon for every ray — O(obstacles) per link, which profiling
showed to be the dominant cost of dense urban runs once the radio medium
itself was spatially indexed.  :class:`ObstacleIndex` buckets every obstacle
*edge* (and every obstacle footprint, for the containment case) into a
uniform grid; a query then only tests the segments bucketed in the cells the
ray traverses.

Equivalence contract
--------------------
``index.blocked(a, b)`` must return exactly what
``not line_of_sight(a, b, obstacles)`` returns, for *any* ray — including
rays running exactly along cell boundaries, rays far outside every obstacle
and zero-length rays (``a == b``).  Two measures make this robust rather
than probabilistic:

* Edges are bucketed into every cell their bounding box overlaps, expanded
  by :data:`EDGE_PAD`.  The segment-intersection primitive treats "touching
  within ~1e-12" as intersecting, so a phantom hit can lie slightly outside
  the exact geometry; the pad keeps such witness points inside a bucketed
  cell.
* The ray is rasterised conservatively, column by column: for each grid
  column its clipped y-extent (again expanded by :data:`EDGE_PAD`) selects
  the cells to visit.  Every point within the pad of the ray therefore lies
  in a visited cell, whatever the slope — the supercover property that an
  error-accumulating DDA walk would only give with careful epsilon juggling.

The property suite (``tests/properties/test_property_obstacle_index.py``)
fuzzes this contract against the brute-force scan.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.geometry.shapes import (
    COLLINEAR_EPS,
    ORIENT_ERR,
    Polygon,
    Segment,
    _segments_intersect,
)
from repro.geometry.vector import Vec2

#: Padding (metres) applied when bucketing edges and rasterising query rays.
#: Must exceed the ~1e-12 "touching" tolerance of the segment-intersection
#: primitive by a comfortable margin; being conservative only costs a few
#: extra candidate cells, never correctness.
EDGE_PAD = 1e-9

#: Fallback cell size when the index is built without obstacles.
DEFAULT_CELL_SIZE = 50.0


def _edge_row(edge: Segment) -> Tuple[float, ...]:
    a, b = edge.a, edge.b
    dy, dx = b.y - a.y, b.x - a.x
    extent = abs(dx) + abs(dy)
    err = ORIENT_ERR * extent
    return (a.x, a.y, b.x, b.y, dy, dx, extent, err, COLLINEAR_EPS + err * extent)


class ObstacleIndex:
    """Answers "does the segment a-b hit any obstacle?" in near-O(ray cells).

    Parameters
    ----------
    obstacles:
        Occluding polygon footprints.  More can be added later with
        :meth:`add_obstacle`.
    cell_size:
        Grid pitch in metres.  Defaults to the mean obstacle bounding-box
        extent — roughly one building per cell — which keeps both the number
        of cells a ray visits and the number of edges per cell small.
    """

    def __init__(
        self,
        obstacles: Iterable[Polygon] = (),
        cell_size: float | None = None,
    ) -> None:
        self._obstacles: List[Polygon] = list(obstacles)
        if cell_size is None:
            cell_size = self._default_cell_size(self._obstacles)
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._edges: List[Segment] = []
        #: Per edge ``(ax, ay, bx, by, by - ay, bx - ax, extent, err,
        #: COLLINEAR_EPS + err * extent)``, with ``extent`` the L1 length
        #: and ``err = ORIENT_ERR * extent``: the operands of the inlined
        #: orientation tests in :meth:`blocked`.
        #: Derived from ``_edges``, so it is left out of the pickled state.
        self._edge_table: List[Tuple[float, ...]] = []
        self._edge_cells: Dict[Tuple[int, int], List[int]] = {}
        self._poly_cells: Dict[Tuple[int, int], List[int]] = {}
        #: Per-query scratch (the last query that visited each edge and
        #: polygon), also left out of the pickled state.
        self._edge_stamp: List[int] = []
        self._poly_stamp: List[int] = []
        self._query_id = 0
        for index, polygon in enumerate(self._obstacles):
            self._insert(index, polygon)

    @staticmethod
    def _default_cell_size(obstacles: Sequence[Polygon]) -> float:
        if not obstacles:
            return DEFAULT_CELL_SIZE
        total = 0.0
        for polygon in obstacles:
            xs = [v.x for v in polygon.vertices]
            ys = [v.y for v in polygon.vertices]
            total += max(max(xs) - min(xs), max(ys) - min(ys))
        return max(total / len(obstacles), 1.0)

    # -------------------------------------------------------------- snapshot

    def __getstate__(self) -> dict:
        """Pickle without the derived edge table and the query scratch.

        The stamps and the query counter only deduplicate candidates within
        one query, so their values carry no state; a restored index starts
        them from zero.
        """
        state = self.__dict__.copy()
        for key in ("_edge_table", "_edge_stamp", "_poly_stamp", "_query_id"):
            del state[key]
        return state

    def __setstate__(self, state: dict) -> None:
        # ``_edges`` holds only segments of vectors, which never reach back
        # to this index, so they are fully built by the time this runs.
        self.__dict__.update(state)
        self._edge_table = [_edge_row(edge) for edge in self._edges]
        self._edge_stamp = [0] * len(self._edges)
        self._poly_stamp = [0] * len(self._obstacles)
        self._query_id = 0

    # -------------------------------------------------------------- building

    @property
    def obstacles(self) -> List[Polygon]:
        """The indexed obstacle footprints."""
        return list(self._obstacles)

    @property
    def edge_count(self) -> int:
        """Total number of indexed boundary segments."""
        return len(self._edges)

    def add_obstacle(self, polygon: Polygon) -> None:
        """Index one more occluding footprint."""
        self._obstacles.append(polygon)
        self._insert(len(self._obstacles) - 1, polygon)

    def _cells_of_box(
        self, x_min: float, y_min: float, x_max: float, y_max: float
    ) -> Iterable[Tuple[int, int]]:
        cell = self.cell_size
        min_cx = math.floor((x_min - EDGE_PAD) / cell)
        max_cx = math.floor((x_max + EDGE_PAD) / cell)
        min_cy = math.floor((y_min - EDGE_PAD) / cell)
        max_cy = math.floor((y_max + EDGE_PAD) / cell)
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                yield (cx, cy)

    def _insert(self, poly_index: int, polygon: Polygon) -> None:
        self._poly_stamp.append(0)
        xs = [v.x for v in polygon.vertices]
        ys = [v.y for v in polygon.vertices]
        for cell in self._cells_of_box(min(xs), min(ys), max(xs), max(ys)):
            self._poly_cells.setdefault(cell, []).append(poly_index)
        for edge in polygon.edges():
            edge_index = len(self._edges)
            self._edges.append(edge)
            self._edge_table.append(_edge_row(edge))
            self._edge_stamp.append(0)
            for cell in self._cells_of_box(
                min(edge.a.x, edge.b.x),
                min(edge.a.y, edge.b.y),
                max(edge.a.x, edge.b.x),
                max(edge.a.y, edge.b.y),
            ):
                self._edge_cells.setdefault(cell, []).append(edge_index)

    # --------------------------------------------------------------- queries

    def blocked(self, a: Vec2, b: Vec2) -> bool:
        """Whether any obstacle blocks the segment a-b.

        Exactly equivalent to ``not line_of_sight(a, b, self.obstacles)``:
        first any boundary crossing (only edges bucketed along the ray are
        tested, each at most once per query via a stamp array), then the
        fully-interior case — a segment crossing no edge is blocked iff both
        endpoints lie inside one footprint, and such a footprint necessarily
        covers ``a``'s cell.

        The cells are visited column by column: for each grid column the
        segment's bounding box spans, the segment is clipped to the column's
        (padded) x-range and the cells of the clipped (padded) y-range are
        scanned.  Conservative by construction and immune to the corner
        cases of an incremental grid traversal.

        Each candidate edge gets the segment primitive's four orientation
        values computed inline from the edge table, with ``_orientation``'s
        expression.  A value whose magnitude exceeds the collinearity band
        plus a bound on its rounding error has the sign of the exact value,
        so when all four do, two sign comparisons give the primitive's
        answer.  Otherwise (rare: a nearly collinear endpoint) the primitive
        itself decides.  The rounding bound needs the size of each product
        pair: any endpoint of an edge bucketed along the ray lies within the
        ray's L1 length, two cells (plus pads) and the edge's own L1 extent
        of either ray endpoint; ``reach`` adds a metre of slack to that.
        """
        edge_cells = self._edge_cells
        if not edge_cells and not self._poly_cells:
            return False
        self._query_id += 1
        query_id = self._query_id
        edge_stamp = self._edge_stamp
        table = self._edge_table
        cell = self.cell_size
        floor = math.floor
        ax, ay, bx, by = a.x, a.y, b.x, b.y
        dx = bx - ax
        dy = by - ay
        ray_extent = abs(dx) + abs(dy)
        reach = ray_extent + 2.0 * cell + 1.0
        ray_err = ORIENT_ERR * ray_extent
        ray_base = COLLINEAR_EPS + ray_err * reach
        min_cx = floor((min(ax, bx) - EDGE_PAD) / cell)
        max_cx = floor((max(ax, bx) + EDGE_PAD) / cell)
        for cx in range(min_cx, max_cx + 1):
            if dx == 0.0:
                y_lo, y_hi = min(ay, by), max(ay, by)
            else:
                x_lo = cx * cell - EDGE_PAD
                x_hi = (cx + 1) * cell + EDGE_PAD
                t0 = (x_lo - ax) / dx
                t1 = (x_hi - ax) / dx
                if t0 > t1:
                    t0, t1 = t1, t0
                t0 = max(0.0, t0)
                t1 = min(1.0, t1)
                if t0 > t1:
                    continue
                y0 = ay + t0 * dy
                y1 = ay + t1 * dy
                y_lo, y_hi = (y0, y1) if y0 <= y1 else (y1, y0)
            min_cy = floor((y_lo - EDGE_PAD) / cell)
            max_cy = floor((y_hi + EDGE_PAD) / cell)
            for cy in range(min_cy, max_cy + 1):
                for edge_index in edge_cells.get((cx, cy), ()):
                    if edge_stamp[edge_index] == query_id:
                        continue
                    edge_stamp[edge_index] = query_id
                    ex0, ey0, ex1, ey1, edy, edx, extent, edge_err, edge_base = table[
                        edge_index
                    ]
                    # Collinearity band plus rounding bound, for |o1|, |o2|
                    # (ray-based) and |o3|, |o4| (edge-based).
                    ray_band = ray_base + ray_err * extent
                    edge_band = edge_base + edge_err * reach
                    o1 = dy * (ex0 - bx) - dx * (ey0 - by)
                    o2 = dy * (ex1 - bx) - dx * (ey1 - by)
                    o3 = edy * (ax - ex1) - edx * (ay - ey1)
                    o4 = edy * (bx - ex1) - edx * (by - ey1)
                    if (
                        -ray_band < o1 < ray_band
                        or -ray_band < o2 < ray_band
                        or -edge_band < o3 < edge_band
                        or -edge_band < o4 < edge_band
                    ):
                        edge = self._edges[edge_index]
                        if _segments_intersect(a, b, edge.a, edge.b):
                            return True
                    elif (o1 > 0) != (o2 > 0) and (o3 > 0) != (o4 > 0):
                        return True
        poly_stamp = self._poly_stamp
        obstacles = self._obstacles
        cx = floor(ax / cell)
        cy = floor(ay / cell)
        for poly_index in self._poly_cells.get((cx, cy), ()):
            if poly_stamp[poly_index] == query_id:
                continue
            poly_stamp[poly_index] = query_id
            polygon = obstacles[poly_index]
            if polygon.contains(a) and polygon.contains(b):
                return True
        return False

    def blocked_batch(self, origin: Vec2, targets: Sequence[Vec2]) -> List[bool]:
        """Per-target :meth:`blocked` flags for rays fanning out of ``origin``."""
        blocked = self.blocked
        return [blocked(origin, target) for target in targets]
