"""2-D occupancy grids.

An occupancy grid discretises a rectangular region into cells that are
*unknown*, *free* or *occupied*.  Grids are the shareable perception product
of the looking-around-the-corner task: each vehicle can compute one from its
own pond cheaply, the grids are small compared to raw scans, and grids from
several viewpoints fuse trivially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.geometry.vector import Vec2

#: Cell states.
UNKNOWN = 0
FREE = 1
OCCUPIED = 2


@dataclass(frozen=True)
class GridSpec:
    """Geometry of an occupancy grid.

    Attributes
    ----------
    origin:
        World coordinates of the grid's lower-left corner.
    width_m / height_m:
        Extent of the grid in metres.
    cell_size:
        Edge length of one square cell in metres.
    """

    origin: Vec2
    width_m: float
    height_m: float
    cell_size: float = 1.0

    def __post_init__(self) -> None:
        if self.width_m <= 0 or self.height_m <= 0:
            raise ValueError("grid extent must be positive")
        if self.cell_size <= 0:
            raise ValueError("cell size must be positive")

    @property
    def cols(self) -> int:
        """Number of columns."""
        return max(1, int(round(self.width_m / self.cell_size)))

    @property
    def rows(self) -> int:
        """Number of rows."""
        return max(1, int(round(self.height_m / self.cell_size)))

    def to_cell(self, point: Vec2) -> Tuple[int, int]:
        """World point → (row, col), floored; may be out of bounds."""
        col = math.floor((point.x - self.origin.x) / self.cell_size)
        row = math.floor((point.y - self.origin.y) / self.cell_size)
        return row, col

    def contains_cell(self, row: int, col: int) -> bool:
        """Whether (row, col) lies inside the grid."""
        return 0 <= row < self.rows and 0 <= col < self.cols


class OccupancyGrid:
    """A grid of UNKNOWN/FREE/OCCUPIED cells over a :class:`GridSpec`."""

    def __init__(self, spec: GridSpec) -> None:
        self.spec = spec
        self.cells = np.full((spec.rows, spec.cols), UNKNOWN, dtype=np.uint8)

    # -------------------------------------------------------------- marking

    def mark(self, point: Vec2, state: int) -> bool:
        """Set the cell containing ``point``; returns False if out of bounds."""
        row, col = self.spec.to_cell(point)
        if not self.spec.contains_cell(row, col):
            return False
        self.cells[row, col] = state
        return True

    def mark_occupied(self, point: Vec2) -> bool:
        """Mark the cell containing ``point`` as occupied."""
        return self.mark(point, OCCUPIED)

    def mark_ray_free(self, origin: Vec2, target: Vec2) -> int:
        """Mark cells along the ray from origin to (just before) target as free.

        Occupied cells are never downgraded.  Returns the number of cells
        touched.
        """
        distance = origin.distance_to(target)
        if distance <= 0:
            return 0
        steps = max(1, int(distance / (self.spec.cell_size * 0.5)))
        touched = 0
        for i in range(steps):
            t = i / steps
            point = origin.lerp(target, t)
            row, col = self.spec.to_cell(point)
            if not self.spec.contains_cell(row, col):
                continue
            if self.cells[row, col] != OCCUPIED:
                self.cells[row, col] = FREE
                touched += 1
        return touched

    # -------------------------------------------------------------- queries

    def state_at(self, point: Vec2) -> int:
        """Cell state at ``point`` (UNKNOWN if out of bounds)."""
        row, col = self.spec.to_cell(point)
        if not self.spec.contains_cell(row, col):
            return UNKNOWN
        return int(self.cells[row, col])

    def known_fraction(self) -> float:
        """Fraction of cells that are not UNKNOWN."""
        return float(np.count_nonzero(self.cells != UNKNOWN)) / self.cells.size

    def size_bytes(self) -> int:
        """Serialized size: one byte per cell plus a small header."""
        return int(self.cells.size) + 64

    # --------------------------------------------------------------- fusion

    def fuse(self, other: "OccupancyGrid") -> "OccupancyGrid":
        """Fuse two grids over the same spec into a new grid.

        Occupied wins over free wins over unknown — a conservative policy
        appropriate for safety-oriented perception.
        """
        if other.spec != self.spec:
            raise ValueError("can only fuse grids with identical specs")
        fused = OccupancyGrid(self.spec)
        fused.cells = np.maximum(self.cells, other.cells)
        return fused

    @staticmethod
    def fuse_all(grids: List["OccupancyGrid"]) -> "OccupancyGrid":
        """Fuse any number of same-spec grids."""
        if not grids:
            raise ValueError("need at least one grid to fuse")
        result = grids[0]
        for grid in grids[1:]:
            result = result.fuse(grid)
        return result
