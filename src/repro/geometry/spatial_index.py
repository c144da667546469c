"""Uniform-grid spatial hash for neighbour queries over moving nodes.

The mesh discovery protocol and the shared radio medium need "who is within
radio range of me?" queries every beacon interval for every node.  A uniform
grid with cell size equal to the query radius turns that into an
O(neighbours) lookup instead of an O(N) scan per node.

Cells are pruned as soon as they empty, so long runs with moving nodes do
not accumulate dead cell entries, and query results are ordered by insertion
so they are deterministic regardless of Python's per-process hash
randomisation.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

from repro.geometry.vector import Vec2

K = TypeVar("K", bound=Hashable)


class SpatialGrid(Generic[K]):
    """Maps hashable item keys to positions and answers range queries.

    Parameters
    ----------
    cell_size:
        Width/height of each grid cell in metres.  Choose roughly the typical
        query radius for best performance.
    """

    def __init__(self, cell_size: float = 100.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self._positions: Dict[K, Vec2] = {}
        self._cells: Dict[Tuple[int, int], Set[K]] = {}
        self._seq: Dict[K, int] = {}
        self._next_seq = 0
        #: Total :meth:`update` calls ever made — cheap instrumentation used
        #: by benchmark E11 to assert the fleet is synced exactly once per
        #: mobility tick (no second mirror pass).
        self.update_calls = 0

    def _cell_of(self, position: Vec2) -> Tuple[int, int]:
        return (
            int(math.floor(position.x / self.cell_size)),
            int(math.floor(position.y / self.cell_size)),
        )

    def __getstate__(self) -> dict:
        """Pickle without the cell index.

        Cell membership sets iterate in hash order, which varies across
        processes (``PYTHONHASHSEED``) — serialising them would make two
        snapshots of identical grids byte-different.  ``_positions`` (plus
        ``_seq``) fully determines the index, so it is rebuilt on load.
        """
        state = self.__dict__.copy()
        del state["_cells"]
        return state

    def __setstate__(self, state: dict) -> None:
        # Intern the keys as default unpickling does, so a restored grid
        # pickles to the same bytes as the original.
        self.__dict__.update((sys.intern(key), value) for key, value in state.items())
        cells: Dict[Tuple[int, int], Set[K]] = {}
        for key, position in self._positions.items():
            cells.setdefault(self._cell_of(position), set()).add(key)
        self._cells = cells

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: K) -> bool:
        return key in self._positions

    def _discard_from_cell(self, cell: Tuple[int, int], key: K) -> None:
        members = self._cells.get(cell)
        if members is None:
            return
        members.discard(key)
        if not members:
            del self._cells[cell]

    def update(self, key: K, position: Vec2) -> None:
        """Insert ``key`` or move it to a new position."""
        self.update_calls += 1
        old = self._positions.get(key)
        if old is not None:
            old_cell = self._cell_of(old)
            new_cell = self._cell_of(position)
            if old_cell != new_cell:
                self._discard_from_cell(old_cell, key)
                self._cells.setdefault(new_cell, set()).add(key)
        else:
            self._seq[key] = self._next_seq
            self._next_seq += 1
            self._cells.setdefault(self._cell_of(position), set()).add(key)
        self._positions[key] = position

    def remove(self, key: K) -> None:
        """Remove ``key``; silently ignores unknown keys."""
        position = self._positions.pop(key, None)
        if position is not None:
            self._discard_from_cell(self._cell_of(position), key)
            del self._seq[key]

    def position_of(self, key: K) -> Vec2:
        """Current position of ``key`` (raises ``KeyError`` if absent)."""
        return self._positions[key]

    def items(self) -> Iterable[Tuple[K, Vec2]]:
        """Iterate over ``(key, position)`` pairs."""
        return self._positions.items()

    @property
    def occupied_cell_count(self) -> int:
        """Number of grid cells currently holding at least one key."""
        return len(self._cells)

    def query_range(self, center: Vec2, radius: float) -> List[K]:
        """All keys whose position lies within ``radius`` of ``center``.

        The result is ordered by insertion (first inserted first), so it is
        deterministic across processes.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        out: List[K] = []
        r_sq = radius * radius
        min_cx, min_cy = self._cell_of(Vec2(center.x - radius, center.y - radius))
        max_cx, max_cy = self._cell_of(Vec2(center.x + radius, center.y + radius))
        for cx in range(min_cx, max_cx + 1):
            for cy in range(min_cy, max_cy + 1):
                for key in self._cells.get((cx, cy), ()):
                    pos = self._positions[key]
                    dx = pos.x - center.x
                    dy = pos.y - center.y
                    if dx * dx + dy * dy <= r_sq:
                        out.append(key)
        out.sort(key=self._seq.__getitem__)
        return out

    def neighbors_of(self, key: K, radius: float) -> List[K]:
        """Keys within ``radius`` of ``key``'s position, excluding ``key``."""
        center = self.position_of(key)
        return [other for other in self.query_range(center, radius) if other != key]

    def nearest(self, center: Vec2, count: int = 1) -> List[K]:
        """The ``count`` keys nearest to ``center``.

        Expanding-ring grid search: occupied cells are visited in order of
        their Chebyshev ring distance from the centre cell, stopping as soon
        as no unvisited cell can contain a closer point than the current
        ``count``-th best.  This replaces the previous full O(N log N) scan
        with work proportional to the cells actually near ``center``.  Ties
        are broken by insertion order, matching the stable-sort behaviour of
        the old implementation.
        """
        if count <= 0 or not self._positions:
            return []
        ccx, ccy = self._cell_of(center)
        rings = [
            (max(abs(cx - ccx), abs(cy - ccy)), (cx, cy)) for (cx, cy) in self._cells
        ]
        heapq.heapify(rings)
        best: List[Tuple[float, int, K]] = []
        while rings:
            ring, cell = heapq.heappop(rings)
            if len(best) >= count:
                best.sort()
                # Candidates beyond the count-th best can never re-enter the
                # result; dropping them keeps the per-cell sorts O(count).
                del best[count:]
                # Any point in an unvisited cell on ring r (or beyond) is at
                # least (r - 1) · cell_size away from ``center``.
                if best[count - 1][0] <= (ring - 1) * self.cell_size:
                    break
            for key in self._cells[cell]:
                pos = self._positions[key]
                best.append((pos.distance_to(center), self._seq[key], key))
        best.sort()
        return [key for _, _, key in best[:count]]
