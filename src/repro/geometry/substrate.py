"""The shared spatial substrate: one grid, one epoch, many consumers.

Before this module existed the simulation kept *two* spatial structures
tracking the same fleet: the :class:`~repro.mobility.manager.MobilityManager`
owned a :class:`~repro.geometry.spatial_index.SpatialGrid` for mobility-layer
neighbour queries, and the :class:`~repro.radio.interfaces.RadioEnvironment`
mirrored every interface position into a *second* grid for broadcast
candidate lookup — two full ``update`` passes over the fleet per mobility
tick, moving the same positions into two identical indexes.

:class:`SpatialSubstrate` collapses them into one structure with one
invalidation source:

* the **owner** (the mobility manager) writes positions into the substrate —
  one :meth:`update` per node per tick, closed by one :meth:`commit`;
* **read-only consumers** (the radio environment, and anything else that
  needs "who is near this point?") query the same grid and key their caches
  on :attr:`position_epoch`.

Freshness contract
------------------

``position_epoch`` is the single source of truth for "positions may have
changed".  It advances exactly when:

* :meth:`commit` is called (the owner finished one batch of position
  writes — normally once per mobility tick);
* a key is inserted for the first time or removed (membership changes must
  invalidate range-query consumers immediately, without waiting for the next
  tick).

Between two equal readings of ``position_epoch`` every position in the
substrate is guaranteed unchanged, so consumers may cache any pure function
of positions (link qualities, in-range sets, network descriptions) keyed on
the epoch alone.  ``membership_epoch`` advances on insert/remove only;
consumers that additionally cache *which keys exist* (e.g. the radio
environment's overlay of non-mobile interfaces) key that on
``membership_epoch`` so per-tick position commits do not force a membership
rescan.
"""

from __future__ import annotations

from typing import Hashable, Iterable, List, Tuple, TypeVar

from repro.geometry.spatial_index import SpatialGrid
from repro.geometry.vector import Vec2

K = TypeVar("K", bound=Hashable)


class SpatialSubstrate:
    """One spatial index shared by the mobility and radio layers.

    Parameters
    ----------
    cell_size:
        Cell size of the underlying :class:`SpatialGrid` in metres; pick
        roughly the dominant query radius (the radio range, for vehicular
        scenarios).
    """

    def __init__(self, cell_size: float = 100.0) -> None:
        self.grid: SpatialGrid = SpatialGrid(cell_size=cell_size)
        #: Bumped whenever positions may have changed; see the module
        #: docstring for the exact contract.
        self.position_epoch = 0
        #: Bumped on insert/remove only (a strict subset of position-epoch
        #: bumps) so consumers can cache membership-derived state cheaply.
        self.membership_epoch = 0
        #: Number of :meth:`commit` calls — i.e. completed position-sync
        #: passes.  Benchmark E11 asserts this is one per mobility tick.
        self.commit_count = 0

    # ------------------------------------------------------------- writing

    def update(self, key: K, position: Vec2) -> None:
        """Insert ``key`` or move it; inserts bump both epochs immediately."""
        if key not in self.grid:
            self.membership_epoch += 1
            self.position_epoch += 1
        self.grid.update(key, position)

    def remove(self, key: K) -> None:
        """Remove ``key``; bumps both epochs (no-op for unknown keys)."""
        if key in self.grid:
            self.grid.remove(key)
            self.membership_epoch += 1
            self.position_epoch += 1

    def commit(self) -> None:
        """Close one batch of position writes (one mobility tick)."""
        self.position_epoch += 1
        self.commit_count += 1

    # ------------------------------------------------------------- reading

    def __len__(self) -> int:
        return len(self.grid)

    def __contains__(self, key: K) -> bool:
        return key in self.grid

    def position_of(self, key: K) -> Vec2:
        """Current position of ``key`` (raises ``KeyError`` if absent)."""
        return self.grid.position_of(key)

    def items(self) -> Iterable[Tuple[K, Vec2]]:
        """Iterate over ``(key, position)`` pairs."""
        return self.grid.items()

    def query_range(self, center: Vec2, radius: float) -> List[K]:
        """Keys within ``radius`` of ``center`` (insertion-ordered)."""
        return self.grid.query_range(center, radius)

    def neighbors_of(self, key: K, radius: float) -> List[K]:
        """Keys within ``radius`` of ``key``'s position, excluding ``key``."""
        return self.grid.neighbors_of(key, radius)

    def nearest(self, center: Vec2, count: int = 1) -> List[K]:
        """The ``count`` keys nearest to ``center``."""
        return self.grid.nearest(center, count)
