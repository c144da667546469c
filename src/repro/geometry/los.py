"""Line-of-sight computation against polygonal obstacles.

Both the radio shadowing model (an occluded V2V link suffers extra path loss)
and the perception visibility model (an occluded pedestrian cannot be seen by
the approaching vehicle — the motivating problem of "looking around the
corner") use the same primitive: does the straight segment between two points
cross any obstacle footprint?

:class:`VisibilityMap` answers every query through the numpy ray kernel of
:class:`~repro.geometry.obstacle_index.ObstacleIndex`, which tests a whole
batch of rays against every obstacle edge at once.  :func:`line_of_sight` is
the plain Python scan over every polygon: the reference the kernel is
checked against, ray for ray, by the property suite, the test oracle
(``tests/oracle.py``) and benchmark E13.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.geometry.obstacle_index import ObstacleIndex
from repro.geometry.shapes import Polygon, Segment
from repro.geometry.vector import Vec2


def line_of_sight(a: Vec2, b: Vec2, obstacles: Iterable[Polygon]) -> bool:
    """Return ``True`` when nothing in ``obstacles`` blocks the segment a-b."""
    segment = Segment(a, b)
    for obstacle in obstacles:
        if obstacle.intersects_segment(segment):
            return False
    return True


class VisibilityMap:
    """Caches obstacle geometry and answers line-of-sight queries.

    The map also offers :meth:`visible_fraction`, used by the perception
    substrate to quantify how much of a region of interest an observer can
    actually see — the quantity the "looking around the corner" task tries to
    improve by borrowing other vehicles' viewpoints.

    Queries run against a lazily (re)built
    :class:`~repro.geometry.obstacle_index.ObstacleIndex`.

    Parameters
    ----------
    obstacles:
        Initial occluding footprints.
    """

    def __init__(self, obstacles: Sequence[Polygon] | None = None) -> None:
        self._obstacles: List[Polygon] = list(obstacles or [])
        self._index: Optional[ObstacleIndex] = None
        #: Monotonic counter bumped by every occluder-set mutation.  Layers
        #: that cache geometry derived from the obstacles — notably
        #: :class:`~repro.radio.interfaces.RadioEnvironment`, whose link
        #: rows embed NLOS penalties — fold this into their own epoch keys.
        self.obstacle_epoch = 0
        #: Full :class:`~repro.geometry.obstacle_index.ObstacleIndex`
        #: (re)builds performed.  Stays at one rebuild per *epoch with a
        #: query*, however many mutations happened in between — the rebuild
        #: is lazy, so a burst of ``set_obstacles`` calls between queries
        #: costs a single reconstruction.
        self.index_rebuilds = 0

    @property
    def obstacles(self) -> List[Polygon]:
        """The obstacle footprints considered by this map."""
        return list(self._obstacles)

    def add_obstacle(self, obstacle: Polygon) -> None:
        """Register one more occluding footprint.

        Purely additive, so a live index is extended incrementally rather
        than invalidated (no rebuild is counted).
        """
        self._obstacles.append(obstacle)
        self.obstacle_epoch += 1
        if self._index is not None:
            self._index.add_obstacle(obstacle)

    def set_obstacles(self, obstacles: Sequence[Polygon]) -> None:
        """Replace the occluder set wholesale.

        This is the mutation moving occluders (buses, trucks) make once per
        epoch: swap in the footprints at their new poses.  The edge index is
        dropped and lazily rebuilt on the next query — amortised to at most
        one rebuild per epoch and counted in :attr:`index_rebuilds` — so
        queries keep running against the index instead of falling back to
        the brute-force scan.
        """
        self._obstacles = list(obstacles)
        self.obstacle_epoch += 1
        self._index = None

    def remove_obstacle(self, obstacle: Polygon) -> bool:
        """Drop one footprint; returns whether it was present.

        Removal invalidates the index (it only supports incremental *adds*);
        the next query rebuilds it lazily.
        """
        try:
            self._obstacles.remove(obstacle)
        except ValueError:
            return False
        self.obstacle_epoch += 1
        self._index = None
        return True

    def _obstacle_index(self) -> ObstacleIndex:
        """The edge index, (re)built on first use after any invalidation."""
        if self._index is None:
            self._index = ObstacleIndex(self._obstacles)
            self.index_rebuilds += 1
        return self._index

    def blocked_rays(self, ax, ay, bx, by) -> np.ndarray:
        """:meth:`~repro.geometry.obstacle_index.ObstacleIndex.blocked_rays`."""
        return self._obstacle_index().blocked_rays(ax, ay, bx, by)

    def has_line_of_sight(self, a: Vec2, b: Vec2) -> bool:
        """Whether ``a`` and ``b`` can see each other."""
        return not self._obstacle_index().blocked(a, b)

    def is_occluded(self, a: Vec2, b: Vec2) -> bool:
        """Inverse of :meth:`has_line_of_sight`."""
        return not self.has_line_of_sight(a, b)

    def line_of_sight_batch(self, origin: Vec2, targets: Sequence[Vec2]) -> List[bool]:
        """Per-target visibility flags for rays fanning out of ``origin``.

        One kernel call for a whole receiver list — this is the "one LOS
        batch call" a propagation model's batched path loss makes per sender
        plan (:meth:`~repro.radio.link.LinkBudget.exact_arrays_xy`).  Identical to calling :meth:`has_line_of_sight` per target.
        """
        blocked = self._obstacle_index().blocked_batch(origin, targets)
        return [not hit for hit in blocked]

    def visible_fraction(
        self,
        observer: Vec2,
        targets: Sequence[Vec2],
        max_range: float = float("inf"),
    ) -> float:
        """Fraction of ``targets`` the observer can see within ``max_range``.

        Returns 1.0 for an empty target list (nothing to miss).
        """
        if not targets:
            return 1.0
        in_range = [t for t in targets if observer.distance_to(t) <= max_range]
        visible = sum(self.line_of_sight_batch(observer, in_range))
        return visible / len(targets)

    def visible_targets(
        self,
        observer: Vec2,
        targets: Sequence[Vec2],
        max_range: float = float("inf"),
    ) -> List[Vec2]:
        """The subset of ``targets`` visible from ``observer``."""
        in_range = [t for t in targets if observer.distance_to(t) <= max_range]
        flags = self.line_of_sight_batch(observer, in_range)
        return [target for target, seen in zip(in_range, flags) if seen]
