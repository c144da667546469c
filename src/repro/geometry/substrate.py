"""The shared position substrate: the fleet's committed positions and one epoch.

The :class:`~repro.mobility.manager.MobilityManager` writes every mobile
node's position here once per tick; the
:class:`~repro.radio.interfaces.RadioEnvironment` keys its per-epoch caches
(the position universe, link rows, broadcast plans) on the substrate's
:attr:`~SpatialSubstrate.position_epoch`, so one epoch serves both layers.
Nothing queries the substrate by range: the radio reads every position once
per epoch into its own coordinate columns and finds candidates there.

Freshness contract
------------------

``position_epoch`` is the single source of truth for "positions may have
changed".  It advances exactly when:

* :meth:`commit` is called (the owner finished one batch of position
  writes — normally once per mobility tick);
* a key is inserted for the first time or removed (membership changes must
  invalidate consumers immediately, without waiting for the next tick).

Between two equal readings of ``position_epoch`` every position in the
substrate is guaranteed unchanged, so consumers may cache any pure function
of positions (link qualities, in-range sets, network descriptions) keyed on
the epoch alone.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.geometry.vector import Vec2


class SpatialSubstrate:
    """The fleet's last committed positions and their position epoch."""

    def __init__(self) -> None:
        #: Key → last written position, in insertion order.
        self.positions: Dict[Hashable, Vec2] = {}
        #: Bumped whenever positions may have changed; see the module
        #: docstring for the exact contract.
        self.position_epoch = 0
        #: Number of :meth:`commit` calls — i.e. completed position-sync
        #: passes.  Benchmark E11 asserts this is one per mobility tick.
        self.commit_count = 0

    def update(self, key: Hashable, position: Vec2) -> None:
        """Insert ``key`` or move it; an insert bumps the epoch immediately."""
        if key not in self.positions:
            self.position_epoch += 1
        self.positions[key] = position

    def remove(self, key: Hashable) -> None:
        """Remove ``key``; bumps the epoch (no-op for unknown keys)."""
        if self.positions.pop(key, None) is not None:
            self.position_epoch += 1

    def commit(self) -> None:
        """Close one batch of position writes (one mobility tick)."""
        self.position_epoch += 1
        self.commit_count += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self.positions
