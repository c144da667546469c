"""The shared position substrate: the fleet's tracked keys and one epoch.

The :class:`~repro.mobility.manager.MobilityManager` tracks every mobile
node here and commits once per tick; the
:class:`~repro.radio.interfaces.RadioEnvironment` keys its per-epoch caches
(the position universe and the sender plans) on the substrate's
:attr:`~SpatialSubstrate.position_epoch`, so one epoch serves both layers.
The substrate keeps no positions: the radio reads every position provider
once per epoch into its own coordinate columns and finds candidates there.

Freshness contract
------------------

``position_epoch`` is the single source of truth for "positions may have
changed".  It advances exactly when:

* :meth:`commit` is called (the owner finished one batch of position
  writes — normally once per mobility tick);
* a key is inserted for the first time or removed (membership changes must
  invalidate consumers immediately, without waiting for the next tick).

Between two equal readings of ``position_epoch`` every tracked position is
guaranteed unchanged, so consumers may cache any pure function
of positions (link qualities, in-range sets, network descriptions) keyed on
the epoch alone.
"""

from __future__ import annotations

from typing import Dict, Hashable


class SpatialSubstrate:
    """The keys of the fleet's tracked nodes and their position epoch."""

    def __init__(self) -> None:
        #: The tracked keys, as an insertion-ordered set (a dict, so the
        #: pickled order does not depend on string hashing).
        self._keys: Dict[Hashable, None] = {}
        #: Bumped whenever positions may have changed; see the module
        #: docstring for the exact contract.
        self.position_epoch = 0
        #: Number of :meth:`commit` calls — i.e. completed position-sync
        #: passes.  Benchmark E11 asserts this is one per mobility tick.
        self.commit_count = 0

    def update(self, key: Hashable) -> None:
        """Track ``key``; a first insert bumps the epoch immediately.

        A tracked key's moves need no call: :meth:`commit` closes them.
        """
        if key not in self._keys:
            self._keys[key] = None
            self.position_epoch += 1

    def remove(self, key: Hashable) -> None:
        """Stop tracking ``key``; bumps the epoch (no-op for unknown keys)."""
        if key in self._keys:
            del self._keys[key]
            self.position_epoch += 1

    def commit(self) -> None:
        """Close one batch of position writes (one mobility tick)."""
        self.position_epoch += 1
        self.commit_count += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._keys
