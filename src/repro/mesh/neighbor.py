"""Per-node neighbour tables.

Each node keeps a table of the beacons it has recently heard.  An entry
expires when no beacon has arrived for ``lifetime`` seconds; expiry is the
*only* way a node learns that a neighbour left — there is no goodbye message,
matching the asynchronous, failure-prone reality of vehicular meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mesh.messages import Beacon


@dataclass
class NeighborEntry:
    """Everything a node knows about one neighbour."""

    beacon: Beacon
    last_seen: float
    #: Signal-to-noise ratio and link rate of the frame that carried the
    #: latest beacon.
    snr_db: float = 0.0
    rate_bps: float = 0.0
    beacons_received: int = 1
    first_seen: float = 0.0

    def age(self, now: float) -> float:
        """Seconds since the last beacon from this neighbour."""
        return max(0.0, now - self.last_seen)

    def contact_duration(self, now: float) -> float:
        """Seconds this neighbour has been continuously known."""
        return max(0.0, now - self.first_seen)


class NeighborTable:
    """Recently heard neighbours, with age-based expiry.

    Parameters
    ----------
    owner:
        Name of the node owning the table.
    lifetime:
        Seconds after which a silent neighbour is evicted (typically a small
        multiple of the beacon period).
    """

    def __init__(self, owner: str, lifetime: float = 3.0) -> None:
        if lifetime <= 0:
            raise ValueError("lifetime must be positive")
        self.owner = owner
        self.lifetime = lifetime
        self._entries: Dict[str, NeighborEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def observe(
        self, beacon: Beacon, now: float, snr_db: float = 0.0, rate_bps: float = 0.0
    ) -> bool:
        """Record a received beacon.

        Returns ``True`` when the sender is a *new* neighbour (not currently
        in the table), which is the membership-change trigger used by
        :class:`~repro.mesh.membership.MeshMembership`.
        """
        if beacon.sender == self.owner:
            return False
        existing = self._entries.get(beacon.sender)
        if existing is None:
            self._entries[beacon.sender] = NeighborEntry(
                beacon=beacon,
                last_seen=now,
                snr_db=snr_db,
                rate_bps=rate_bps,
                beacons_received=1,
                first_seen=now,
            )
            return True
        existing.beacon = beacon
        existing.last_seen = now
        existing.snr_db = snr_db
        existing.rate_bps = rate_bps
        existing.beacons_received += 1
        return False

    def expire(self, now: float) -> List[str]:
        """Remove silent neighbours; returns the names that were evicted."""
        expired = [
            name
            for name, entry in self._entries.items()
            if entry.age(now) > self.lifetime
        ]
        for name in expired:
            del self._entries[name]
        return expired

    def entry(self, name: str) -> Optional[NeighborEntry]:
        """The entry for ``name``, or ``None``."""
        return self._entries.get(name)

    def names(self) -> List[str]:
        """Names of all current neighbours."""
        return list(self._entries)

    def entries(self) -> List[NeighborEntry]:
        """All current entries."""
        return list(self._entries.values())

    def active_names(self, now: float) -> List[str]:
        """Names of neighbours whose entry has not aged past the lifetime.

        :meth:`expire` only runs on the owner's periodic sweep (every half
        lifetime), so between sweeps the table can hold entries that are
        already overdue.  View-style queries — "who is in my mesh right
        now?" — must not report those: a crashed peer has to leave every
        live node's view within the beacon timeout, not within timeout plus
        sweep phase (regression-tested by the fault-injection suite).  This
        is a non-mutating filter; eviction (and the leave callbacks) still
        happen on the sweep.
        """
        return [
            name
            for name, entry in self._entries.items()
            if entry.age(now) <= self.lifetime
        ]

    def remove(self, name: str) -> None:
        """Explicitly drop a neighbour (used when a link is blacklisted)."""
        self._entries.pop(name, None)

    def clear(self) -> None:
        """Drop every neighbour."""
        self._entries.clear()

    # ------------------------------------------------------------- snapshot

    def capture_state(self, now: float = 0.0) -> dict:
        """Per-neighbour timing/count state (plus current ages) as plain data.

        The beacon objects themselves travel with the snapshot's object
        graph; this captures the fields that define expiry behaviour so a
        restored table is ``==``-comparable with the original.
        """
        return {
            "owner": self.owner,
            "lifetime": self.lifetime,
            "entries": {
                name: {
                    "last_seen": entry.last_seen,
                    "first_seen": entry.first_seen,
                    "beacons_received": entry.beacons_received,
                    "age": entry.age(now),
                }
                for name, entry in self._entries.items()
            },
        }
