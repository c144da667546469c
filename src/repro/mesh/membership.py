"""Per-node, asynchronous mesh membership views.

In AirDnD there is no global "the mesh"; each node has its own *view* of the
mesh it currently belongs to, derived from its neighbour table and the
neighbour tables' second-hand information carried in beacons.  Views advance
in per-node epochs — a node bumps its epoch whenever its view changes — so
two nodes may disagree transiently, which is exactly the asynchrony the
framework embraces.

:class:`MeshMembership` wraps one node's view and keeps statistics used by
experiment E3 (formation/dissolution dynamics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.mesh.discovery import BeaconAgent
from repro.simcore.simulator import Simulator


@dataclass
class MembershipStats:
    """Aggregate statistics over a node's membership history."""

    joins: int = 0
    leaves: int = 0
    total_membership_changes: int = 0
    contact_durations: List[float] = field(default_factory=list)

    def mean_contact_duration(self) -> float:
        """Average seconds a peer stayed in view (0 when no contact ended)."""
        if not self.contact_durations:
            return 0.0
        return sum(self.contact_durations) / len(self.contact_durations)


class MeshMembership:
    """One node's evolving view of the mesh it belongs to."""

    def __init__(self, sim: Simulator, beacon_agent: BeaconAgent) -> None:
        self.sim = sim
        self.agent = beacon_agent
        self.owner = beacon_agent.interface.node_name
        self.epoch = 0
        self.stats = MembershipStats()
        self._first_seen: Dict[str, float] = {}
        beacon_agent.on_neighbor_up(self._on_join)
        beacon_agent.on_neighbor_down(self._on_leave)

    # -------------------------------------------------------------- queries

    def members(self) -> Set[str]:
        """Current members of this node's mesh view (itself included).

        Age-aware: a neighbour whose last beacon is older than the neighbour
        lifetime is *not* a member, even if the periodic expiry sweep (which
        fires every half lifetime and records the ``leave`` event) has not
        caught up with it yet.  A crashed peer therefore leaves every live
        node's view within the beacon timeout itself.
        """
        return set(self.agent.neighbors.active_names(self.sim.now)) | {self.owner}

    def size(self) -> int:
        """Number of members in the current view."""
        return len(self.members())

    def is_member(self, name: str) -> bool:
        """Whether ``name`` is currently in this node's view."""
        return name in self.members()

    def view_age(self, peer: str) -> Optional[float]:
        """Seconds since the last beacon from ``peer`` (None if unknown)."""
        entry = self.agent.neighbors.entry(peer)
        if entry is None:
            return None
        return entry.age(self.sim.now)

    # --------------------------------------------------------------- events

    def _on_join(self, peer: str, _beacon) -> None:
        self.epoch += 1
        self._first_seen[peer] = self.sim.now
        self.stats.joins += 1
        self.stats.total_membership_changes += 1
        self.sim.monitor.counter("mesh.joins").add()

    def _on_leave(self, peer: str) -> None:
        self.epoch += 1
        self.stats.leaves += 1
        self.stats.total_membership_changes += 1
        first = self._first_seen.pop(peer, None)
        if first is not None:
            self.stats.contact_durations.append(self.sim.now - first)
        self.sim.monitor.counter("mesh.leaves").add()
