"""Greedy geographic multi-hop routing over the mesh.

Destinations are addressed by node name; when the destination is not a
direct neighbour, a message is forwarded to the neighbour geographically
closest to the destination's last-known position (greedy geographic
forwarding).  If no neighbour makes progress the message is dropped — the
sender learns about it only through the transport layer's acknowledgement
timeout, keeping the routing layer stateless and asynchronous.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.geometry.vector import Vec2
from repro.mesh.messages import DataMessage
from repro.mesh.neighbor import NeighborTable
from repro.radio.interfaces import Frame, RadioInterface
from repro.simcore.simulator import Simulator


class GreedyGeoRouter:
    """Routes :class:`DataMessage` objects for one node.

    Parameters
    ----------
    sim:
        Simulator (clock and metrics).
    interface:
        The owning node's radio interface.
    neighbors:
        The owning node's neighbour table (source of next-hop candidates and
        of destination position estimates).
    position_provider:
        Callable returning the owning node's current position.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: RadioInterface,
        neighbors: NeighborTable,
        position_provider: Callable[[], Vec2],
    ) -> None:
        self.sim = sim
        self.interface = interface
        self.neighbors = neighbors
        self.position_provider = position_provider
        self._delivery_callbacks: List[Callable[[DataMessage], None]] = []
        self.messages_forwarded = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        interface.on_unicast(self._on_frame)

    @property
    def node_name(self) -> str:
        """Name of the node this router belongs to."""
        return self.interface.node_name

    def on_deliver(self, callback: Callable[[DataMessage], None]) -> None:
        """Register a callback for messages addressed to this node."""
        self._delivery_callbacks.append(callback)

    # --------------------------------------------------------------- sending

    def send(self, message: DataMessage) -> bool:
        """Send (or forward) a message toward its destination.

        Returns ``True`` when the message was handed to the radio, ``False``
        when no useful next hop exists (the message is dropped).
        """
        if message.destination == self.node_name:
            self._deliver_local(message)
            return True
        if message.hop_limit <= 0:
            self.messages_dropped += 1
            self.sim.monitor.counter("mesh.routing_drops_ttl").add()
            return False
        next_hop = self.select_next_hop(message.destination)
        if next_hop is None:
            self.messages_dropped += 1
            self.sim.monitor.counter("mesh.routing_drops_no_route").add()
            return False
        self.interface.send(
            message,
            size_bytes=message.size_bytes,
            destination=next_hop,
            kind=message.kind,
        )
        self.messages_forwarded += 1
        return True

    def select_next_hop(self, destination: str) -> Optional[str]:
        """Pick the next hop for ``destination``.

        Direct neighbours are always preferred.  Otherwise the neighbour whose
        predicted position is closest to the destination's last-known position
        is chosen, provided it improves on our own distance (greedy forwarding
        with no detours).
        """
        if destination in self.neighbors:
            return destination
        dest_entry = self.neighbors.entry(destination)
        destination_position = (
            dest_entry.beacon.predicted_position(self.sim.now)
            if dest_entry is not None
            else None
        )
        if destination_position is None:
            # Without any position estimate, fall back to the best-connected
            # neighbour so one-hop-distant meshes still work.
            best_entry = None
            for entry in self.neighbors.entries():
                if best_entry is None or entry.beacons_received > best_entry.beacons_received:
                    best_entry = entry
            return best_entry.beacon.sender if best_entry is not None else None
        own_distance = self.position_provider().distance_to(destination_position)
        best_name: Optional[str] = None
        best_distance = own_distance
        for entry in self.neighbors.entries():
            candidate_position = entry.beacon.predicted_position(self.sim.now)
            distance = candidate_position.distance_to(destination_position)
            if distance < best_distance:
                best_distance = distance
                best_name = entry.beacon.sender
        return best_name

    # -------------------------------------------------------------- receive

    def _on_frame(
        self, frame: Frame, _time: float, _sequence: int, _snr_db: float, _rate_bps: float
    ) -> None:
        if not isinstance(frame.payload, DataMessage):
            return
        message: DataMessage = frame.payload
        if frame.destination != self.node_name:
            return
        if message.destination == self.node_name:
            self._deliver_local(message)
        else:
            self.send(message.next_hop_copy())

    def _deliver_local(self, message: DataMessage) -> None:
        # An id arrives here at most once: each send issues a fresh id, and
        # a forward is one unicast copy along a single greedy path.
        self.messages_delivered += 1
        self.sim.monitor.counter("mesh.messages_delivered").add()
        self.sim.monitor.sample("mesh.delivery_hops").add(float(message.hops_taken))
        for callback in self._delivery_callbacks:
            callback(message)
