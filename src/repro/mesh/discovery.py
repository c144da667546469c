"""Asynchronous beaconing and neighbour discovery.

Every node runs a :class:`BeaconAgent` that broadcasts a
:class:`~repro.mesh.messages.Beacon` on its own unsynchronised schedule
(period plus per-node jitter) and records the beacons it hears in its
:class:`~repro.mesh.neighbor.NeighborTable`.  No node ever waits for another:
this is the "asynchronous" in AirDnD.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.mesh.messages import BEACON_SIZE_BYTES, Beacon
from repro.mesh.neighbor import NeighborTable
from repro.radio.interfaces import Frame, RadioInterface
from repro.radio.link import LinkQuality
from repro.simcore.simulator import Simulator

#: Type of the callback higher layers register to enrich outgoing beacons.
BeaconEnricher = Callable[[Beacon], Beacon]


class BeaconAgent:
    """Periodic beacon transmitter + neighbour table maintainer for one node.

    Parameters
    ----------
    sim:
        The simulator (clock + scheduling).
    interface:
        The node's radio interface.
    state_provider:
        Zero-argument callable returning the node's current
        ``(position, velocity)`` pair.
    beacon_period:
        Nominal seconds between beacons (100 ms–1 s typical for CAM-style
        messages).
    jitter:
        Uniform random extra delay added to each period so that nodes never
        synchronise.
    neighbor_lifetime:
        Neighbour-table expiry, in seconds.
    """

    def __init__(
        self,
        sim: Simulator,
        interface: RadioInterface,
        state_provider: Callable[[], tuple],
        beacon_period: float = 0.5,
        jitter: float = 0.1,
        neighbor_lifetime: float = 3.0,
    ) -> None:
        self.sim = sim
        self.interface = interface
        self.state_provider = state_provider
        self.beacon_period = beacon_period
        self.neighbors = NeighborTable(interface.node_name, lifetime=neighbor_lifetime)
        self._enrichers: List[BeaconEnricher] = []
        self._neighbor_up_callbacks: List[Callable[[str, Beacon], None]] = []
        self._neighbor_down_callbacks: List[Callable[[str], None]] = []
        self.beacons_sent = 0
        self.beacons_heard = 0
        self.epoch = 0
        self._beacons_sent_counter = sim.monitor.counter("mesh.beacons_sent")

        interface.on_receive(self._on_frame)
        self._beacon_task = sim.schedule_periodic(
            beacon_period,
            self._send_beacon,
            start_delay=float(
                sim.streams.get("beacon-phase").uniform(0.0, beacon_period)
            ),
            jitter=jitter,
            rng_stream=f"beacon-jitter:{interface.node_name}",
            name=f"beacon:{interface.node_name}",
        )
        self._expiry_task = sim.schedule_periodic(
            neighbor_lifetime / 2.0,
            self._expire_neighbors,
            name=f"neighbor-expiry:{interface.node_name}",
        )

    # ------------------------------------------------------------ callbacks

    def add_enricher(self, enricher: BeaconEnricher) -> None:
        """Let a higher layer rewrite outgoing beacons (add compute/data info)."""
        self._enrichers.append(enricher)

    def on_neighbor_up(self, callback: Callable[[str, Beacon], None]) -> None:
        """Register a callback fired when a new neighbour is discovered."""
        self._neighbor_up_callbacks.append(callback)

    def on_neighbor_down(self, callback: Callable[[str], None]) -> None:
        """Register a callback fired when a neighbour expires."""
        self._neighbor_down_callbacks.append(callback)

    def stop(self) -> None:
        """Stop beaconing and expiry (node shutting down)."""
        self._beacon_task.cancel()
        self._expiry_task.cancel()

    # ------------------------------------------------------------ beaconing

    def build_beacon(self) -> Beacon:
        """Construct the next outgoing beacon, applying all enrichers."""
        position, velocity = self.state_provider()
        beacon = Beacon(
            sender=self.interface.node_name,
            timestamp=self.sim.now,
            position=position,
            velocity=velocity,
            epoch=self.epoch,
        )
        for enricher in self._enrichers:
            beacon = enricher(beacon)
        return beacon

    def _send_beacon(self) -> None:
        beacon = self.build_beacon()
        self.interface.send(
            beacon, size_bytes=BEACON_SIZE_BYTES, destination=None, kind="beacon"
        )
        self.beacons_sent += 1
        self._beacons_sent_counter.add()

    # -------------------------------------------------------------- receive

    def _on_frame(self, frame: Frame, quality: LinkQuality) -> None:
        if frame.kind != "beacon" or not isinstance(frame.payload, Beacon):
            return
        beacon: Beacon = frame.payload
        self.beacons_heard += 1
        is_new = self.neighbors.observe(
            beacon, self.sim.now, quality.snr_db, quality.rate_bps
        )
        if is_new:
            self.epoch += 1
            self.sim.monitor.counter("mesh.neighbor_up_events").add()
            for callback in self._neighbor_up_callbacks:
                callback(beacon.sender, beacon)

    def _expire_neighbors(self) -> None:
        expired = self.neighbors.expire(self.sim.now)
        if expired:
            self.epoch += 1
            self.sim.monitor.counter("mesh.neighbor_down_events").add(len(expired))
            for name in expired:
                for callback in self._neighbor_down_callbacks:
                    callback(name)
