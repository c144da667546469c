"""Asynchronous beaconing and neighbour discovery.

Every node runs a :class:`BeaconAgent` that broadcasts a
:class:`~repro.mesh.messages.Beacon` on its own unsynchronised schedule
(period plus per-node jitter) and records the beacons it hears in its
:class:`~repro.mesh.neighbor.NeighborTable`.  No node ever waits for another:
this is the "asynchronous" in AirDnD.

The table is the node's own view of the mesh it belongs to: there is no
global "the mesh", and two nodes may disagree transiently.  The agent counts
the view's changes in a per-node ``epoch``, one step per joined neighbour
and one per evicted neighbour, and carries it in every beacon.

Beacons reach the agent through its interface's broadcast-receipt hook
(:meth:`~repro.radio.interfaces.RadioInterface.on_broadcast`): on the exact
tier a heard beacon is applied when the interface commits, with its arrival
time, not when it arrives.  So everything that reads what the handler
writes commits first: the table's public methods, :attr:`BeaconAgent.epoch`,
:attr:`BeaconAgent.beacons_heard`, :meth:`BeaconAgent.build_beacon` and the
expiry sweep.  The handler and the neighbour-up callbacks it calls run with
the simulator sealed.
"""

from __future__ import annotations

from typing import Callable, List

from repro.mesh.messages import BEACON_SIZE_BYTES, Beacon
from repro.mesh.neighbor import NeighborTable
from repro.radio.interfaces import Frame, RadioInterface
from repro.simcore.simulator import Simulator

#: Type of the callback higher layers register to enrich outgoing beacons.
BeaconEnricher = Callable[[Beacon], Beacon]

#: ``callback(peer, beacon, time, sequence)`` for a newly joined neighbour;
#: ``time`` and ``sequence`` are the key of the arrival that joined it.
NeighborUpCallback = Callable[[str, Beacon, float, int], None]


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

    ``epoch`` starts at 0 and advances once per neighbour that joins the
    table and once per neighbour evicted from it; each step also counts one
    ``mesh.joins`` or ``mesh.leaves`` on the monitor.
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
        self.neighbors = NeighborTable(
            interface.node_name, lifetime=neighbor_lifetime, commit=interface.commit
        )
        self._enrichers: List[BeaconEnricher] = []
        self._neighbor_up_callbacks: List[NeighborUpCallback] = []
        self.beacons_sent = 0
        self._beacons_heard = 0
        self._epoch = 0
        self._beacons_sent_counter = sim.monitor.counter("mesh.beacons_sent")
        self._joins_counter = sim.monitor.counter("mesh.joins")

        interface.on_broadcast(self._on_beacon)
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

    def on_neighbor_up(self, callback: NeighborUpCallback) -> None:
        """Register a callback fired when a new neighbour is discovered.

        It runs when the joining arrival is committed, with the simulator
        sealed, so it gets the arrival's time and sequence number.
        """
        self._neighbor_up_callbacks.append(callback)

    @property
    def epoch(self) -> int:
        """Joins plus evictions so far (commits first)."""
        self.interface.commit()
        return self._epoch

    @property
    def beacons_heard(self) -> int:
        """Beacons received so far (commits first)."""
        self.interface.commit()
        return self._beacons_heard

    def stop(self) -> None:
        """Stop beaconing and expiry (node shutting down)."""
        self._beacon_task.cancel()
        self._expiry_task.cancel()

    # ------------------------------------------------------------ beaconing

    def build_beacon(self) -> Beacon:
        """Construct the next outgoing beacon, applying all enrichers."""
        self.interface.commit()
        position, velocity = self.state_provider()
        beacon = Beacon(
            sender=self.interface.node_name,
            timestamp=self.sim.now,
            position=position,
            velocity=velocity,
            epoch=self._epoch,
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

    def _on_beacon(
        self, frame: Frame, time: float, sequence: int, snr_db: float, rate_bps: float
    ) -> None:
        beacon = frame.payload
        if frame.kind != "beacon" or not isinstance(beacon, Beacon):
            return
        self._beacons_heard += 1
        if self.neighbors.observe(beacon, time, snr_db, rate_bps):
            self._epoch += 1
            self._joins_counter.add()
            for callback in self._neighbor_up_callbacks:
                callback(beacon.sender, beacon, time, sequence)

    def _expire_neighbors(self) -> None:
        expired = self.neighbors.expire(self.sim.now)
        if expired:
            self._epoch += len(expired)
            self.sim.monitor.counter("mesh.leaves").add(len(expired))
