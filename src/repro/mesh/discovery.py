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

The agent's table, epoch and beacons-heard count live in the radio
environment's :class:`~repro.mesh.neighbor.NeighborStore`, at the slot of
the agent's interface, and the radio writes them: a heard beacon is applied
by the environment's bulk commit, with its arrival time, not when it
arrives.  So everything that reads what the commit writes commits first:
the table's public methods, :attr:`BeaconAgent.epoch`,
:attr:`BeaconAgent.beacons_heard`, :meth:`BeaconAgent.build_beacon` and the
expiry sweep.  The writes and the
neighbour-up callbacks they call run with the simulator sealed.
"""

from __future__ import annotations

from typing import Callable, List

from repro.mesh.messages import BEACON_SIZE_BYTES, Beacon
from repro.mesh.neighbor import NeighborStore, NeighborTable, NeighborUpCallback
from repro.radio.interfaces import RadioInterface
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
        self._enrichers: List[BeaconEnricher] = []
        self.beacons_sent = 0
        self._beacons_sent_counter = sim.monitor.counter("mesh.beacons_sent")
        environment = interface.environment
        self._commit = environment.commit
        self._store = NeighborStore.of(environment)
        self._slot = interface.slot
        self.neighbors = NeighborTable(
            interface.node_name,
            lifetime=neighbor_lifetime,
            commit=self._commit,
            store=self._store,
            slot=interface.slot,
        )

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
        self._store.watch(self._slot, callback)

    @property
    def epoch(self) -> int:
        """Joins plus evictions so far (commits first)."""
        self._commit()
        return int(self._store.epoch[self._slot])

    @property
    def beacons_heard(self) -> int:
        """Beacons received so far (commits first)."""
        self._commit()
        return int(self._store.heard[self._slot])

    def stop(self) -> None:
        """Stop beaconing and expiry (node shutting down)."""
        self._beacon_task.cancel()
        self._expiry_task.cancel()

    # ------------------------------------------------------------ beaconing

    def build_beacon(self) -> Beacon:
        """Construct the next outgoing beacon, applying all enrichers."""
        self._commit()
        position, velocity = self.state_provider()
        beacon = Beacon(
            sender=self.interface.node_name,
            timestamp=self.sim.now,
            position=position,
            velocity=velocity,
            epoch=int(self._store.epoch[self._slot]),
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

    # --------------------------------------------------------------- expiry

    def _expire_neighbors(self) -> None:
        expired = self.neighbors.expire(self.sim.now)
        if expired:
            self._store.epoch[self._slot] += len(expired)
            self.sim.monitor.counter("mesh.leaves").add(len(expired))
