"""The full per-node mesh stack, bundled.

:class:`MeshNode` wires together a radio interface, the beaconing agent, the
greedy router and the reliable transport for one mobile node.  The AirDnD
core builds its orchestration node on top of exactly one ``MeshNode``, which
lives as long as the node does: a reboot (:meth:`MeshNode.restart`) swaps
fresh parts in underneath and re-registers the hooks its users gave it.
Tests and baselines can also use it directly.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent, BeaconEnricher
from repro.mesh.routing import GreedyGeoRouter
from repro.mesh.transport import ReliableTransport, Transfer
from repro.mobility.providers import PositionOf
from repro.radio.interfaces import BroadcastHandler, RadioEnvironment
from repro.simcore.simulator import Simulator

#: Interface counters a restart carries over to the fresh interface.
_INTERFACE_COUNTERS = ("bytes_sent", "bytes_received", "frames_sent", "frames_received")


class MeshNode:
    """One node's complete mesh networking stack.

    Parameters
    ----------
    sim:
        The simulator.
    environment:
        The shared radio environment to attach to.
    mobile:
        The mobility object providing ``position`` and ``velocity`` (a
        :class:`~repro.mobility.vehicle.Vehicle`,
        :class:`~repro.mobility.waypoints.StaticNode`, ...).
    beacon_period / neighbor_lifetime:
        Discovery timing parameters.
    """

    def __init__(
        self,
        sim: Simulator,
        environment: RadioEnvironment,
        mobile: Any,
        beacon_period: float = 0.5,
        neighbor_lifetime: float = 3.0,
        mtu: int = 2000,
        ack_timeout: float = 1.0,
        max_attempts: int = 3,
    ) -> None:
        self.sim = sim
        self.environment = environment
        self.mobile = mobile
        self.name = mobile.name
        self.beacon_period = beacon_period
        self.neighbor_lifetime = neighbor_lifetime
        self.mtu = mtu
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        # Hooks registered through this node, in registration order; a
        # restart registers them again on the fresh parts.
        self._receivers: List[Callable[[str, str, Any, int], None]] = []
        self._enrichers: List[BeaconEnricher] = []
        self._frame_taps: List[BroadcastHandler] = []
        self._build_parts()

    def _build_parts(self) -> None:
        self.interface = self.environment.attach(self.name, PositionOf(self.mobile))
        self.beacon_agent = BeaconAgent(
            self.sim,
            self.interface,
            state_provider=self._kinematic_state,
            beacon_period=self.beacon_period,
            neighbor_lifetime=self.neighbor_lifetime,
        )
        self.router = GreedyGeoRouter(
            self.sim,
            self.interface,
            self.beacon_agent.neighbors,
            position_provider=PositionOf(self.mobile),
        )
        self.transport = ReliableTransport(
            self.sim,
            self.router,
            mtu=self.mtu,
            ack_timeout=self.ack_timeout,
            max_attempts=self.max_attempts,
        )

    # -------------------------------------------------------------- helpers

    def _kinematic_state(self) -> Tuple[Vec2, Vec2]:
        velocity = getattr(self.mobile, "velocity", Vec2.zero())
        return self.mobile.position, velocity

    @property
    def position(self) -> Vec2:
        """Current position of the underlying mobile node."""
        return self.mobile.position

    @property
    def neighbors(self):
        """The node's neighbour table."""
        return self.beacon_agent.neighbors

    # ----------------------------------------------------------------- hooks

    def on_receive(self, callback: Callable[[str, str, Any, int], None]) -> None:
        """Register for completed incoming transfers."""
        self._receivers.append(callback)
        self.transport.on_receive(callback)

    def add_enricher(self, enricher: BeaconEnricher) -> None:
        """Let a higher layer rewrite this node's outgoing beacons."""
        self._enrichers.append(enricher)
        self.beacon_agent.add_enricher(enricher)

    def on_frame(self, tap: BroadcastHandler) -> None:
        """Observe every frame the node's radio interface delivers.

        ``tap(frame, time, sequence, snr_db, rate_bps)`` gets each arrival's
        key.  Broadcast arrivals reach it when they are committed, so it is
        held to the broadcast-handler contract: no scheduling, transmitting
        or random draws.
        """
        self._frame_taps.append(tap)
        self._register_tap(tap)

    def _register_tap(self, tap: BroadcastHandler) -> None:
        self.interface.on_broadcast(tap)
        self.interface.on_unicast(tap)

    # ------------------------------------------------------------ messaging

    def send_reliable(
        self,
        destination: str,
        payload: Any,
        size_bytes: int,
        kind: str = "data",
        on_complete: Optional[Callable[[bool, Transfer], None]] = None,
    ) -> Transfer:
        """Reliably send ``payload`` to ``destination`` over the mesh."""
        return self.transport.send(
            destination, payload, size_bytes, kind=kind, on_complete=on_complete
        )

    # ------------------------------------------------------------- lifecycle

    def shutdown(self) -> None:
        """Stop beaconing (the node disappears from the mesh after expiry)."""
        self.beacon_agent.stop()
        self.interface.enabled = False

    def restart(self) -> None:
        """Reboot the stack: fresh parts, the same hooks and byte counters.

        The node rejoins with an empty neighbour table, epoch 0 and a clean
        transport, as a rebooted device would.  The old parts are shut down,
        detached and abandoned: the old interface stays disabled, so the old
        transport's pending retransmissions never reach the air (which is
        why the fresh parts get a new interface rather than the old one
        re-enabled).
        """
        old_interface = self.interface
        self.shutdown()
        self.environment.detach(self.name)
        self._build_parts()
        for counter in _INTERFACE_COUNTERS:
            setattr(self.interface, counter, getattr(old_interface, counter))
        for callback in self._receivers:
            self.transport.on_receive(callback)
        for enricher in self._enrichers:
            self.beacon_agent.add_enricher(enricher)
        for tap in self._frame_taps:
            self._register_tap(tap)
