"""The full per-node mesh stack, bundled.

:class:`MeshNode` wires together a radio interface, the beaconing agent, the
membership view, the greedy router and the reliable transport for one mobile
node.  The AirDnD core builds its orchestration node on top of exactly one
``MeshNode``; tests and baselines can also use it directly.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.geometry.vector import Vec2
from repro.mesh.discovery import BeaconAgent
from repro.mesh.membership import MeshMembership
from repro.mesh.routing import GreedyGeoRouter
from repro.mesh.transport import ReliableTransport, Transfer
from repro.mobility.providers import PositionOf
from repro.radio.interfaces import RadioEnvironment
from repro.simcore.simulator import Simulator


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
        self.mobile = mobile
        self.name = mobile.name
        self.interface = environment.attach(self.name, PositionOf(self.mobile))
        self.beacon_agent = BeaconAgent(
            sim,
            self.interface,
            state_provider=self._kinematic_state,
            beacon_period=beacon_period,
            neighbor_lifetime=neighbor_lifetime,
        )
        self.membership = MeshMembership(sim, self.beacon_agent)
        self.router = GreedyGeoRouter(
            sim,
            self.interface,
            self.beacon_agent.neighbors,
            position_provider=PositionOf(self.mobile),
        )
        self.transport = ReliableTransport(
            sim,
            self.router,
            mtu=mtu,
            ack_timeout=ack_timeout,
            max_attempts=max_attempts,
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

    def on_receive(self, callback: Callable[[str, str, Any, int], None]) -> None:
        """Register for completed incoming transfers."""
        self.transport.on_receive(callback)

    def shutdown(self) -> None:
        """Stop beaconing (the node disappears from the mesh after expiry)."""
        self.beacon_agent.stop()
        self.interface.enabled = False
