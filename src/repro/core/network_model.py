"""Building Model 1 (NetworkDescription) from a node's local observations.

A node's network description is materialised *on demand* from the beacons it
has already heard — building it costs no messages and never blocks, which is
what makes the orchestrator asynchronous.  The one derived quantity that needs
real modelling is the **predicted contact time**: how long the neighbour is
expected to remain within communication range, computed in closed form from
both nodes' positions and velocities under a constant-velocity assumption.
"""

from __future__ import annotations

import math

from repro.core.models import NeighborDescription, NetworkDescription
from repro.geometry.vector import Vec2
from repro.mesh.node import MeshNode
from repro.radio.interfaces import RadioEnvironment


def _contact_time(
    distance: float, px: float, py: float, vx: float, vy: float, comm_range: float
) -> float:
    """:func:`predict_contact_time` on the relative position ``(px, py)``, its
    length ``distance`` (``math.hypot(px, py)``) and relative velocity."""
    if distance > comm_range:
        return 0.0
    v_sq = vx * vx + vy * vy
    if v_sq < 1e-12:
        return math.inf
    # Solve |p + v t|^2 = R^2  ->  v_sq t^2 + 2 (p·v) t + (|p|^2 - R^2) = 0
    b = 2.0 * (px * vx + py * vy)
    c = (px * px + py * py) - comm_range * comm_range
    discriminant = b * b - 4.0 * v_sq * c
    if discriminant < 0:
        return math.inf
    root = (-b + math.sqrt(discriminant)) / (2.0 * v_sq)
    return max(0.0, root)


def predict_contact_time(
    position_a: Vec2,
    velocity_a: Vec2,
    position_b: Vec2,
    velocity_b: Vec2,
    comm_range: float,
) -> float:
    """Seconds until two constant-velocity nodes drift out of ``comm_range``.

    Solves ``|p + v·t| = comm_range`` for the relative position ``p`` and
    relative velocity ``v``; returns ``inf`` when the nodes never separate
    (zero relative velocity inside range) and ``0`` when already out of range.
    """
    px = position_b.x - position_a.x
    py = position_b.y - position_a.y
    vx = velocity_b.x - velocity_a.x
    vy = velocity_b.y - velocity_a.y
    return _contact_time(math.hypot(px, py), px, py, vx, vy, comm_range)


class NetworkDescriptionBuilder:
    """Materialises :class:`NetworkDescription` views for one mesh node
    (afresh on every :meth:`build`: it keeps no memo).

    Parameters
    ----------
    mesh_node:
        The owning node's mesh stack (source of the neighbour table).
    environment:
        The radio environment, used for instantaneous link-quality estimates
        and for the nominal communication range used in contact prediction.
    """

    def __init__(self, mesh_node: MeshNode, environment: RadioEnvironment) -> None:
        self.mesh_node = mesh_node
        self.environment = environment

    def rebind_mesh(self, mesh_node: MeshNode) -> None:
        """Adopt a freshly built mesh stack (node recovery after a crash)."""
        self.mesh_node = mesh_node

    def build(self, now: float) -> NetworkDescription:
        """Build the owner's current network description.

        One pass of float arithmetic per neighbour entry: the beacon is
        dead-reckoned to ``now`` with :meth:`Beacon.predicted_position`'s
        arithmetic, and distance and contact time are taken from the same
        relative position.  Each neighbour costs one :class:`Vec2` and one
        :class:`NeighborDescription`; its velocity and data digest are the
        beacon's own (immutable) objects.  Callers must treat the returned
        description as read-only.
        """
        mesh_node = self.mesh_node
        own_position = mesh_node.position
        own_velocity = getattr(mesh_node.mobile, "velocity", Vec2.zero())
        ox, oy = own_position.x, own_position.y
        ovx, ovy = own_velocity.x, own_velocity.y
        comm_range = self.environment.max_range

        neighbors = []
        for entry in mesh_node.neighbors.entries():
            beacon = entry.beacon
            position = beacon.position
            velocity = beacon.velocity
            vx, vy = velocity.x, velocity.y
            horizon = max(0.0, now - beacon.timestamp)
            x = position.x + vx * horizon
            y = position.y + vy * horizon
            dx = x - ox
            dy = y - oy
            distance = math.hypot(dx, dy)
            neighbors.append(
                NeighborDescription(
                    name=beacon.sender,
                    position=Vec2(x, y),
                    velocity=velocity,
                    distance_m=distance,
                    link_rate_bps=entry.rate_bps,
                    link_snr_db=entry.snr_db,
                    compute_headroom_ops=beacon.compute_headroom_ops,
                    queue_length=beacon.queue_length,
                    data_summary=beacon.data_summary,
                    trust_score=beacon.trust_score,
                    beacon_age_s=max(0.0, now - entry.last_seen),
                    predicted_contact_time_s=_contact_time(
                        distance, dx, dy, vx - ovx, vy - ovy, comm_range
                    ),
                )
            )
        neighbors.sort(key=lambda n: n.name)
        return NetworkDescription(
            owner=mesh_node.name,
            time=now,
            position=own_position,
            neighbors=neighbors,
            epoch=mesh_node.membership.epoch,
        )
