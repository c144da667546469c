"""Message formats exchanged over the mesh.

Only two message families exist at the mesh layer:

* :class:`Beacon` — the periodic, broadcast "I am here and this is my state"
  advertisement.  Higher layers (the AirDnD core) attach a summary of compute
  headroom and data availability to it, which is exactly what Model 1
  (network description) needs for candidate selection without any extra
  round-trips.
* :class:`DataMessage` — a unicast application payload (task description,
  task result, acknowledgement, attestation challenge...).  The mesh layer
  treats the payload as opaque.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.geometry.vector import Vec2

#: Approximate serialized size of a beacon frame in bytes.  Beacons carry a
#: node id, position, velocity, compute summary and a short data-catalog
#: digest — comfortably under 300 bytes, consistent with ETSI CAM sizes.
BEACON_SIZE_BYTES = 300


@dataclass(frozen=True, slots=True)
class Beacon:
    """Periodic broadcast advertisement of one node's state.

    Allocated once per node per beacon period fleet-wide (then copied by
    ``dataclasses.replace`` when enriched), so it carries ``__slots__`` like
    the other hot per-frame objects.

    Attributes
    ----------
    sender:
        Node name.
    timestamp:
        Virtual time at which the beacon was generated.
    position / velocity:
        Kinematic state used for contact-time prediction.
    compute_headroom_ops:
        Spare compute capacity (operations/second) the sender is willing to
        lend out — the "unused property" in the Airbnb analogy.
    queue_length:
        Number of tasks currently queued at the sender.
    data_summary:
        Compact digest of the sender's data pond: data type name →
        (coverage radius in metres, freshness in seconds, quality score 0..1).
    trust_score:
        The sender's self-reported reputation handle (verified separately by
        the trust layer).
    epoch:
        The sender's local membership epoch, for diagnosing asynchrony.
    """

    sender: str
    timestamp: float
    position: Vec2
    velocity: Vec2
    compute_headroom_ops: float = 0.0
    queue_length: int = 0
    data_summary: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)
    trust_score: float = 1.0
    epoch: int = 0

    def predicted_position(self, at_time: float) -> Vec2:
        """Dead-reckon the sender's position at ``at_time``."""
        horizon = max(0.0, at_time - self.timestamp)
        return self.position + self.velocity * horizon

    def age(self, now: float) -> float:
        """Seconds since the beacon was generated."""
        return max(0.0, now - self.timestamp)


@dataclass
class DataMessage:
    """A unicast application message routed over the mesh.

    Attributes
    ----------
    source / destination:
        Node names of the two endpoints.
    kind:
        Application-level label ("task", "result", "ack", ...).
    payload:
        Opaque application object.
    size_bytes:
        Serialized size used for transfer-time accounting.
    hop_limit:
        Remaining hops before the message is dropped (TTL).
    message_id:
        Identifier issued by the sending simulation; routers drop a message
        whose id they have already seen.
    """

    source: str
    destination: str
    kind: str
    payload: Any
    size_bytes: int
    hop_limit: int = 8
    message_id: int = field(kw_only=True)
    hops_taken: int = 0

    def next_hop_copy(self) -> "DataMessage":
        """Copy of this message with the hop budget decremented."""
        clone = DataMessage(
            source=self.source,
            destination=self.destination,
            kind=self.kind,
            payload=self.payload,
            size_bytes=self.size_bytes,
            hop_limit=self.hop_limit - 1,
            message_id=self.message_id,
        )
        clone.hops_taken = self.hops_taken + 1
        return clone
