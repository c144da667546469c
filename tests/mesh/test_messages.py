"""Tests for mesh message formats."""

from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon, DataMessage
from repro.mesh.transport import ReliableTransport
from repro.simcore.simulator import Simulator


def test_beacon_predicted_position_extrapolates():
    beacon = Beacon(
        sender="a",
        timestamp=10.0,
        position=Vec2(0, 0),
        velocity=Vec2(5, 0),
    )
    assert beacon.predicted_position(12.0) == Vec2(10, 0)
    # Prediction never goes backwards in time.
    assert beacon.predicted_position(5.0) == Vec2(0, 0)


def test_beacon_age():
    beacon = Beacon(sender="a", timestamp=10.0, position=Vec2(0, 0), velocity=Vec2(0, 0))
    assert beacon.age(12.5) == 2.5
    assert beacon.age(9.0) == 0.0


class _RecordingRouter:
    node_name = "s"

    def __init__(self):
        self.sent = []

    def on_deliver(self, callback):
        pass

    def send(self, message):
        self.sent.append(message)


def test_data_message_ids_are_unique():
    # The transport draws every fragment's id from its simulation.
    router = _RecordingRouter()
    ReliableTransport(Simulator(), router, mtu=100).send("d", None, 350)
    ids = [message.message_id for message in router.sent]
    assert len(ids) == 4
    assert len(set(ids)) == 4


def test_next_hop_copy_decrements_ttl_and_counts_hops():
    message = DataMessage("s", "d", "task", {"x": 1}, 100, hop_limit=3, message_id=7)
    hop1 = message.next_hop_copy()
    hop2 = hop1.next_hop_copy()
    assert hop1.hop_limit == 2
    assert hop2.hop_limit == 1
    assert hop2.hops_taken == 2
    assert hop2.message_id == message.message_id
    assert hop2.payload == {"x": 1}
