"""The hot per-frame/per-event objects must stay ``__slots__``-only.

One :class:`~repro.simcore.event.Event` is allocated per scheduled callback,
one :class:`~repro.radio.interfaces.Frame` per transmission, one
:class:`~repro.mesh.messages.Beacon` per node per beacon period and one
:class:`~repro.radio.link.LinkQuality` per link pair per position epoch.  A
per-instance ``__dict__`` on any of them silently costs ~100 bytes and a
hash lookup per attribute access; this suite fails if one ever grows back.
"""

import pytest

from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon
from repro.radio.interfaces import Frame, _FrameDelivery
from repro.radio.link import LinkQuality
from repro.simcore.event import Event


def make_instances():
    return [
        Event(time=1.0, callback=lambda: None, name="t"),
        Frame(sender="a", destination=None, payload="x", size_bytes=10, frame_id=0),
        Beacon(sender="a", timestamp=0.0, position=Vec2(0, 0), velocity=Vec2(0, 0)),
        LinkQuality(10.0, 1e6, 0.01, True, 50.0),
        _FrameDelivery(None, None, 0.0, 0.0),
    ]


@pytest.mark.parametrize("instance", make_instances(), ids=lambda i: type(i).__name__)
def test_hot_objects_have_no_instance_dict(instance):
    assert not hasattr(instance, "__dict__"), (
        f"{type(instance).__name__} grew a per-instance __dict__ — "
        "keep slots=True on this hot-path class"
    )


@pytest.mark.parametrize("instance", make_instances(), ids=lambda i: type(i).__name__)
def test_hot_objects_reject_stray_attributes(instance):
    # On Python 3.11 the generated __setattr__ of a frozen+slots dataclass
    # raises TypeError instead of AttributeError for unknown names (the
    # pre-slots class leaks into its super() call, gh-91126); either way the
    # stray write is rejected, which is what this test pins down.
    with pytest.raises((AttributeError, TypeError)):
        instance.stray_attribute = 1


def test_slotted_event_still_cancels_and_orders():
    from repro.simcore.event import EventQueue

    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    second = queue.push(1.0, lambda: None)
    first.cancel()
    assert queue.active_count() == 1
    assert queue.pop() is second


def test_slotted_beacon_supports_dataclass_replace():
    from dataclasses import replace

    beacon = Beacon(sender="a", timestamp=0.0, position=Vec2(0, 0), velocity=Vec2(1, 0))
    enriched = replace(beacon, compute_headroom_ops=5e9)
    assert enriched.compute_headroom_ops == 5e9
    assert enriched.sender == "a"
