"""Tests for the event queue."""

import base64
import pickle

import pytest

from repro.simcore.event import Event, EventQueue


def test_pop_orders_by_time():
    queue = EventQueue()
    queue.push(3.0, lambda: None, name="late")
    queue.push(1.0, lambda: None, name="early")
    queue.push(2.0, lambda: None, name="middle")
    assert [queue.pop().name for _ in range(3)] == ["early", "middle", "late"]


def test_same_time_orders_by_priority_then_insertion():
    queue = EventQueue()
    queue.push(1.0, lambda: None, priority=1, name="low-priority")
    queue.push(1.0, lambda: None, priority=0, name="high-priority")
    queue.push(1.0, lambda: None, priority=0, name="high-priority-2")
    names = [queue.pop().name for _ in range(3)]
    assert names == ["high-priority", "high-priority-2", "low-priority"]


def test_cancelled_events_are_skipped():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, name="cancelled")
    queue.push(2.0, lambda: None, name="kept")
    event.cancel()
    assert queue.pop().name == "kept"


def test_pop_empty_raises():
    queue = EventQueue()
    with pytest.raises(IndexError):
        queue.pop()


def test_peek_time_skips_cancelled():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    first.cancel()
    assert queue.peek_time() == 5.0


def test_active_count_excludes_cancelled():
    queue = EventQueue()
    kept = queue.push(1.0, lambda: None)
    dropped = queue.push(2.0, lambda: None)
    dropped.cancel()
    assert queue.active_count() == 1
    assert kept.active and not dropped.active


def test_len_and_clear():
    queue = EventQueue()
    queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    assert len(queue) == 2
    queue.clear()
    assert len(queue) == 0
    assert queue.peek_time() is None


def test_active_count_is_tracked_incrementally():
    queue = EventQueue()
    events = [queue.push(float(i), lambda: None) for i in range(5)]
    assert queue.active_count() == 5
    events[1].cancel()
    events[1].cancel()  # double cancel must not double-decrement
    assert queue.active_count() == 4
    queue.pop()  # pops event 0
    assert queue.active_count() == 3
    queue.clear()
    assert queue.active_count() == 0


def test_cancel_after_pop_does_not_skew_active_count():
    queue = EventQueue()
    first = queue.push(1.0, lambda: None)
    queue.push(2.0, lambda: None)
    popped = queue.pop()
    assert popped is first
    popped.cancel()  # already fired; only marks the flag
    assert queue.active_count() == 1


def test_cancel_after_clear_does_not_underflow():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.clear()
    event.cancel()
    assert queue.active_count() == 0


# ---------------------------------------------------------- compaction


def test_compaction_sheds_cancelled_events():
    from repro.simcore.event import COMPACT_MIN_HEAP

    queue = EventQueue()
    keep = [queue.push(float(i), lambda: None, name=f"k{i}") for i in range(8)]
    doomed = [
        queue.push(1000.0 + i, lambda: None, name=f"d{i}")
        for i in range(2 * COMPACT_MIN_HEAP)
    ]
    assert queue.compactions == 0
    for event in doomed:
        event.cancel()
    # Once cancelled events dominate, the heap is rebuilt without them.
    # (Below COMPACT_MIN_HEAP entries the queue stops compacting, so a few
    # cancelled stragglers may remain — the bound is the threshold, not 0.)
    assert queue.compactions >= 1
    assert len(queue) < len(keep) + len(doomed)
    assert len(queue) <= COMPACT_MIN_HEAP
    assert queue.active_count() == len(keep)
    # Observable order is untouched.
    assert [queue.pop().name for _ in range(len(keep))] == [
        f"k{i}" for i in range(len(keep))
    ]


def test_small_heaps_are_never_compacted():
    from repro.simcore.event import COMPACT_MIN_HEAP

    queue = EventQueue()
    events = [
        queue.push(float(i), lambda: None)
        for i in range(COMPACT_MIN_HEAP // 2)
    ]
    for event in events:
        event.cancel()
    assert queue.compactions == 0


def test_compacted_queue_keeps_sequence_stability():
    from repro.simcore.event import COMPACT_MIN_HEAP

    queue = EventQueue()
    first = queue.push(1.0, lambda: None, name="first")
    doomed = [
        queue.push(0.5, lambda: None) for _ in range(3 * COMPACT_MIN_HEAP)
    ]
    second = queue.push(1.0, lambda: None, name="second")
    for event in doomed:
        event.cancel()
    assert queue.compactions >= 1
    # Ties at (time, priority) still pop in original insertion order.
    assert [queue.pop().name, queue.pop().name] == ["first", "second"]


# ------------------------------------------------------------ pickling


def _pickling_queue():
    """A queue of picklable events (no callbacks), one of them cancelled."""
    queue = EventQueue()
    queue.push(2.0, None, name="b")
    queue.push(1.0, None, name="a")
    queue.push(1.0, None, priority=-1, name="first")
    queue.push(3.0, None, name="dropped").cancel()
    queue.push(1.0, None, name="a2")
    return queue


def _drain(queue):
    names = []
    while queue.peek_time() is not None:
        names.append(queue.pop().name)
    return names


#: ``_pickling_queue()`` pickled (protocol 4): the heap as bare events
#: rather than ``(time, priority, sequence, event)`` tuples, and the next
#: sequence number as a plain int (snapshot format v4).
BARE_EVENT_HEAP_PICKLE = base64.b64decode(
    "gASVpQEAAAAAAACME3JlcHJvLnNpbWNvcmUuZXZlbnSUjApFdmVudFF1ZXVllJOUKYGU"
    "fZQojAVfaGVhcJRdlChoAIwFRXZlbnSUk5QpgZROfZQojAR0aW1llEc/8AAAAAAAAIwI"
    "cHJpb3JpdHmUSv////+MCHNlcXVlbmNllEsCjAhjYWxsYmFja5ROjARuYW1llIwFZmly"
    "c3SUjAljYW5jZWxsZWSUiYwFcXVldWWUaAN1hpRiaAgpgZROfZQoaAtHP/AAAAAAAABo"
    "DEsAaA1LBGgOTmgPjAJhMpRoEYloEmgDdYaUYmgIKYGUTn2UKGgLRz/wAAAAAAAAaAxL"
    "AGgNSwFoDk5oD4wBYZRoEYloEmgDdYaUYmgIKYGUTn2UKGgLR0AIAAAAAAAAaAxLAGgN"
    "SwNoDk5oD4wHZHJvcHBlZJRoEYhoEk51hpRiaAgpgZROfZQoaAtHQAAAAAAAAABoDEsA"
    "aA1LAGgOTmgPjAFilGgRiWgSaAN1hpRiZYwOX25leHRfc2VxdWVuY2WUSwWMB19hY3Rp"
    "dmWUSwSMC2NvbXBhY3Rpb25zlEsAdWIu"
)


def test_pickle_round_trip_pops_in_the_same_order():
    original = _pickling_queue()
    restored = pickle.loads(pickle.dumps(original))
    assert restored.active_count() == original.active_count() == 4
    assert len(restored) == len(original) == 5
    assert _drain(restored) == _drain(original) == ["first", "a", "a2", "b"]


def test_restored_queue_still_cancels_and_counts():
    restored = pickle.loads(pickle.dumps(_pickling_queue()))
    late = restored.push(1.0, None, name="late")
    restored.push(0.5, None, name="early")
    late.cancel()
    assert restored.active_count() == 5
    assert _drain(restored) == ["early", "first", "a", "a2", "b"]
    assert restored.active_count() == 0
    # The sequence counter travelled too: a tie pushed now still pops last.
    assert late.sequence == 5


def test_pickled_heap_holds_bare_events():
    queue = _pickling_queue()
    state = queue.__reduce_ex__(4)[2]
    assert list(state) == ["_heap", "_next_sequence", "_active", "compactions"]
    heap = state["_heap"]
    assert all(type(event) is Event for event in heap)
    assert [event.name for event in heap] == [
        entry[3].name for entry in queue._entries
    ]
    # Byte for byte the layout snapshot artifacts carry.
    assert pickle.dumps(queue, protocol=4) == BARE_EVENT_HEAP_PICKLE


def test_bare_event_heap_pickle_loads_and_pops():
    restored = pickle.loads(BARE_EVENT_HEAP_PICKLE)
    assert restored.active_count() == 4
    assert restored.push(1.0, None, name="new").sequence == 5
    assert _drain(restored) == ["first", "a", "a2", "new", "b"]


def test_event_pickled_ahead_of_its_queue_restores():
    """An event can reach its queue before its own state is loaded.

    Pickling the event first makes its queue (and the heap holding the
    event) load inside the event's state, so the queue must not read the
    event's keys while it is being restored.
    """
    queue = _pickling_queue()
    first = queue._entries[0][3]
    clone = pickle.loads(pickle.dumps(first))
    restored = clone.queue
    assert clone.name == "first"
    assert restored.active_count() == 4
    assert restored.pop() is clone
    assert _drain(restored) == ["a", "a2", "b"]
