"""Event objects and the priority queue that orders them.

The simulator's core data structure is a binary-heap priority queue of
:class:`Event` objects ordered by ``(time, priority, sequence)``.  The
sequence number guarantees a deterministic, insertion-stable order for events
scheduled at identical times — essential for reproducible distributed-systems
experiments.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple


@dataclass(order=True, slots=True)
class Event:
    """A single scheduled callback.

    ``__slots__`` (via ``dataclass(slots=True)``): one of these is allocated
    for every scheduled callback, making it the single hottest allocation in
    the simulator — dropping the per-instance ``__dict__`` saves both memory
    and attribute-lookup indirection.

    Attributes
    ----------
    time:
        Virtual time at which the event fires.
    priority:
        Tie-breaker for events at the same time; lower fires first.
    sequence:
        Monotonic insertion counter, final tie-breaker (set by the queue).
    callback:
        Zero-argument callable invoked when the event fires.
    name:
        Human-readable label used in traces.
    cancelled:
        Cancelled events stay in the heap until they are popped or the queue
        compacts itself (see :class:`EventQueue`).
    """

    time: float
    priority: int = 0
    sequence: int = field(default=0, compare=True)
    callback: Optional[Callable[[], Any]] = field(default=None, compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    queue: Optional["EventQueue"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped.

        Idempotent; notifies the owning queue so its active-event count
        stays exact without rescanning the heap.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._on_cancel(self)
            self.queue = None

    @property
    def active(self) -> bool:
        """Whether the event will still fire."""
        return not self.cancelled


#: One heap entry: ``(time, priority, sequence, event)``.
HeapEntry = Tuple[float, int, int, Event]

#: Heaps smaller than this are never compacted — rebuilding a few dozen
#: entries costs more bookkeeping than the dead entries occupy.
COMPACT_MIN_HEAP = 64

#: Compact when cancelled events outnumber active ones by this factor, i.e.
#: when less than ``1 / (1 + factor)`` of the heap is still live.
COMPACT_CANCELLED_FACTOR = 1


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Events order by ``(time, priority, sequence)``.  ``sequence`` is assigned
    by the queue itself so two events pushed at the same ``(time, priority)``
    pop in push order.  The heap stores ``(time, priority, sequence, event)``
    tuples rather than bare events: ``heapq`` then compares entries in C
    instead of through the dataclass's Python-level ``__lt__``, and because
    ``sequence`` is unique the comparison never reaches the event itself, so
    pop order is exactly the events' own order.

    Cancelled events are skipped lazily when popped; when they come to
    dominate the heap (a long-horizon run with heavy beacon rescheduling can
    cancel far more events than it fires), the queue rebuilds itself in place
    without them, keeping the heap O(active events).  Compaction never
    changes observable order: the ``(time, priority, sequence)`` keys of the
    surviving events are untouched and totally ordered.
    """

    def __init__(self) -> None:
        self._entries: list[HeapEntry] = []
        #: Sequence number the next pushed event gets.
        self._next_sequence = 0
        self._active = 0
        #: In-place rebuilds performed to shed cancelled events.
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def push(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Create an event and insert it into the queue.

        Returns the :class:`Event` so callers may later :meth:`Event.cancel`
        it.
        """
        sequence = self._next_sequence
        self._next_sequence = sequence + 1
        # Positional: the generated __init__ takes keywords at twice the cost.
        event = Event(time, priority, sequence, callback, name, False, self)
        heapq.heappush(self._entries, (time, priority, sequence, event))
        self._active += 1
        return event

    def reserve(self, count: int) -> int:
        """Take ``count`` consecutive sequence numbers; returns the first.

        The radio environment reserves one per broadcast arrival, so an
        arrival the simulator counts without an event keeps the number a
        per-receiver push would have given it.
        """
        first = self._next_sequence
        self._next_sequence = first + count
        return first

    def _on_cancel(self, _event: Event) -> None:
        """Bookkeeping callback from :meth:`Event.cancel`."""
        self._active -= 1
        heap = self._entries
        if (
            len(heap) >= COMPACT_MIN_HEAP
            and len(heap) - self._active > self._active * COMPACT_CANCELLED_FACTOR
        ):
            self._entries = [entry for entry in heap if not entry[3].cancelled]
            heapq.heapify(self._entries)
            self.compactions += 1

    def pop(self) -> Event:
        """Remove and return the earliest active event.

        Cancelled events are silently discarded.  Raises ``IndexError`` when
        the queue holds no active events.
        """
        heap = self._entries
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                # Detach so a late cancel() of the fired event cannot skew
                # the active count.
                event.queue = None
                self._active -= 1
                return event
        raise IndexError("pop from empty EventQueue")

    def peek(self) -> Optional[HeapEntry]:
        """The heap entry of the next active event, or ``None``."""
        heap = self._entries
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next active event, or ``None``."""
        entry = self.peek()
        return None if entry is None else entry[0]

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._entries:
            entry[3].queue = None
        self._entries.clear()
        self._active = 0

    def active_count(self) -> int:
        """Number of events that have not been cancelled (O(1), tracked
        incrementally on push/cancel/pop)."""
        return self._active

    # ------------------------------------------------------------- snapshot

    def __getstate__(self) -> dict:
        """Pickle the heap as a list of bare events under ``_heap``.

        The pickled bytes then do not depend on the in-memory entry format.
        The list is in heap order, which is also a valid heap of bare events
        (the keys are the same).
        """
        state = {"_heap": [entry[3] for entry in self._entries]}
        state.update(
            (key, value) for key, value in self.__dict__.items() if key != "_entries"
        )
        return state

    def __setstate__(self, state: dict) -> None:
        # The heap entries are rebuilt on first use (see __getattr__), not
        # here: in a cyclic graph an event can reach this queue before its
        # own state is set.
        self.__dict__.update(state)

    def __getattr__(self, name: str) -> Any:
        # Only reached when normal lookup fails, i.e. on the first use of a
        # queue restored from a pickle, whose heap arrived as bare events.
        events = self.__dict__.get("_heap")
        if name != "_entries" or events is None:
            raise AttributeError(name)
        del self.__dict__["_heap"]
        self._entries = [
            (event.time, event.priority, event.sequence, event) for event in events
        ]
        return self._entries
