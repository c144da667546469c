"""The subscriber bus sessions publish their event stream through.

One bus per session.  Events are plain JSON-ready dictionaries (``type``
``tick`` / ``state`` / ``topology`` / ``report`` — the streaming protocol is
documented in ``docs/SERVICE.md``).  Two kinds of subscribers coexist:

* **callbacks** — synchronous functions invoked inline at publish time;
  used by in-process consumers (tests, metric recorders).
* **queues** — ``asyncio.Queue`` endpoints for async consumers (the
  WebSocket streaming handler).  Publishing never blocks the simulation:
  when a slow consumer's queue is full the *oldest* event is dropped to
  make room, and the drop is counted, so a stalled WebSocket can never
  starve the session scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List

if TYPE_CHECKING:
    import asyncio

#: Default per-queue capacity before drop-oldest kicks in.
DEFAULT_QUEUE_SIZE = 256

Subscriber = Callable[[Dict[str, Any]], Any]


class SubscriberBus:
    """Fan-out of session events to callbacks and async queues."""

    def __init__(self) -> None:
        self._callbacks: List[Subscriber] = []
        self._queues: List[asyncio.Queue] = []
        #: Events published over the bus's lifetime.
        self.published = 0
        #: Events discarded because a queue subscriber lagged behind.
        self.dropped = 0
        #: Callback invocations that raised (isolated, not propagated).
        self.callback_errors = 0

    # ---------------------------------------------------------- subscribers

    def subscribe(self, callback: Subscriber) -> Subscriber:
        """Register a synchronous callback; returns it for unsubscribe."""
        self._callbacks.append(callback)
        return callback

    def unsubscribe(self, callback: Subscriber) -> None:
        """Remove a callback (no-op when it was never subscribed)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def connect_queue(self, maxsize: int = DEFAULT_QUEUE_SIZE) -> asyncio.Queue:
        """Attach and return a bounded queue endpoint for an async consumer."""
        import asyncio
        queue: asyncio.Queue = asyncio.Queue(maxsize=maxsize)
        self._queues.append(queue)
        return queue

    def disconnect_queue(self, queue: asyncio.Queue) -> None:
        """Detach a queue endpoint (no-op when it was never connected)."""
        try:
            self._queues.remove(queue)
        except ValueError:
            pass

    @property
    def subscriber_count(self) -> int:
        """Callbacks plus connected queues."""
        return len(self._callbacks) + len(self._queues)

    # -------------------------------------------------------------- publish

    def publish(self, event: Dict[str, Any]) -> None:
        """Deliver ``event`` to every subscriber without ever blocking."""
        self.published += 1
        for callback in self._callbacks:
            # A buggy subscriber must not take down the session scheduler
            # publishing from inside step(); isolate and count it.
            try:
                callback(event)
            except Exception:  # noqa: BLE001
                self.callback_errors += 1
        for queue in self._queues:
            if queue.full():
                queue.get_nowait()
                self.dropped += 1
            queue.put_nowait(event)
