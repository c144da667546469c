"""Reliable, fragmenting transfers over the mesh.

Task descriptions are small but task *results* (and, in the baselines, raw
sensor data) can be hundreds of kilobytes.  :class:`ReliableTransport` splits
a payload into MTU-sized fragments, sends them through the node's router,
reassembles them at the receiver, acknowledges complete transfers and
retransmits after a timeout, giving up after a bounded number of attempts.
The giving-up matters: in a vehicular mesh the peer may simply have driven
away, and the AirDnD orchestrator must treat that as a normal outcome, not an
error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.mesh.messages import DataMessage
from repro.mesh.routing import GreedyGeoRouter
from repro.simcore.simulator import Simulator

#: Maximum bytes of application payload per mesh fragment.
DEFAULT_MTU = 2000


@dataclass
class _Fragment:
    """Wire format of one fragment of a transfer."""

    transfer_id: int
    index: int
    total: int
    payload: Any
    kind: str
    size_bytes: int


@dataclass
class _Ack:
    """Acknowledgement of a fully received transfer."""

    transfer_id: int


@dataclass
class Transfer:
    """Book-keeping for one outgoing transfer."""

    transfer_id: int
    destination: str
    payload: Any
    size_bytes: int
    kind: str
    created_at: float
    on_complete: Optional[Callable[[bool, "Transfer"], None]] = None
    attempts: int = 0
    completed: bool = False
    succeeded: bool = False
    completed_at: Optional[float] = None

    def latency(self) -> Optional[float]:
        """Seconds from creation to completion (None while in flight)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.created_at


class ReliableTransport:
    """Fragmentation + ack + bounded retransmission for one node.

    Parameters
    ----------
    sim:
        Simulator.
    router:
        The node's :class:`GreedyGeoRouter`.
    mtu:
        Fragment payload size in bytes.
    ack_timeout:
        Seconds to wait for an acknowledgement before retrying.
    max_attempts:
        Total tries (first transmission included) before declaring failure.
    """

    def __init__(
        self,
        sim: Simulator,
        router: GreedyGeoRouter,
        mtu: int = DEFAULT_MTU,
        ack_timeout: float = 1.0,
        max_attempts: int = 3,
    ) -> None:
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.sim = sim
        self.router = router
        self.mtu = mtu
        self.ack_timeout = ack_timeout
        self.max_attempts = max_attempts
        self._outgoing: Dict[int, Transfer] = {}
        self._incoming: Dict[int, Dict[int, _Fragment]] = {}
        self._receive_callbacks: List[Callable[[str, str, Any, int], None]] = []
        self.transfers_succeeded = 0
        self.transfers_failed = 0
        router.on_deliver(self._on_message)

    @property
    def node_name(self) -> str:
        """Owning node's name."""
        return self.router.node_name

    def on_receive(self, callback: Callable[[str, str, Any, int], None]) -> None:
        """Register ``callback(source, kind, payload, size_bytes)`` for completed transfers."""
        self._receive_callbacks.append(callback)

    # ---------------------------------------------------------------- send

    def send(
        self,
        destination: str,
        payload: Any,
        size_bytes: int,
        kind: str = "data",
        on_complete: Optional[Callable[[bool, Transfer], None]] = None,
    ) -> Transfer:
        """Start a reliable transfer toward ``destination``."""
        transfer = Transfer(
            transfer_id=self.sim.new_id("transfer"),
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            created_at=self.sim.now,
            on_complete=on_complete,
        )
        self._outgoing[transfer.transfer_id] = transfer
        self._attempt(transfer)
        return transfer

    def _fragments_of(self, transfer: Transfer) -> List[_Fragment]:
        total = max(1, -(-transfer.size_bytes // self.mtu))  # ceil division
        fragments = []
        remaining = transfer.size_bytes
        for index in range(total):
            fragment_size = min(self.mtu, remaining) if remaining > 0 else 0
            remaining -= fragment_size
            fragments.append(
                _Fragment(
                    transfer_id=transfer.transfer_id,
                    index=index,
                    total=total,
                    payload=transfer.payload if index == total - 1 else None,
                    kind=transfer.kind,
                    size_bytes=max(fragment_size, 1),
                )
            )
        return fragments

    def _attempt(self, transfer: Transfer) -> None:
        if transfer.completed:
            return
        transfer.attempts += 1
        for fragment in self._fragments_of(transfer):
            message = DataMessage(
                source=self.node_name,
                destination=transfer.destination,
                kind=transfer.kind,
                payload=fragment,
                size_bytes=fragment.size_bytes + 40,  # fragment header overhead
                message_id=self.sim.new_id("message"),
            )
            self.router.send(message)
        self.sim.schedule(
            self.ack_timeout,
            _TransferTimeout(self, transfer),
            name=f"transfer-timeout-{transfer.transfer_id}",
        )

    # Queued ack-timeout callback as a picklable class (snapshots serialise
    # the event queue, so a lambda here would break the pickle round-trip).

    def _on_timeout(self, transfer: Transfer) -> None:
        if transfer.completed:
            return
        if transfer.attempts >= self.max_attempts:
            transfer.completed = True
            transfer.succeeded = False
            transfer.completed_at = self.sim.now
            self.transfers_failed += 1
            self.sim.monitor.counter("mesh.transfers_failed").add()
            self._outgoing.pop(transfer.transfer_id, None)
            if transfer.on_complete is not None:
                transfer.on_complete(False, transfer)
            return
        self._attempt(transfer)

    # -------------------------------------------------------------- receive

    def _on_message(self, message: DataMessage) -> None:
        payload = message.payload
        if isinstance(payload, _Ack):
            self._on_ack(payload)
            return
        if not isinstance(payload, _Fragment):
            return
        fragments = self._incoming.setdefault(payload.transfer_id, {})
        fragments[payload.index] = payload
        if len(fragments) == payload.total:
            self._complete_incoming(message.source, payload.transfer_id)

    def _complete_incoming(self, source: str, transfer_id: int) -> None:
        fragments = self._incoming.pop(transfer_id)
        any_fragment = next(iter(fragments.values()))
        final = fragments[any_fragment.total - 1]
        total_size = sum(f.size_bytes for f in fragments.values())
        ack = DataMessage(
            source=self.node_name,
            destination=source,
            kind="ack",
            payload=_Ack(transfer_id=transfer_id),
            size_bytes=60,
            message_id=self.sim.new_id("message"),
        )
        self.router.send(ack)
        self.sim.monitor.counter("mesh.transfers_received").add()
        for callback in self._receive_callbacks:
            callback(source, final.kind, final.payload, total_size)

    def _on_ack(self, ack: _Ack) -> None:
        transfer = self._outgoing.pop(ack.transfer_id, None)
        if transfer is None or transfer.completed:
            return
        transfer.completed = True
        transfer.succeeded = True
        transfer.completed_at = self.sim.now
        self.transfers_succeeded += 1
        self.sim.monitor.counter("mesh.transfers_succeeded").add()
        self.sim.monitor.sample("mesh.transfer_latency").add(transfer.latency() or 0.0)
        if transfer.on_complete is not None:
            transfer.on_complete(True, transfer)


class _TransferTimeout:
    """Queued ack-timeout callback for one transfer attempt (picklable)."""

    __slots__ = ("transport", "transfer")

    def __init__(self, transport: ReliableTransport, transfer: Transfer) -> None:
        self.transport = transport
        self.transfer = transfer

    def __call__(self) -> None:
        self.transport._on_timeout(self.transfer)
