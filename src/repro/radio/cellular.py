"""Cellular (Uu) connectivity to a cloud endpoint.

The centralised baselines send raw sensor data to a cloud server over the
cellular network and receive results back.  The model is intentionally
simple: a per-node uplink/downlink rate, a core-network round-trip latency,
and a cloud compute capacity shared by all tenants.  These are exactly the
costs the AirDnD vision argues should be avoided by keeping data where it was
generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.simcore.simulator import Simulator


@dataclass
class CloudEndpoint:
    """The remote data centre reachable over cellular.

    Attributes
    ----------
    compute_rate_ops:
        Operations per second available to each offloaded task (the cloud is
        assumed to scale out, so tasks do not queue on each other unless
        ``shared_capacity`` is set).
    shared_capacity:
        Optional cap on concurrently executing tasks; extra tasks queue FIFO.
    """

    compute_rate_ops: float = 2e11
    shared_capacity: Optional[int] = None


class CellularNetwork:
    """Uplink/downlink transfers between nodes and a :class:`CloudEndpoint`.

    Parameters
    ----------
    sim:
        The simulator used for the virtual clock.
    uplink_bps / downlink_bps:
        Per-node radio-access rates.
    core_latency:
        One-way latency (seconds) through the radio access + core network to
        the cloud (typically 20–50 ms).
    """

    def __init__(
        self,
        sim: Simulator,
        cloud: Optional[CloudEndpoint] = None,
        uplink_bps: float = 20e6,
        downlink_bps: float = 60e6,
        core_latency: float = 0.035,
    ) -> None:
        self.sim = sim
        self.cloud = cloud or CloudEndpoint()
        self.uplink_bps = uplink_bps
        self.downlink_bps = downlink_bps
        self.core_latency = core_latency
        self.bytes_uplinked = 0
        self.bytes_downlinked = 0
        self._active_cloud_tasks = 0
        self._queue: list = []

    # ------------------------------------------------------------ transfers

    def uplink_time(self, size_bytes: float) -> float:
        """Seconds to push ``size_bytes`` to the cloud."""
        return self.core_latency + (size_bytes * 8) / self.uplink_bps

    def downlink_time(self, size_bytes: float) -> float:
        """Seconds to pull ``size_bytes`` from the cloud."""
        return self.core_latency + (size_bytes * 8) / self.downlink_bps

    def upload(
        self, size_bytes: float, on_complete: Callable[[], Any], kind: str = "data"
    ) -> int:
        """Start an uplink transfer; ``on_complete`` fires when it finishes."""
        transfer_id = self.sim.new_id("cellular_transfer")
        self.bytes_uplinked += size_bytes
        monitor = self.sim.monitor
        monitor.counter("cellular.bytes_uplinked").add(size_bytes)
        monitor.counter(f"cellular.bytes.{kind}").add(size_bytes)
        self.sim.schedule(self.uplink_time(size_bytes), on_complete, name="cellular-up")
        return transfer_id

    def download(
        self, size_bytes: float, on_complete: Callable[[], Any], kind: str = "result"
    ) -> int:
        """Start a downlink transfer; ``on_complete`` fires when it finishes."""
        transfer_id = self.sim.new_id("cellular_transfer")
        self.bytes_downlinked += size_bytes
        monitor = self.sim.monitor
        monitor.counter("cellular.bytes_downlinked").add(size_bytes)
        monitor.counter(f"cellular.bytes.{kind}").add(size_bytes)
        self.sim.schedule(
            self.downlink_time(size_bytes), on_complete, name="cellular-down"
        )
        return transfer_id

    # ---------------------------------------------------------- cloud tasks

    def execute_in_cloud(
        self, operations: float, on_complete: Callable[[], Any]
    ) -> None:
        """Run ``operations`` on the cloud endpoint, honouring its capacity."""
        duration = operations / self.cloud.compute_rate_ops

        def _finish() -> None:
            self._active_cloud_tasks -= 1
            self._drain_queue()
            on_complete()

        def _start() -> None:
            self._active_cloud_tasks += 1
            self.sim.schedule(duration, _finish, name="cloud-exec")

        if (
            self.cloud.shared_capacity is not None
            and self._active_cloud_tasks >= self.cloud.shared_capacity
        ):
            self._queue.append(_start)
        else:
            _start()

    def _drain_queue(self) -> None:
        while self._queue and (
            self.cloud.shared_capacity is None
            or self._active_cloud_tasks < self.cloud.shared_capacity
        ):
            start = self._queue.pop(0)
            start()

    # -------------------------------------------------------------- metrics

    def total_bytes(self) -> float:
        """Total bytes moved over the cellular network in either direction."""
        return self.bytes_uplinked + self.bytes_downlinked
