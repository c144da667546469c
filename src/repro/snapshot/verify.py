"""Byte-identity verification helper: the fleet-wide delivered-frame log.

A restored simulation is *the same* simulation when its snapshot bytes equal
the uninterrupted run's: the bytes cover every pickled field, and equal
state gives equal bytes (:mod:`repro.snapshot.codec`).  The state keeps only
aggregates of the run's history, so :class:`DeliveredFrameLog` records the
history itself, every delivered frame fleet-wide.  Attached before a run,
it travels with snapshots, so a restored run keeps appending to the same
log; an uninterrupted run and a snapshot/restore run must produce equal
records.

Broadcast arrivals reach the taps when each receiver commits them, not in
the order they fired, so the log keeps each arrival's sequence number and
reads out in ``(time, sequence)`` order: the order the event loop fired
the arrivals in.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Tuple

#: One delivered frame: (time, sender, receiver, snr_db, rate_bps).
#: Frame ids are left out: a record holds what the receiver observed, and
#: the id numbering is simulator state, which the snapshot bytes cover.
FrameRecord = Tuple[float, str, str, float, float]

_ARRIVAL_KEY = itemgetter(0, 1)


class _InterfaceTap:
    """Picklable per-node frame tap feeding one shared log."""

    __slots__ = ("log", "receiver")

    def __init__(self, log: "DeliveredFrameLog", receiver: str) -> None:
        self.log = log
        self.receiver = receiver

    def __call__(
        self, frame: Any, time: float, sequence: int, snr_db: float, rate_bps: float
    ) -> None:
        self.log._arrivals.append(
            (time, sequence, frame.sender, self.receiver, snr_db, rate_bps)
        )


class DeliveredFrameLog:
    """Fleet-wide delivered-frame recorder that survives snapshots.

    Once attached, the log is part of the scenario's object graph, so its
    records are in the scenario's snapshot bytes too.
    """

    def __init__(self) -> None:
        #: ``(time, sequence, sender, receiver, snr_db, rate_bps)`` in the
        #: order the taps saw them.
        self._arrivals: List[tuple] = []

    def __getstate__(self) -> dict:
        # Canonical order: when each receiver committed depends on how the
        # run was sliced, the arrival keys do not.
        return {"_arrivals": sorted(self._arrivals, key=_ARRIVAL_KEY)}

    @property
    def records(self) -> List[FrameRecord]:
        """Every delivered frame so far, in ``(time, sequence)`` order."""
        return [
            (time, sender, receiver, snr_db, rate_bps)
            for time, _, sender, receiver, snr_db, rate_bps in sorted(
                self._arrivals, key=_ARRIVAL_KEY
            )
        ]

    def attach(self, scenario: Any) -> "DeliveredFrameLog":
        """Tap every node's radio interface in ``scenario``; returns self.

        The taps are registered through each node's mesh stack, which
        keeps them across crash restarts.  They only observe, so the run is
        unchanged.
        """
        for node in scenario.nodes:
            node.mesh.on_frame(_InterfaceTap(self, node.name))
        return self

    @staticmethod
    def find(scenario: Any) -> "DeliveredFrameLog":
        """Locate the log attached to a (possibly restored) scenario."""
        for node in scenario.nodes:
            for callback in node.mesh._frame_taps:
                if isinstance(callback, _InterfaceTap):
                    return callback.log
        raise LookupError("scenario has no attached DeliveredFrameLog")

