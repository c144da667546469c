"""Base class for objects that live inside a simulation."""

from __future__ import annotations

from typing import Optional

from repro.simcore.simulator import Simulator


class SimEntity:
    """Anything with an identity that participates in a simulation.

    Subclasses include vehicles, radios, mesh agents, compute nodes and the
    AirDnD orchestrator nodes.  The base class provides an
    ``entity_id``, unique within its simulation, and a back-reference to the
    :class:`~repro.simcore.simulator.Simulator`.
    """

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        self.sim = sim
        self.entity_id = sim.new_id("entity")
        self.name = name if name is not None else f"{type(self).__name__}-{self.entity_id}"
        sim.register_entity(self)

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"
