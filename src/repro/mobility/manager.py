"""The mobility manager: one clock tick moves every mobile node.

The manager owns the list of mobile nodes (anything with ``position`` and an
``advance(dt)`` method), advances them on a fixed period, writes their
positions into a shared :class:`~repro.geometry.substrate.SpatialSubstrate`
for range queries, and optionally records trajectories.

The substrate is the *single* spatial structure for the whole simulation:
binding this manager to a :class:`~repro.radio.interfaces.RadioEnvironment`
makes the radio layer query the same grid read-only, so the per-tick
position sync here serves both mobility neighbour queries and radio
broadcast candidate lookup — there is no second mirror pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.geometry.spatial_index import SpatialGrid
from repro.geometry.substrate import SpatialSubstrate
from repro.geometry.vector import Vec2
from repro.simcore.simulator import Simulator
from repro.mobility.traces import TrajectoryTrace


class MobilityManager:
    """Advances all registered mobile nodes on a fixed tick.

    Parameters
    ----------
    sim:
        The simulation to schedule ticks on.
    tick:
        Seconds of virtual time between mobility updates.
    cell_size:
        Cell size of the spatial index (metres); pick ~ the radio range.
    record_traces:
        Whether to keep a :class:`TrajectoryTrace` per node.
    """

    def __init__(
        self,
        sim: Simulator,
        tick: float = 0.1,
        cell_size: float = 150.0,
        record_traces: bool = False,
    ) -> None:
        if tick <= 0:
            raise ValueError("tick must be positive")
        self.sim = sim
        self.tick = tick
        #: The shared spatial substrate this manager writes.  Consumers (the
        #: radio environment, scenario logic) query it read-only and key
        #: their caches on its ``position_epoch``.
        self.substrate: SpatialSubstrate = SpatialSubstrate(cell_size=cell_size)
        self.record_traces = record_traces
        self.traces: Dict[str, TrajectoryTrace] = {}
        self._nodes: Dict[str, object] = {}
        self._listeners: List[Callable[[float], None]] = []
        self._task = sim.schedule_periodic(
            tick, self._on_tick, start_delay=tick, name="mobility-tick"
        )

    # ----------------------------------------------------- substrate facade

    @property
    def grid(self) -> SpatialGrid:
        """The substrate's underlying grid (kept for backwards compatibility)."""
        return self.substrate.grid

    # ---------------------------------------------------------- membership

    def add_node(self, node) -> None:
        """Register a mobile node (must expose ``name``, ``position``, ``advance``)."""
        if node.name in self._nodes:
            raise ValueError(f"duplicate mobile node name {node.name!r}")
        self._nodes[node.name] = node
        self.substrate.update(node.name, node.position)
        if self.record_traces:
            trace = TrajectoryTrace(node.name)
            trace.record(self.sim.now, node.position, getattr(node, "speed", 0.0))
            self.traces[node.name] = trace

    def remove_node(self, name: str) -> None:
        """Deregister a node (e.g. a vehicle leaving the simulated area)."""
        self._nodes.pop(name, None)
        self.substrate.remove(name)

    @property
    def nodes(self) -> List[object]:
        """All registered mobile nodes."""
        return list(self._nodes.values())

    def node(self, name: str):
        """Look up a node by name."""
        return self._nodes[name]

    def has_node(self, name: str) -> bool:
        """Whether a node of that name is currently registered.

        Used by the fault injector to decide whether a crash must also pull
        the node out of the mobility substrate (and a recovery put it back).
        """
        return name in self._nodes

    def position_of(self, name: str) -> Vec2:
        """Current position of a node."""
        return self._nodes[name].position

    # ------------------------------------------------------------ listeners

    def on_tick(self, callback: Callable[[float], None]) -> None:
        """Register a callback invoked after every mobility update."""
        self._listeners.append(callback)

    # -------------------------------------------------------------- queries

    def neighbors_within(self, name: str, radius: float) -> List[str]:
        """Names of nodes within ``radius`` metres of node ``name``."""
        return self.substrate.neighbors_of(name, radius)

    def nodes_within(self, center: Vec2, radius: float) -> List[str]:
        """Names of nodes within ``radius`` metres of an arbitrary point."""
        return self.substrate.query_range(center, radius)

    def stop(self) -> None:
        """Stop advancing nodes (used when tearing a scenario down)."""
        self._task.cancel()

    # ---------------------------------------------------------------- tick

    def _on_tick(self) -> None:
        now = self.sim.now
        substrate = self.substrate
        for node in self._nodes.values():
            node.advance(self.tick)
            substrate.update(node.name, node.position)
            if self.record_traces:
                self.traces[node.name].record(
                    now, node.position, getattr(node, "speed", 0.0)
                )
        substrate.commit()
        self.sim.monitor.gauge("mobility.active_nodes").set(len(self._nodes))
        for listener in self._listeners:
            listener(now)
