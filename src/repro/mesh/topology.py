"""Global topology snapshots for evaluation.

The mesh itself is fully decentralised; this module is the *observer* used by
the benchmark harness to quantify what the decentralised protocol achieved:
how many connected components exist, how large they are, how long links live,
and how quickly the mesh forms and dissolves as vehicles move (experiment
E3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.mesh.discovery import BeaconAgent
from repro.simcore.simulator import Simulator

Edge = Tuple[str, str]


class TopologySnapshot:
    """The mesh graph at one instant, with derived statistics.

    ``nodes`` lists every node once, in observation order; ``edges`` holds
    each undirected link once, as a name-sorted pair.  Components come from
    one union-find pass, computed on first use and cached.
    """

    def __init__(self, time: float, nodes: Iterable[str], edges: Set[Edge]) -> None:
        self.time = time
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.edges = edges
        self._components: Optional[List[FrozenSet[str]]] = None

    def __getstate__(self) -> dict:
        # Edges pickle as a sorted tuple (set layout varies with the hash
        # seed); the component cache is rebuilt on demand.
        return {
            "time": self.time,
            "nodes": self.nodes,
            "edges": tuple(sorted(self.edges)),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["time"], state["nodes"], set(state["edges"]))

    @property
    def node_count(self) -> int:
        """Number of nodes in the snapshot."""
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        """Number of links (bidirectionally confirmed unless the observer
        was told otherwise)."""
        return len(self.edges)

    def _component_sets(self) -> List[FrozenSet[str]]:
        components = self._components
        if components is None:
            # Union-find, inlined: after each union both endpoints point
            # straight at the merged root, which keeps the trees flat.
            parent = {node: node for node in self.nodes}
            for a, b in self.edges:
                root_a = parent[a]
                while root_a != parent[root_a]:
                    root_a = parent[root_a]
                root_b = parent[b]
                while root_b != parent[root_b]:
                    root_b = parent[root_b]
                parent[root_b] = parent[a] = parent[b] = root_a
            members: Dict[str, List[str]] = {}
            for node in self.nodes:
                root = node
                while root != parent[root]:
                    root = parent[root]
                members.setdefault(root, []).append(node)
            components = [frozenset(group) for group in members.values()]
            self._components = components
        return components

    def components(self) -> List[set]:
        """Connected components (each is a set of node names), ordered by
        their first node."""
        return [set(component) for component in self._component_sets()]

    def largest_component_size(self) -> int:
        """Size of the largest connected component (0 for empty graph)."""
        return max(map(len, self._component_sets()), default=0)

    def mean_degree(self) -> float:
        """Average node degree."""
        n = len(self.nodes)
        if n == 0:
            return 0.0
        return 2.0 * len(self.edges) / n

    def is_connected(self) -> bool:
        """Whether every node can reach every other node over the mesh."""
        return len(self._component_sets()) == 1


class TopologyObserver:
    """Periodically snapshots the union of all nodes' neighbour tables.

    Only the latest snapshot is kept whole; every tick leaves one summary
    row, and ended links leave only their running lifetime sum.
    """

    def __init__(
        self,
        sim: Simulator,
        agents: Sequence[BeaconAgent],
        period: float = 1.0,
        require_bidirectional: bool = True,
    ) -> None:
        self.sim = sim
        self.agents = list(agents)
        self.require_bidirectional = require_bidirectional
        self._latest: Optional[TopologySnapshot] = None
        #: One ``(time, nodes, edges, largest component)`` row per tick.
        self.rows: List[Tuple[float, int, int, int]] = []
        self._link_first_seen: Dict[Tuple[str, str], float] = {}
        # Lifetimes of ended links, summed in the order they end.
        self._lifetime_total = 0.0
        self._links_ended = 0
        self._task = sim.schedule_periodic(period, self.take_snapshot, name="topology")

    def replace_agent(self, agent: BeaconAgent) -> None:
        """Swap in a rebuilt agent for the same node name (crash recovery).

        A recovered node gets a brand-new beacon agent; the old one's frozen
        neighbour table must stop contributing to snapshots.
        """
        name = agent.interface.node_name
        self.agents = [
            existing
            for existing in self.agents
            if existing.interface.node_name != name
        ]
        self.agents.append(agent)

    def stop(self) -> None:
        """Stop periodic snapshotting."""
        self._task.cancel()

    # ------------------------------------------------------------ snapshots

    def take_snapshot(self) -> TopologySnapshot:
        """Build a snapshot now; it replaces the latest one."""
        now = self.sim.now
        heard: Dict[str, List[str]] = {}
        for agent in self.agents:
            # Age-filtered: a silent (e.g. crashed) peer stops contributing
            # edges once past the neighbour lifetime, even between the
            # owner's periodic expiry sweeps.
            heard.setdefault(agent.interface.node_name, []).extend(
                agent.neighbors.active_names(now)
            )
        nodes: Dict[str, None] = dict.fromkeys(heard)
        if self.require_bidirectional:
            # Each confirmed link is seen from both ends; keep it from the
            # end whose name sorts first.
            heard_sets = {owner: set(names) for owner, names in heard.items()}
            empty: Set[str] = set()
            edges = {
                (a, b)
                for a, names in heard.items()
                for b in names
                if a <= b and a in heard_sets.get(b, empty)
            }
        else:
            for names in heard.values():
                nodes.update(dict.fromkeys(names))
            edges = {
                (a, b) if a <= b else (b, a)
                for a, names in heard.items()
                for b in names
            }
        snapshot = TopologySnapshot(now, nodes, edges)
        self._update_link_lifetimes(snapshot)
        self._latest = snapshot
        largest = snapshot.largest_component_size()
        self.rows.append((now, snapshot.node_count, snapshot.edge_count, largest))
        monitor = self.sim.monitor
        monitor.gauge("mesh.largest_component").set(largest)
        monitor.gauge("mesh.edge_count").set(snapshot.edge_count)
        return snapshot

    def _update_link_lifetimes(self, snapshot: TopologySnapshot) -> None:
        current = snapshot.edges
        known = set(self._link_first_seen)
        # Walk the differences sorted, not in hash order: they set the order
        # of _link_first_seen (pickled) and of the lifetime float sum.
        for link in sorted(current - known):
            self._link_first_seen[link] = snapshot.time
        for link in sorted(known - current):
            start = self._link_first_seen.pop(link)
            self._lifetime_total += snapshot.time - start
            self._links_ended += 1

    # ------------------------------------------------------------- analysis

    def latest(self) -> Optional[TopologySnapshot]:
        """Most recent snapshot, or ``None`` before the first tick."""
        return self._latest

    def mean_link_lifetime(self) -> float:
        """Average observed lifetime of links that have already ended."""
        if not self._links_ended:
            return 0.0
        return self._lifetime_total / self._links_ended

    def formation_time(self, min_size: int) -> Optional[float]:
        """First time the largest component reached ``min_size`` nodes."""
        for time, _nodes, _edges, largest in self.rows:
            if largest >= min_size:
                return time
        return None
