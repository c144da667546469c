"""Road networks as directed graphs with geometry.

A :class:`RoadNetwork` holds named junctions with 2-D positions and directed
road segments with lengths and speed limits, in plain dictionaries.  Vehicles
plan routes over this graph and then follow the resulting polyline.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.vector import Vec2


class NoRouteError(Exception):
    """No sequence of roads leads from one junction to the other."""


def _walk(preds: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """Junctions from ``node`` back along ``preds`` to the search root."""
    path = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path


class RoadNetwork:
    """A directed road graph with junction positions and speed limits."""

    def __init__(self) -> None:
        self._positions: Dict[str, Vec2] = {}
        # Successor and predecessor maps of (length, speed_limit), in add_road order.
        self._succ: Dict[str, Dict[str, Tuple[float, float]]] = {}
        self._pred: Dict[str, Dict[str, Tuple[float, float]]] = {}

    # ------------------------------------------------------------ building

    def add_junction(self, name: str, position: Vec2) -> None:
        """Add a named junction at ``position``."""
        self._positions[name] = position
        self._succ.setdefault(name, {})
        self._pred.setdefault(name, {})

    def add_road(
        self,
        src: str,
        dst: str,
        speed_limit: float = 13.9,
        bidirectional: bool = True,
    ) -> None:
        """Add a road between two existing junctions.

        ``speed_limit`` is in m/s (13.9 m/s ≈ 50 km/h).  By default roads are
        added in both directions.
        """
        if src not in self._positions or dst not in self._positions:
            raise KeyError(f"both junctions must exist before adding road {src}->{dst}")
        road = (self.position_of(src).distance_to(self.position_of(dst)), speed_limit)
        self._succ[src][dst] = self._pred[dst][src] = road
        if bidirectional:
            self._succ[dst][src] = self._pred[src][dst] = road

    # ------------------------------------------------------------- queries

    def position_of(self, junction: str) -> Vec2:
        """Position of a junction."""
        return self._positions[junction]

    @property
    def junctions(self) -> List[str]:
        """All junction names."""
        return list(self._positions)

    def road_length(self, src: str, dst: str) -> float:
        """Length of the road from ``src`` to ``dst`` in metres."""
        return self._succ[src][dst][0]

    def speed_limit(self, src: str, dst: str) -> float:
        """Speed limit of the road from ``src`` to ``dst`` in m/s."""
        return self._succ[src][dst][1]

    def neighbors(self, junction: str) -> List[str]:
        """Junctions reachable by one road from ``junction``."""
        return list(self._succ[junction])

    # -------------------------------------------------------------- routing

    def shortest_path(self, src: str, dst: str) -> List[str]:
        """Shortest path (by road length) between two junctions.

        Bidirectional Dijkstra; its direction alternation and one tie counter
        for both heaps pick among a grid's equal routes.  Raises ``KeyError``
        for an unknown junction, :class:`NoRouteError` for an unreachable one.
        """
        if src not in self._positions or dst not in self._positions:
            raise KeyError(f"unknown junction in route {src}->{dst}")
        if src == dst:
            return [src]
        roads = (self._succ, self._pred)
        dists: Tuple[Dict[str, float], ...] = ({}, {})
        seen: Tuple[Dict[str, float], ...] = ({src: 0}, {dst: 0})
        preds: Tuple[Dict[str, Optional[str]], ...] = ({src: None}, {dst: None})
        tiebreak = count()
        fringe = ([(0, next(tiebreak), src)], [(0, next(tiebreak), dst)])
        best, meet, direction = None, None, 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                return _walk(preds[0], meet)[::-1] + _walk(preds[1], preds[1][meet])
            for w, (length, _) in roads[direction][v].items():
                if w in dists[direction]:
                    continue
                reach = dist + length
                if w not in seen[direction] or reach < seen[direction][w]:
                    seen[direction][w] = reach
                    heappush(fringe[direction], (reach, next(tiebreak), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = reach + seen[1 - direction][w]
                        if best is None or best > total:
                            best, meet = total, w
        raise NoRouteError(f"no road path from {src} to {dst}")

    def path_to_polyline(self, path: Sequence[str]) -> List[Vec2]:
        """Convert a junction path to the sequence of waypoint positions."""
        return [self.position_of(junction) for junction in path]

    def random_route(
        self,
        rng: np.random.Generator,
        min_hops: int = 2,
        start: Optional[str] = None,
    ) -> List[str]:
        """Pick a random origin/destination pair and return the path.

        Retries until a path with at least ``min_hops`` edges is found (or
        gives up after a bounded number of attempts and returns the best
        found).
        """
        junctions = self.junctions
        if len(junctions) < 2:
            raise ValueError("need at least two junctions to build a route")
        best: List[str] = []
        for _ in range(64):
            origin = start if start is not None else junctions[int(rng.integers(len(junctions)))]
            dest = junctions[int(rng.integers(len(junctions)))]
            if dest == origin:
                continue
            try:
                path = self.shortest_path(origin, dest)
            except NoRouteError:
                continue
            if len(path) - 1 >= min_hops:
                return path
            if len(path) > len(best):
                best = path
        if not best:
            raise ValueError("could not find any route in the road network")
        return best


def manhattan_grid(
    rows: int = 4,
    cols: int = 4,
    spacing: float = 200.0,
    speed_limit: float = 13.9,
) -> RoadNetwork:
    """Build a Manhattan-style grid of ``rows`` x ``cols`` junctions.

    Junctions are named ``"r{i}c{j}"`` and connected to their 4-neighbours by
    bidirectional roads of length ``spacing`` metres.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    network = RoadNetwork()
    for i in range(rows):
        for j in range(cols):
            network.add_junction(f"r{i}c{j}", Vec2(j * spacing, i * spacing))
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                network.add_road(f"r{i}c{j}", f"r{i}c{j + 1}", speed_limit)
            if i + 1 < rows:
                network.add_road(f"r{i}c{j}", f"r{i + 1}c{j}", speed_limit)
    return network


def single_intersection(
    arm_length: float = 200.0,
    speed_limit: float = 13.9,
) -> RoadNetwork:
    """Build a single four-way intersection centred at the origin.

    Junction names: ``center``, ``north``, ``south``, ``east``, ``west``.
    This is the road layout of the "looking around the corner" scenario: an
    occluding building sits in one quadrant so vehicles on crossing arms
    cannot see each other directly.
    """
    network = RoadNetwork()
    network.add_junction("center", Vec2(0.0, 0.0))
    network.add_junction("north", Vec2(0.0, arm_length))
    network.add_junction("south", Vec2(0.0, -arm_length))
    network.add_junction("east", Vec2(arm_length, 0.0))
    network.add_junction("west", Vec2(-arm_length, 0.0))
    for arm in ("north", "south", "east", "west"):
        network.add_road("center", arm, speed_limit)
    return network
