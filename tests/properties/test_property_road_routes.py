"""Property tests: ``RoadNetwork.shortest_path`` ≡ networkx's route.

Urban-grid vehicles route with :meth:`RoadNetwork.shortest_path`, a
bidirectional Dijkstra over the network's own successor and predecessor
maps.  On a Manhattan grid most origin/destination pairs have several
routes of equal length, so the route returned — and with it every
urban-grid report — depends on the search's expansion and tie order, not
just on the distances.  The reference is ``nx.shortest_path(...,
weight="length")`` on an ``nx.DiGraph`` given the same junctions and roads
in the same order (what the network was built on before).  Every ordered
pair must give the same path, or the same failure:

* ``manhattan_grid`` sizes from 2×2 to 10×10, at spacings whose lengths tie
  exactly (200, 150) and with rounding (97.3);
* random one-way subsets of those grids, which add unreachable pairs;
* ``single_intersection``.
"""

from contextlib import contextmanager
from itertools import product
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.vector import Vec2
from repro.mobility import road_network
from repro.mobility.road_network import (
    NoRouteError,
    RoadNetwork,
    manhattan_grid,
    single_intersection,
)

SPACINGS = (200.0, 150.0, 97.3)


class RecordingNetwork(RoadNetwork):
    """A road network that replays every junction and road onto a DiGraph."""

    def __init__(self) -> None:
        super().__init__()
        self.graph = nx.DiGraph()

    def add_junction(self, name, position):
        super().add_junction(name, position)
        self.graph.add_node(name, position=position)

    def add_road(self, src, dst, speed_limit=13.9, bidirectional=True):
        super().add_road(src, dst, speed_limit, bidirectional)
        length = self.road_length(src, dst)
        self.graph.add_edge(src, dst, length=length, speed_limit=speed_limit)
        if bidirectional:
            self.graph.add_edge(dst, src, length=length, speed_limit=speed_limit)


@contextmanager
def recording():
    """Make the module's builders construct :class:`RecordingNetwork`."""
    with mock.patch.object(road_network, "RoadNetwork", RecordingNetwork):
        yield


def route_or_failure(route, src, dst, no_path):
    try:
        return route(src, dst)
    except no_path:
        return None


def assert_routes_match(network):
    """Compare every ordered pair; return how many were self, routed, unreachable."""
    kinds = {"self": 0, "routed": 0, "unreachable": 0}
    for src, dst in product(network.junctions, repeat=2):
        ours = route_or_failure(network.shortest_path, src, dst, NoRouteError)
        reference = route_or_failure(
            lambda s, t: nx.shortest_path(network.graph, s, t, weight="length"),
            src,
            dst,
            nx.NetworkXNoPath,
        )
        assert ours == reference, (src, dst)
        kinds["self" if src == dst else "routed" if ours else "unreachable"] += 1
    return kinds


def grid_roads(rows, cols):
    """The (src, dst) roads ``manhattan_grid`` adds, in its order."""
    roads = []
    for i, j in product(range(rows), range(cols)):
        if j + 1 < cols:
            roads.append((f"r{i}c{j}", f"r{i}c{j + 1}"))
        if i + 1 < rows:
            roads.append((f"r{i}c{j}", f"r{i + 1}c{j}"))
    return roads


@pytest.mark.parametrize("spacing", SPACINGS)
@pytest.mark.parametrize(
    "rows, cols", [(n, n) for n in range(2, 11)] + [(3, 5), (5, 3), (2, 7)]
)
def test_grid_routes_match_networkx(rows, cols, spacing):
    with recording():
        grid = manhattan_grid(rows, cols, spacing=spacing)
    junctions = rows * cols
    kinds = assert_routes_match(grid)
    assert kinds == {"self": junctions, "routed": junctions * (junctions - 1), "unreachable": 0}


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(2, 10),
    cols=st.integers(2, 10),
    spacing=st.sampled_from(SPACINGS),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_way_subgrid_routes_match_networkx(rows, cols, spacing, seed):
    # Each grid road is kept both ways, one way either way, or dropped.
    rng = np.random.default_rng(seed)
    network = RecordingNetwork()
    for i, j in product(range(rows), range(cols)):
        network.add_junction(f"r{i}c{j}", Vec2(j * spacing, i * spacing))
    for src, dst in grid_roads(rows, cols):
        choice = int(rng.integers(4))
        if choice == 1:
            network.add_road(src, dst, bidirectional=False)
        elif choice == 2:
            network.add_road(dst, src, bidirectional=False)
        elif choice == 3:
            network.add_road(src, dst)
    assert_routes_match(network)


def test_one_way_subgrids_cover_every_pair_kind():
    # A fixed one-way 3x3 grid: a ring of one-way roads around the centre
    # junction, which is connected only outwards.
    network = RecordingNetwork()
    for i, j in product(range(3), range(3)):
        network.add_junction(f"r{i}c{j}", Vec2(j * 100.0, i * 100.0))
    ring = ["r0c0", "r0c1", "r0c2", "r1c2", "r2c2", "r2c1", "r2c0", "r1c0"]
    for src, dst in zip(ring, ring[1:] + ring[:1]):
        network.add_road(src, dst, bidirectional=False)
    network.add_road("r1c1", "r0c1", bidirectional=False)
    kinds = assert_routes_match(network)
    assert kinds == {"self": 9, "routed": 8 * 7 + 8, "unreachable": 8}


def test_single_intersection_routes_match_networkx():
    for arm_length in (200.0, 97.3):
        with recording():
            assert_routes_match(single_intersection(arm_length=arm_length))


def test_unknown_junction_raises_key_error():
    network = manhattan_grid(2, 2)
    with pytest.raises(KeyError):
        network.shortest_path("r0c0", "nowhere")
    with pytest.raises(KeyError):
        network.shortest_path("nowhere", "r0c0")
    with pytest.raises(KeyError):
        network.shortest_path("nowhere", "nowhere")


def test_unreachable_pair_raises_no_route_error():
    network = RoadNetwork()
    network.add_junction("a", Vec2(0.0, 0.0))
    network.add_junction("b", Vec2(100.0, 0.0))
    network.add_junction("island", Vec2(0.0, 100.0))
    network.add_road("a", "b", bidirectional=False)
    assert network.shortest_path("a", "b") == ["a", "b"]
    with pytest.raises(NoRouteError):
        network.shortest_path("b", "a")
    with pytest.raises(NoRouteError):
        network.shortest_path("a", "island")
    # random_route skips unreachable destinations rather than failing on them.
    with pytest.raises(ValueError, match="could not find any route"):
        network.random_route(np.random.default_rng(0), start="b")
    assert network.random_route(np.random.default_rng(0), min_hops=1, start="a") == ["a", "b"]
