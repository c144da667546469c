"""Tests for road networks."""

import numpy as np
import pytest

from repro.geometry.vector import Vec2
from repro.mobility.road_network import RoadNetwork, manhattan_grid, single_intersection


def test_add_junction_and_road():
    net = RoadNetwork()
    net.add_junction("a", Vec2(0, 0))
    net.add_junction("b", Vec2(100, 0))
    net.add_road("a", "b", speed_limit=20.0)
    assert net.road_length("a", "b") == 100.0
    assert net.road_length("b", "a") == 100.0   # bidirectional by default
    assert net.speed_limit("a", "b") == 20.0
    assert "b" in net.neighbors("a")


def test_add_road_requires_existing_junctions():
    net = RoadNetwork()
    net.add_junction("a", Vec2(0, 0))
    with pytest.raises(KeyError):
        net.add_road("a", "missing")


def test_one_way_road():
    net = RoadNetwork()
    net.add_junction("a", Vec2(0, 0))
    net.add_junction("b", Vec2(10, 0))
    net.add_road("a", "b", bidirectional=False)
    assert net.neighbors("a") == ["b"]
    assert net.neighbors("b") == []


def test_shortest_path_prefers_shorter_route():
    net = RoadNetwork()
    net.add_junction("a", Vec2(0, 0))
    net.add_junction("b", Vec2(100, 0))
    net.add_junction("c", Vec2(50, 10))
    net.add_road("a", "b")
    net.add_road("a", "c")
    net.add_road("c", "b")
    assert net.shortest_path("a", "b") == ["a", "b"]


def test_manhattan_grid_structure():
    grid = manhattan_grid(rows=3, cols=4, spacing=100.0)
    assert len(grid.junctions) == 12
    assert grid.position_of("r0c0") == Vec2(0, 0)
    assert grid.position_of("r2c3") == Vec2(300, 200)
    path = grid.shortest_path("r0c0", "r2c3")
    assert len(path) - 1 == 5  # Manhattan distance in hops


def test_manhattan_grid_rejects_tiny_dimensions():
    with pytest.raises(ValueError):
        manhattan_grid(rows=1, cols=3)


def test_single_intersection_layout():
    net = single_intersection(arm_length=150.0)
    assert set(net.junctions) == {"center", "north", "south", "east", "west"}
    assert net.position_of("north") == Vec2(0, 150)
    assert net.shortest_path("south", "north") == ["south", "center", "north"]


def test_random_route_has_min_hops():
    grid = manhattan_grid(4, 4)
    rng = np.random.default_rng(0)
    for _ in range(5):
        path = grid.random_route(rng, min_hops=3)
        assert len(path) - 1 >= 3


def test_path_to_polyline():
    net = single_intersection(arm_length=100.0)
    polyline = net.path_to_polyline(["west", "center", "east"])
    assert polyline == [Vec2(-100, 0), Vec2(0, 0), Vec2(100, 0)]
