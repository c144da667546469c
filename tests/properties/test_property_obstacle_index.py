"""Property tests: indexed line-of-sight ≡ the brute-force obstacle scan.

The :class:`~repro.geometry.obstacle_index.ObstacleIndex` promises *exact*
equivalence with :func:`~repro.geometry.los.line_of_sight` for any ray, not
just typical ones.  Randomised obstacle fields and ray endpoints are the
cheap way to hold it to that — with the adversarial cases (rays along cell
boundaries, rays through cell corners, zero-length rays, endpoints on
obstacle boundaries) forced explicitly as well as left to chance.
"""

import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import obstacle_index
from repro.geometry.los import VisibilityMap, line_of_sight
from repro.geometry.obstacle_index import ObstacleIndex
from repro.geometry.shapes import Polygon, Rectangle
from repro.geometry.vector import Vec2
from tests.oracle import BruteForceVisibility

CELL = 20.0

coords = st.floats(
    min_value=-200.0, max_value=200.0, allow_nan=False, allow_infinity=False,
    allow_subnormal=False,
)
points = st.builds(Vec2, coords, coords)

# Axis-aligned rectangles (the typical building footprint) ...
rectangles = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    coords, coords,
    st.floats(min_value=0.5, max_value=80.0),
    st.floats(min_value=0.5, max_value=80.0),
)
# ... plus arbitrary triangles so non-axis-aligned edges are covered too.
triangles = st.builds(
    lambda a, b, c: Polygon([a, b, c]),
    points, points, points,
).filter(lambda p: p.area() > 1e-6)

obstacle_fields = st.lists(st.one_of(rectangles, triangles), min_size=0, max_size=12)


def assert_equivalent(obstacles, a, b):
    index = ObstacleIndex(obstacles, cell_size=CELL)
    assert index.blocked(a, b) == (not line_of_sight(a, b, obstacles)), (
        f"indexed LOS diverges from brute force for ray {a} -> {b}"
    )


@settings(max_examples=300, deadline=None)
@given(obstacle_fields, points, points)
def test_indexed_los_matches_bruteforce_on_random_rays(obstacles, a, b):
    assert_equivalent(obstacles, a, b)


@settings(max_examples=200, deadline=None)
@given(
    obstacle_fields,
    st.integers(min_value=-10, max_value=10),
    coords,
    coords,
    coords,
)
def test_rays_along_cell_boundaries(obstacles, cell_line, y0, y1, x_free):
    """Rays lying exactly on a grid line (both orientations) stay exact."""
    boundary = cell_line * CELL
    assert_equivalent(obstacles, Vec2(boundary, y0), Vec2(boundary, y1))
    assert_equivalent(obstacles, Vec2(y0, boundary), Vec2(y1, boundary))
    # A ray starting exactly on a cell corner, ending anywhere.
    assert_equivalent(obstacles, Vec2(boundary, boundary), Vec2(x_free, y1))


@settings(max_examples=200, deadline=None)
@given(obstacle_fields, points)
def test_zero_length_rays(obstacles, a):
    """A degenerate ray reduces to a point-in-obstacle test."""
    assert_equivalent(obstacles, a, a)


@settings(max_examples=150, deadline=None)
@given(obstacle_fields, st.data())
def test_rays_touching_obstacle_corners_and_edges(obstacles, data):
    """Endpoints sampled on obstacle boundaries hit the epsilon edge cases."""
    if not obstacles:
        return
    polygon = data.draw(st.sampled_from(obstacles))
    vertices = list(polygon.vertices)
    a = data.draw(st.sampled_from(vertices))
    t = data.draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    edge = data.draw(st.sampled_from(polygon.edges()))
    b = edge.point_at(t)
    assert_equivalent(obstacles, a, b)
    other = data.draw(points)
    assert_equivalent(obstacles, b, other)


@settings(max_examples=100, deadline=None)
@given(obstacle_fields, points, points)
def test_visibility_map_flag_paths_agree(obstacles, a, b):
    """The indexed map answers every query like the brute-force oracle."""
    indexed = VisibilityMap(obstacles)
    brute = BruteForceVisibility(obstacles)
    assert indexed.has_line_of_sight(a, b) == brute.has_line_of_sight(a, b)
    targets = [b, a, Vec2(b.x, a.y), Vec2(a.x, b.y)]
    assert indexed.line_of_sight_batch(a, targets) == brute.line_of_sight_batch(
        a, targets
    )
    assert indexed.visible_fraction(a, targets) == brute.visible_fraction(a, targets)
    assert indexed.visible_targets(a, targets, max_range=250.0) == brute.visible_targets(
        a, targets, max_range=250.0
    )


# The inlined orientation tests in ``ObstacleIndex.blocked`` hand any
# near-collinear edge (an orientation value inside the collinearity band
# plus its rounding bound) to the segment primitive.  The three properties
# below aim rays straight at that fallback.

offsets = st.floats(min_value=-1.0, max_value=2.0, allow_nan=False)


@settings(max_examples=150)
@given(obstacle_fields, st.data(), offsets, offsets)
def test_rays_lying_along_an_edge(obstacles, data, s0, s1):
    """A ray on an edge's supporting line, overlapping it or running past."""
    if not obstacles:
        return
    polygon = data.draw(st.sampled_from(obstacles))
    edge = data.draw(st.sampled_from(polygon.edges()))
    a = edge.a.lerp(edge.b, s0)
    b = edge.a.lerp(edge.b, s1)
    assert_equivalent(obstacles, a, b)
    assert_equivalent(obstacles, edge.a, edge.b)
    assert_equivalent(obstacles, edge.b, edge.a)


@settings(max_examples=150)
@given(obstacle_fields, st.data(), points)
def test_ray_endpoint_on_a_vertex(obstacles, data, other):
    """Either endpoint of the ray sits exactly on an obstacle vertex."""
    if not obstacles:
        return
    polygon = data.draw(st.sampled_from(obstacles))
    vertex = data.draw(st.sampled_from(list(polygon.vertices)))
    assert_equivalent(obstacles, vertex, other)
    assert_equivalent(obstacles, other, vertex)


@settings(max_examples=150)
@given(
    obstacle_fields,
    st.data(),
    points,
    st.floats(min_value=1.0, max_value=3.0, allow_nan=False),
)
def test_ray_through_an_edge_endpoint(obstacles, data, start, stretch):
    """A ray aimed at a vertex and carried on past it."""
    if not obstacles:
        return
    polygon = data.draw(st.sampled_from(obstacles))
    vertex = data.draw(st.sampled_from(list(polygon.vertices)))
    end = start.lerp(vertex, stretch)
    assert_equivalent(obstacles, start, end)
    assert_equivalent(obstacles, end, start)


def test_ray_on_an_edge_line_past_its_end_is_clear():
    """The segment primitive used to report a hit some 30 m off this ray."""
    triangle = Polygon(
        [Vec2(0.0, 0.0), Vec2(0.0, 1.5219638935924422), Vec2(85.0, 94.0)]
    )
    edge = triangle.edges()[1]
    a, b = edge.a.lerp(edge.b, 1.5), edge.a.lerp(edge.b, 1.375)
    assert_equivalent([triangle], a, b)
    assert line_of_sight(a, b, [triangle])


def test_collinear_ray_takes_the_primitive_fallback(monkeypatch):
    """A ray along an edge is decided by the segment primitive itself."""
    calls = []
    primitive = obstacle_index._segments_intersect

    def counting(*args):
        calls.append(args)
        return primitive(*args)

    monkeypatch.setattr(obstacle_index, "_segments_intersect", counting)
    index = ObstacleIndex([Rectangle(0.0, 0.0, 30.0, 10.0)], cell_size=CELL)
    # Along the bottom edge, overlapping it: touching counts as blocked.
    assert index.blocked(Vec2(-5.0, 0.0), Vec2(50.0, 0.0))
    assert calls
    # On the same line but stopping short of the edge: collinear, yet clear.
    calls.clear()
    assert not index.blocked(Vec2(-20.0, 0.0), Vec2(-5.0, 0.0))
    assert calls
    # A clean crossing never needs the fallback.
    calls.clear()
    assert index.blocked(Vec2(15.0, -10.0), Vec2(15.0, 20.0))
    assert not calls


@settings(max_examples=100)
@given(obstacle_fields, st.lists(st.tuples(points, points), min_size=1, max_size=6))
def test_pickle_round_trip_keeps_answers_and_bytes(obstacles, rays):
    """A restored index answers alike and pickles to the same bytes.

    The edge table is derived state: it stays out of the pickle and is
    rebuilt on restore.
    """
    index = ObstacleIndex(obstacles, cell_size=CELL)
    index.blocked(*rays[0])  # stamps and the query counter are pickled too
    assert "_edge_table" not in index.__getstate__()
    blob = pickle.dumps(index)
    assert b"_edge_table" not in blob
    restored = pickle.loads(blob)
    assert pickle.dumps(restored) == blob
    assert [restored.blocked(a, b) for a, b in rays] == [
        index.blocked(a, b) for a, b in rays
    ]
    assert pickle.dumps(restored) == pickle.dumps(index)


def test_incremental_add_obstacle_keeps_index_consistent():
    """Obstacles added after the index was built are still honoured."""
    vis = VisibilityMap([])
    a, b = Vec2(-50.0, 0.0), Vec2(50.0, 0.0)
    assert vis.has_line_of_sight(a, b)  # index built lazily, empty field
    vis.add_obstacle(Rectangle(-10.0, -10.0, 10.0, 10.0))
    assert not vis.has_line_of_sight(a, b)
    assert vis.has_line_of_sight(Vec2(-50.0, 20.0), Vec2(50.0, 20.0))


def test_default_cell_size_tracks_obstacle_extent():
    index = ObstacleIndex([Rectangle(0.0, 0.0, 30.0, 10.0)])
    assert index.cell_size == 30.0
    assert math.isclose(
        ObstacleIndex([]).cell_size, 50.0
    )  # falls back to the documented default
