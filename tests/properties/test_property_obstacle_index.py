"""Property tests: indexed line-of-sight ≡ the brute-force obstacle scan.

The :class:`~repro.geometry.obstacle_index.ObstacleIndex` promises *exact*
equivalence with :func:`~repro.geometry.los.line_of_sight` for any ray, not
just typical ones.  Randomised obstacle fields and ray endpoints are the
cheap way to hold it to that — with the adversarial cases (rays along cell
boundaries, rays through cell corners, zero-length rays, endpoints on
obstacle boundaries) forced explicitly as well as left to chance.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

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
