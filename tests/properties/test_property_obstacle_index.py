"""Property tests: the numpy ray kernel ≡ the brute-force obstacle scan.

:meth:`~repro.geometry.obstacle_index.ObstacleIndex.blocked_rays` promises
*exact* equivalence with :func:`~repro.geometry.los.line_of_sight` for any
ray, not just typical ones.  Randomised obstacle fields and ray endpoints
are the cheap way to hold it to that — with the degenerate cases
(zero-length rays, coincident endpoints, rays on an edge's line or through
a vertex, rays of 1e-9 to 1e-2 m, endpoints on obstacle boundaries) forced
explicitly as well as left to chance.  Each property checks the single-ray
:meth:`~repro.geometry.obstacle_index.ObstacleIndex.blocked` and the batch
kernel on the same rays.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import obstacle_index
from repro.geometry.los import VisibilityMap, line_of_sight
from repro.geometry.obstacle_index import ObstacleIndex
from repro.geometry.shapes import Polygon, Rectangle
from repro.geometry.vector import Vec2
from tests.oracle import BruteForceVisibility

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
    assert_batch_equivalent(obstacles, [(a, b)])


def assert_batch_equivalent(obstacles, rays):
    """One kernel call over ``rays`` and one :meth:`blocked` per ray."""
    index = ObstacleIndex(obstacles)
    expected = [not line_of_sight(a, b, obstacles) for a, b in rays]
    flags = index.blocked_rays(
        [a.x for a, _ in rays], [a.y for a, _ in rays],
        [b.x for _, b in rays], [b.y for _, b in rays],
    )
    assert flags.tolist() == expected, "kernel diverges from brute force"
    assert [index.blocked(a, b) for a, b in rays] == expected


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
def test_axis_aligned_rays_through_lattice_points(obstacles, line, y0, y1, x_free):
    """Rays on a vertical or horizontal lattice line, and from a lattice point."""
    offset = line * 20.0
    assert_equivalent(obstacles, Vec2(offset, y0), Vec2(offset, y1))
    assert_equivalent(obstacles, Vec2(y0, offset), Vec2(y1, offset))
    assert_equivalent(obstacles, Vec2(offset, offset), Vec2(x_free, y1))


@settings(max_examples=200, deadline=None)
@given(obstacle_fields, points)
def test_zero_length_rays(obstacles, a):
    """A degenerate ray reduces to a point-in-obstacle test."""
    assert_equivalent(obstacles, a, a)


@settings(max_examples=150, deadline=None)
@given(obstacle_fields, st.data())
def test_zero_length_rays_on_boundaries_and_vertices(obstacles, data):
    """Coincident agents on an edge, on a vertex or inside, in one batch."""
    if not obstacles:
        return
    polygon = data.draw(st.sampled_from(obstacles))
    edge = data.draw(st.sampled_from(polygon.edges()))
    on_edge = edge.point_at(data.draw(st.floats(min_value=0.0, max_value=1.0)))
    vertex = data.draw(st.sampled_from(list(polygon.vertices)))
    centroid = polygon.centroid()
    assert_batch_equivalent(
        obstacles, [(p, p) for p in (on_edge, vertex, centroid, edge.a, edge.b)]
    )


short_lengths = st.floats(min_value=1e-9, max_value=1e-2)
unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(obstacle_fields, st.data(), short_lengths, unit, unit)
def test_sub_millimetre_rays(obstacles, data, length, ux, uy):
    """Rays 1e-9 to 1e-2 m long, from anywhere or from an obstacle boundary.

    The segment primitive's collinearity band is a bound on a cross
    product, so for very short rays it reaches past the ray's own extent;
    the kernel must still agree with the scan.
    """
    starts = [data.draw(points)]
    if obstacles:
        polygon = data.draw(st.sampled_from(obstacles))
        edge = data.draw(st.sampled_from(polygon.edges()))
        starts.append(edge.point_at(data.draw(st.floats(min_value=0.0, max_value=1.0))))
        starts.append(data.draw(st.sampled_from(list(polygon.vertices))))
    rays = []
    for a in starts:
        b = Vec2(a.x + length * ux, a.y + length * uy)
        rays += [(a, b), (b, a)]
    assert_batch_equivalent(obstacles, rays)


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
    assert indexed.blocked_rays(
        [a.x] * 4, [a.y] * 4, [t.x for t in targets], [t.y for t in targets]
    ).tolist() == brute.blocked_rays(
        [a.x] * 4, [a.y] * 4, [t.x for t in targets], [t.y for t in targets]
    ).tolist()
    assert indexed.visible_fraction(a, targets) == brute.visible_fraction(a, targets)
    assert indexed.visible_targets(a, targets, max_range=250.0) == brute.visible_targets(
        a, targets, max_range=250.0
    )


# The kernel hands any pair with an uncertain orientation value (inside
# ``_orientation``'s rounding bound of the collinearity band) to the segment
# primitive and decides clearly collinear values with ``_on_segment`` in
# numpy.  The properties below aim rays straight at both branches.

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
    """A nearly collinear pair goes to the segment primitive; no other does."""
    calls = []
    primitive = obstacle_index._segments_intersect

    def counting(*args):
        calls.append(args)
        return primitive(*args)

    monkeypatch.setattr(obstacle_index, "_segments_intersect", counting)
    index = ObstacleIndex([Rectangle(0.0, 0.0, 30.0, 10.0)])
    # A long ray touching the corner (0, 0) only: its orientation values
    # there are exact zeros inside a rounding bound wider than the band,
    # so only the primitive can call it blocked.
    assert index.blocked(Vec2(-500.0, 1000.0), Vec2(500.0, -1000.0))
    assert calls
    # Along the bottom edge, overlapping it: clearly collinear, decided in
    # numpy.  Touching counts as blocked.
    calls.clear()
    assert index.blocked(Vec2(-5.0, 0.0), Vec2(50.0, 0.0))
    # On the same line but stopping short of the edge: collinear, yet clear.
    assert not index.blocked(Vec2(-20.0, 0.0), Vec2(-5.0, 0.0))
    # A zero-length ray on the edge, and a clean crossing.
    assert index.blocked(Vec2(7.0, 0.0), Vec2(7.0, 0.0))
    assert index.blocked(Vec2(15.0, -10.0), Vec2(15.0, 20.0))
    assert not calls


def test_rays_inside_a_footprint_are_blocked():
    """No edge crossed: containment of both endpoints decides."""
    triangle = Polygon([Vec2(0.0, 0.0), Vec2(40.0, 0.0), Vec2(0.0, 40.0)])
    obstacles = [Rectangle(100.0, 100.0, 130.0, 110.0), triangle]
    rays = [
        (Vec2(110.0, 105.0), Vec2(120.0, 104.0)),  # inside the rectangle
        (Vec2(115.0, 102.0), Vec2(115.0, 102.0)),  # a point inside it
        (Vec2(5.0, 5.0), Vec2(10.0, 20.0)),  # inside the triangle
        (Vec2(25.0, 25.0), Vec2(26.0, 26.0)),  # in its box, outside it
        (Vec2(-5.0, -5.0), Vec2(-5.0, -5.0)),  # outside everything
    ]
    assert_batch_equivalent(obstacles, rays)
    flags = ObstacleIndex(obstacles).blocked_rays(
        [a.x for a, _ in rays], [a.y for a, _ in rays],
        [b.x for _, b in rays], [b.y for _, b in rays],
    )
    assert flags.tolist() == [True, True, True, False, False]


def test_large_batches_run_in_chunks(monkeypatch):
    """A batch over the pair bound is split, with the same answers."""
    monkeypatch.setattr(obstacle_index, "_PAIR_CHUNK", 40)
    obstacles = [Rectangle(0.0, 0.0, 30.0, 10.0), Rectangle(50.0, 0.0, 60.0, 40.0)]
    rays = [
        (Vec2(-10.0 + i, -5.0), Vec2(70.0 - 2 * i, 30.0 + i)) for i in range(37)
    ] + [(Vec2(55.0, 20.0), Vec2(55.0, 20.0))]
    assert_batch_equivalent(obstacles, rays)


@settings(max_examples=100)
@given(obstacle_fields, st.lists(st.tuples(points, points), min_size=1, max_size=6))
def test_pickle_round_trip_keeps_answers_and_bytes(obstacles, rays):
    """A restored index answers alike and pickles to the same bytes.

    Only the obstacles are pickled: the edge and box columns are derived
    state, rebuilt on restore.
    """
    index = ObstacleIndex(obstacles)
    index.blocked(*rays[0])
    assert set(index.__getstate__()) == {"_obstacles"}
    blob = pickle.dumps(index)
    assert b"_ends_x" not in blob
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
