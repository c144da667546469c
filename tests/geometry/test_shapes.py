"""Tests for segments, polygons and rectangles."""

import pytest

from repro.geometry.shapes import Polygon, Rectangle, Segment
from repro.geometry.vector import Vec2


def test_segment_length_midpoint_point_at():
    seg = Segment(Vec2(0, 0), Vec2(10, 0))
    assert seg.length() == 10.0
    assert seg.midpoint() == Vec2(5, 0)
    assert seg.point_at(0.25) == Vec2(2.5, 0)


def test_segments_crossing_intersect():
    a = Segment(Vec2(0, 0), Vec2(10, 10))
    b = Segment(Vec2(0, 10), Vec2(10, 0))
    assert a.intersects(b)


def test_parallel_segments_do_not_intersect():
    a = Segment(Vec2(0, 0), Vec2(10, 0))
    b = Segment(Vec2(0, 1), Vec2(10, 1))
    assert not a.intersects(b)


def test_touching_segments_intersect():
    a = Segment(Vec2(0, 0), Vec2(5, 0))
    b = Segment(Vec2(5, 0), Vec2(5, 5))
    assert a.intersects(b)


# Two segments on one line, metres apart.  Exact lerps along an edge's
# supporting line land within rounding of it, so the float orientation
# values sit in, or just outside, the collinearity band.
DISTANT_COLLINEAR_PAIRS = [
    # Ray past the edge's far end: two values inside the band.
    (
        Segment(Vec2(0.0, 1.5219638935924422), Vec2(85.0, 94.0)),
        Segment(
            Vec2(0.0, 1.5219638935924422).lerp(Vec2(85.0, 94.0), 1.5),
            Vec2(0.0, 1.5219638935924422).lerp(Vec2(85.0, 94.0), 1.375),
        ),
    ),
    # Ray ending 9.3 m short of the edge: rounding flips two signs.
    (
        Segment(
            Vec2(-175.46292022401119, 98.12558192815925),
            Vec2(130.70586605879265, -158.84052176423),
        ),
        Segment(
            Vec2(-433.3940860713618, 314.6060648452116),
            Vec2(-182.62016961357315, 104.13262958027248),
        ),
    ),
]


@pytest.mark.parametrize("edge, ray", DISTANT_COLLINEAR_PAIRS)
def test_distant_collinear_segments_do_not_intersect(edge, ray):
    assert not edge.intersects(ray)
    assert not ray.intersects(edge)
    assert not Polygon([edge.a, edge.b, Vec2(edge.a.x, edge.b.y)]).intersects_segment(ray)


def test_segment_distance_to_point():
    seg = Segment(Vec2(0, 0), Vec2(10, 0))
    assert seg.distance_to_point(Vec2(5, 3)) == 3.0
    assert seg.distance_to_point(Vec2(-4, 0)) == 4.0  # beyond endpoint


def test_polygon_requires_three_vertices():
    with pytest.raises(ValueError):
        Polygon([Vec2(0, 0), Vec2(1, 1)])


def test_polygon_contains_and_area():
    square = Polygon([Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4)])
    assert square.contains(Vec2(2, 2))
    assert not square.contains(Vec2(5, 5))
    assert square.area() == 16.0
    assert square.centroid() == Vec2(2, 2)


def test_polygon_boundary_counts_as_inside():
    square = Polygon([Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4)])
    assert square.contains(Vec2(0, 2))


def test_polygon_intersects_segment():
    square = Polygon([Vec2(0, 0), Vec2(4, 0), Vec2(4, 4), Vec2(0, 4)])
    crossing = Segment(Vec2(-1, 2), Vec2(5, 2))
    outside = Segment(Vec2(5, 5), Vec2(8, 8))
    inside = Segment(Vec2(1, 1), Vec2(2, 2))
    assert square.intersects_segment(crossing)
    assert not square.intersects_segment(outside)
    assert square.intersects_segment(inside)


def test_rectangle_properties_and_containment():
    rect = Rectangle(0, 0, 10, 5)
    assert rect.width == 10
    assert rect.height == 5
    assert rect.contains(Vec2(3, 3))
    assert not rect.contains(Vec2(11, 3))
    assert rect.area() == 50.0


def test_rectangle_rejects_degenerate():
    with pytest.raises(ValueError):
        Rectangle(0, 0, 0, 5)


def test_polygon_equality_and_hash():
    a = Polygon([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)])
    b = Polygon([Vec2(0, 0), Vec2(1, 0), Vec2(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
