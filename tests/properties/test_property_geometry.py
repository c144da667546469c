"""Property-based tests for geometry primitives."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.shapes import COLLINEAR_EPS, _orientation
from repro.geometry.vector import Vec2

# Subnormal doubles are excluded: dividing them loses precision in ways that
# say nothing about the geometry code under test.
coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False,
    allow_subnormal=False,
)
vectors = st.builds(Vec2, coords, coords)


@given(vectors, vectors)
def test_distance_is_symmetric(a, b):
    assert a.distance_to(b) == b.distance_to(a)


@given(vectors, vectors, vectors)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


@given(vectors)
def test_normalized_has_unit_length_or_zero(v):
    n = v.normalized()
    if v.length() == 0.0:
        assert n == Vec2(0.0, 0.0)
    else:
        assert math.isclose(n.length(), 1.0, rel_tol=1e-9, abs_tol=1e-9)


@given(vectors, st.floats(min_value=-math.pi, max_value=math.pi))
def test_rotation_preserves_length(v, angle):
    assert math.isclose(v.rotated(angle).length(), v.length(), rel_tol=1e-9, abs_tol=1e-6)


@given(vectors, vectors, st.floats(min_value=0.0, max_value=1.0))
def test_lerp_stays_between_endpoints(a, b, t):
    point = a.lerp(b, t)
    # The interpolated point is never farther from either endpoint than the
    # endpoints are from each other.
    separation = a.distance_to(b)
    assert point.distance_to(a) <= separation + 1e-6
    assert point.distance_to(b) <= separation + 1e-6


def exact_orientation(p, q, r):
    """``_orientation``'s class of the value computed in exact arithmetic."""
    px, py, qx, qy, rx, ry = map(Fraction, (p.x, p.y, q.x, q.y, r.x, r.y))
    val = (qy - py) * (rx - qx) - (qx - px) * (ry - qy)
    if abs(val) < COLLINEAR_EPS:
        return 0
    return 1 if val > 0 else 2


@settings(max_examples=300)
@given(
    vectors,
    vectors,
    st.floats(min_value=-2.0, max_value=3.0),
    st.floats(min_value=-1e-9, max_value=1e-9),
)
def test_orientation_classifies_the_exact_value(p, q, t, nudge):
    """Nearly collinear triplets, where float rounding can flip the sign."""
    on_line = p.lerp(q, t)
    r = Vec2(on_line.x + nudge, on_line.y - nudge)
    assert _orientation(p, q, r) == exact_orientation(p, q, r)
    assert _orientation(r, p, q) == exact_orientation(r, p, q)
