"""Tests for Vec2."""

import math

import pytest

from repro.geometry.vector import Vec2


def test_arithmetic():
    a = Vec2(1.0, 2.0)
    b = Vec2(3.0, -1.0)
    assert a + b == Vec2(4.0, 1.0)
    assert a - b == Vec2(-2.0, 3.0)
    assert a * 2 == Vec2(2.0, 4.0)
    assert 2 * a == Vec2(2.0, 4.0)
    assert a / 2 == Vec2(0.5, 1.0)
    assert -a == Vec2(-1.0, -2.0)


def test_length_and_distance():
    assert Vec2(3.0, 4.0).length() == 5.0
    assert Vec2(3.0, 4.0).length_squared() == 25.0
    assert Vec2(0.0, 0.0).distance_to(Vec2(3.0, 4.0)) == 5.0


def test_dot_and_cross():
    a = Vec2(1.0, 0.0)
    b = Vec2(0.0, 1.0)
    assert a.dot(b) == 0.0
    assert a.cross(b) == 1.0
    assert b.cross(a) == -1.0


def test_normalized_unit_and_zero():
    v = Vec2(10.0, 0.0).normalized()
    assert v == Vec2(1.0, 0.0)
    assert Vec2(0.0, 0.0).normalized() == Vec2(0.0, 0.0)


def test_rotation_quarter_turn():
    rotated = Vec2(1.0, 0.0).rotated(math.pi / 2)
    assert rotated.x == pytest.approx(0.0, abs=1e-12)
    assert rotated.y == pytest.approx(1.0)


def test_lerp_endpoints_and_midpoint():
    a = Vec2(0.0, 0.0)
    b = Vec2(10.0, 20.0)
    assert a.lerp(b, 0.0) == a
    assert a.lerp(b, 1.0) == b
    assert a.lerp(b, 0.5) == Vec2(5.0, 10.0)


def test_from_polar_and_angle_roundtrip():
    v = Vec2(2.0 * math.cos(math.pi / 4), 2.0 * math.sin(math.pi / 4))
    assert v.length() == pytest.approx(2.0)
    assert v.angle() == pytest.approx(math.pi / 4)


def test_iteration_and_tuple():
    v = Vec2(1.5, -2.5)
    assert tuple(v) == (1.5, -2.5)


def test_immutable():
    v = Vec2(1.0, 2.0)
    with pytest.raises(Exception):
        v.x = 5.0
