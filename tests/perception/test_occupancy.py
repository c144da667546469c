"""Tests for occupancy grids."""

import pytest

from repro.geometry.vector import Vec2
from repro.perception.occupancy import FREE, OCCUPIED, UNKNOWN, GridSpec, OccupancyGrid


def make_grid(cell_size=1.0, size=20.0):
    spec = GridSpec(origin=Vec2(0, 0), width_m=size, height_m=size, cell_size=cell_size)
    return OccupancyGrid(spec)


def test_spec_dimensions_and_transforms():
    spec = GridSpec(Vec2(0, 0), 10.0, 20.0, cell_size=2.0)
    assert spec.cols == 5
    assert spec.rows == 10
    row, col = spec.to_cell(Vec2(3.0, 5.0))
    assert (row, col) == (2, 1)
    center = spec.to_world(2, 1)
    assert center == Vec2(3.0, 5.0)
    assert spec.contains_cell(0, 0)
    assert not spec.contains_cell(10, 0)


def test_points_left_of_or_below_the_grid_are_out_of_bounds():
    """Cells floor: (-0.5, 3.2) is column -1, not column 0."""
    spec = GridSpec(Vec2(0, 0), 10.0, 10.0, cell_size=1.0)
    assert spec.to_cell(Vec2(-0.5, 3.2)) == (3, -1)
    assert spec.to_cell(Vec2(3.2, -0.5)) == (-1, 3)
    assert spec.to_cell(Vec2(-0.0, 0.0)) == (0, 0)
    grid = OccupancyGrid(spec)
    assert not grid.mark_occupied(Vec2(-0.5, 3.2))
    assert not grid.mark_occupied(Vec2(3.2, -0.5))
    assert (grid.cells == UNKNOWN).all()
    assert grid.state_at(Vec2(-0.5, 3.2)) == UNKNOWN


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(Vec2(0, 0), 0.0, 10.0)
    with pytest.raises(ValueError):
        GridSpec(Vec2(0, 0), 10.0, 10.0, cell_size=0.0)


def test_mark_and_query():
    grid = make_grid()
    assert grid.state_at(Vec2(5, 5)) == UNKNOWN
    assert grid.mark_occupied(Vec2(5, 5))
    assert grid.state_at(Vec2(5, 5)) == OCCUPIED
    assert not grid.mark(Vec2(100, 100), FREE)
    assert grid.state_at(Vec2(100, 100)) == UNKNOWN


def test_ray_marking_marks_free_but_not_over_occupied():
    grid = make_grid()
    grid.mark_occupied(Vec2(5.5, 0.5))
    touched = grid.mark_ray_free(Vec2(0.5, 0.5), Vec2(10.5, 0.5))
    assert touched > 0
    assert grid.state_at(Vec2(2.5, 0.5)) == FREE
    assert grid.state_at(Vec2(5.5, 0.5)) == OCCUPIED   # never downgraded


def test_known_fraction_increases_with_marks():
    grid = make_grid()
    assert grid.known_fraction() == 0.0
    grid.mark_ray_free(Vec2(0, 10), Vec2(20, 10))
    assert grid.known_fraction() > 0.0


def test_fusion_occupied_wins():
    a = make_grid()
    b = make_grid()
    a.mark(Vec2(5, 5), FREE)
    b.mark_occupied(Vec2(5, 5))
    b.mark(Vec2(1, 1), FREE)
    fused = a.fuse(b)
    assert fused.state_at(Vec2(5, 5)) == OCCUPIED
    assert fused.state_at(Vec2(1, 1)) == FREE
    assert a.state_at(Vec2(5, 5)) == FREE   # originals untouched


def test_fuse_all_and_spec_mismatch():
    grids = [make_grid() for _ in range(3)]
    grids[0].mark_occupied(Vec2(1, 1))
    grids[2].mark_occupied(Vec2(3, 3))
    fused = OccupancyGrid.fuse_all(grids)
    assert fused.state_at(Vec2(1, 1)) == OCCUPIED
    assert fused.state_at(Vec2(3, 3)) == OCCUPIED
    other = OccupancyGrid(GridSpec(Vec2(0, 0), 5.0, 5.0))
    with pytest.raises(ValueError):
        grids[0].fuse(other)
    with pytest.raises(ValueError):
        OccupancyGrid.fuse_all([])


def test_occupied_cells_and_size():
    grid = make_grid()
    grid.mark_occupied(Vec2(2, 3))
    assert grid.occupied_cells() == [(3, 2)]
    assert grid.size_bytes() == 400 + 64
