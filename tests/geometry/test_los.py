"""Tests for line-of-sight computation."""

from repro.geometry.los import VisibilityMap, line_of_sight
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from tests.oracle import BruteForceVisibility


def test_clear_path_has_line_of_sight():
    assert line_of_sight(Vec2(0, 0), Vec2(100, 0), [])


def test_building_blocks_line_of_sight():
    building = Rectangle(40, -10, 60, 10)
    assert not line_of_sight(Vec2(0, 0), Vec2(100, 0), [building])


def test_path_around_building_is_clear():
    building = Rectangle(40, -10, 60, 10)
    assert line_of_sight(Vec2(0, 20), Vec2(100, 20), [building])


def test_visibility_map_occlusion_and_fraction():
    vmap = VisibilityMap([Rectangle(10, 10, 30, 30)])
    observer = Vec2(0, 0)
    visible_target = Vec2(0, 50)
    occluded_target = Vec2(40, 40)
    assert vmap.has_line_of_sight(observer, visible_target)
    assert vmap.is_occluded(observer, occluded_target)
    fraction = vmap.visible_fraction(observer, [visible_target, occluded_target])
    assert fraction == 0.5


def test_visible_fraction_respects_range():
    vmap = VisibilityMap([])
    observer = Vec2(0, 0)
    targets = [Vec2(10, 0), Vec2(1000, 0)]
    assert vmap.visible_fraction(observer, targets, max_range=100) == 0.5
    assert vmap.visible_fraction(observer, []) == 1.0


def test_visible_targets_lists_only_visible():
    vmap = VisibilityMap([Rectangle(10, -5, 20, 5)])
    observer = Vec2(0, 0)
    behind = Vec2(30, 0)
    clear = Vec2(0, 30)
    assert vmap.visible_targets(observer, [behind, clear]) == [clear]


def test_add_obstacle_changes_answer():
    vmap = VisibilityMap([])
    a, b = Vec2(0, 0), Vec2(50, 0)
    assert vmap.has_line_of_sight(a, b)
    vmap.add_obstacle(Rectangle(20, -5, 30, 5))
    assert not vmap.has_line_of_sight(a, b)
    assert len(vmap.obstacles) == 1


def test_obstacle_epoch_counts_every_mutation():
    building = Rectangle(40, -10, 60, 10)
    other = Rectangle(80, -10, 90, 10)
    vmap = VisibilityMap([building])
    assert vmap.obstacle_epoch == 0
    vmap.add_obstacle(other)
    assert vmap.obstacle_epoch == 1
    vmap.set_obstacles([building])
    assert vmap.obstacle_epoch == 2
    assert vmap.remove_obstacle(building)
    assert vmap.obstacle_epoch == 3
    # Removing something absent is a no-op: no epoch bump.
    assert not vmap.remove_obstacle(building)
    assert vmap.obstacle_epoch == 3


def test_set_obstacles_replaces_and_requeries_correctly():
    near = Rectangle(40, -10, 60, 10)
    far = Rectangle(200, -10, 220, 10)
    vmap = VisibilityMap([near])
    assert vmap.is_occluded(Vec2(0, 0), Vec2(100, 0))
    vmap.set_obstacles([far])
    assert vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))
    assert vmap.is_occluded(Vec2(150, 0), Vec2(300, 0))


def test_remove_obstacle_unblocks_the_ray():
    building = Rectangle(40, -10, 60, 10)
    vmap = VisibilityMap([building])
    assert vmap.is_occluded(Vec2(0, 0), Vec2(100, 0))
    assert vmap.remove_obstacle(building)
    assert vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))


def test_index_rebuilds_are_amortised_per_epoch():
    building = Rectangle(40, -10, 60, 10)
    vmap = VisibilityMap([building])
    vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))
    assert vmap.index_rebuilds == 1
    # Queries between mutations reuse the index.
    vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))
    assert vmap.index_rebuilds == 1
    # A burst of mutations costs one lazy rebuild on the next query, not one
    # per mutation.
    vmap.set_obstacles([building])
    vmap.set_obstacles([building, Rectangle(80, -10, 90, 10)])
    assert vmap.index_rebuilds == 1
    vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))
    assert vmap.index_rebuilds == 2
    # Additive mutation extends the live index in place: no rebuild.
    vmap.add_obstacle(Rectangle(300, -10, 310, 10))
    vmap.has_line_of_sight(Vec2(0, 0), Vec2(100, 0))
    assert vmap.index_rebuilds == 2


def test_brute_force_and_index_answers_match_after_mutations():
    buildings = [Rectangle(40, -10, 60, 10), Rectangle(0, 40, 20, 60)]
    indexed = VisibilityMap(buildings)
    reference = BruteForceVisibility(buildings)
    rays = [
        (Vec2(0, 0), Vec2(100, 0)),
        (Vec2(10, -20), Vec2(10, 100)),
        (Vec2(-5, -5), Vec2(120, 80)),
        (Vec2(70, 0), Vec2(100, 0)),
    ]
    for a, b in rays:
        assert indexed.has_line_of_sight(a, b) == reference.has_line_of_sight(a, b)
    assert reference.index_rebuilds == 0  # the oracle never builds the index
    for vmap in (indexed, reference):
        vmap.remove_obstacle(buildings[0])
        vmap.add_obstacle(Rectangle(90, -10, 95, 10))
    for a, b in rays:
        assert indexed.has_line_of_sight(a, b) == reference.has_line_of_sight(a, b)
