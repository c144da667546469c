"""Tests for the shared position substrate and its freshness contract."""

from repro.geometry.substrate import SpatialSubstrate
from repro.geometry.vector import Vec2


def test_insert_bumps_the_epoch_immediately():
    substrate = SpatialSubstrate()
    assert substrate.position_epoch == 0
    substrate.update("a", Vec2(0, 0))
    assert substrate.position_epoch == 1
    assert "a" in substrate and len(substrate.positions) == 1


def test_moves_are_batched_until_commit():
    substrate = SpatialSubstrate()
    substrate.update("a", Vec2(0, 0))
    substrate.update("b", Vec2(10, 0))
    epoch = substrate.position_epoch
    # Moving existing keys does not bump; the tick-closing commit does, once.
    substrate.update("a", Vec2(5, 0))
    substrate.update("b", Vec2(15, 0))
    assert substrate.position_epoch == epoch
    substrate.commit()
    assert substrate.position_epoch == epoch + 1
    assert substrate.commit_count == 1


def test_remove_bumps_epochs_and_ignores_unknown_keys():
    substrate = SpatialSubstrate()
    substrate.update("a", Vec2(0, 0))
    epoch = substrate.position_epoch
    substrate.remove("a")
    assert substrate.position_epoch == epoch + 1
    assert "a" not in substrate
    substrate.remove("ghost")  # no-op, no bump
    assert substrate.position_epoch == epoch + 1


def test_positions_hold_the_last_write_in_insertion_order():
    substrate = SpatialSubstrate()
    substrate.update("a", Vec2(0, 0))
    substrate.update("b", Vec2(30, 0))
    substrate.update("c", Vec2(500, 0))
    substrate.update("a", Vec2(1, 0))
    assert list(substrate.positions) == ["a", "b", "c"]
    assert substrate.positions["a"] == Vec2(1, 0)
    assert substrate.positions["c"] == Vec2(500, 0)
