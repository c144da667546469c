"""Tests for the shared position substrate and its freshness contract."""

from repro.geometry.substrate import SpatialSubstrate


def test_insert_bumps_the_epoch_immediately():
    substrate = SpatialSubstrate()
    assert substrate.position_epoch == 0
    substrate.update("a")
    assert substrate.position_epoch == 1
    assert "a" in substrate


def test_moves_are_batched_until_commit():
    substrate = SpatialSubstrate()
    substrate.update("a")
    substrate.update("b")
    epoch = substrate.position_epoch
    # Tracked keys move without a call or a bump; the tick-closing commit
    # bumps, once.  A repeated update of a tracked key changes nothing.
    substrate.update("a")
    substrate.update("b")
    assert substrate.position_epoch == epoch
    substrate.commit()
    assert substrate.position_epoch == epoch + 1
    assert substrate.commit_count == 1


def test_remove_bumps_epochs_and_ignores_unknown_keys():
    substrate = SpatialSubstrate()
    substrate.update("a")
    epoch = substrate.position_epoch
    substrate.remove("a")
    assert substrate.position_epoch == epoch + 1
    assert "a" not in substrate
    substrate.remove("ghost")  # no-op, no bump
    assert substrate.position_epoch == epoch + 1

