"""Tests for neighbour tables."""

import pytest

from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon
from repro.mesh.neighbor import NeighborTable


def no_deferred_writes():
    """The commit hook of a table written only through ``observe``."""


def beacon_from(name, time=0.0):
    return Beacon(sender=name, timestamp=time, position=Vec2(0, 0), velocity=Vec2(0, 0))


def test_observe_new_neighbor_returns_true_once():
    table = NeighborTable("me", lifetime=3.0, commit=no_deferred_writes)
    assert table.observe(beacon_from("a"), now=0.0) is True
    assert table.observe(beacon_from("a", 1.0), now=1.0) is False
    assert len(table) == 1
    assert "a" in table
    entry = table.entry("a")
    assert entry.beacons_received == 2
    assert entry.beacon.timestamp == 1.0


def test_own_beacons_are_ignored():
    table = NeighborTable("me", commit=no_deferred_writes)
    assert table.observe(beacon_from("me"), now=0.0) is False
    assert len(table) == 0


def test_expiry_removes_silent_neighbors():
    table = NeighborTable("me", lifetime=2.0, commit=no_deferred_writes)
    table.observe(beacon_from("a"), now=0.0)
    table.observe(beacon_from("b"), now=1.5)
    expired = table.expire(now=3.0)
    assert expired == ["a"]
    assert table.names() == ["b"]


def test_expiry_and_active_view_share_the_lifetime_boundary():
    # An entry aged exactly ``lifetime`` is still active, so the sweep keeps
    # it; one beyond is evicted.
    table = NeighborTable("me", lifetime=2.0, commit=no_deferred_writes)
    table.observe(beacon_from("a"), now=0.0)
    assert table.active_names(2.0) == ["a"]
    assert table.expire(now=2.0) == []
    assert table.expire(now=2.5) == ["a"]


def test_entry_age_and_contact_duration():
    table = NeighborTable("me", lifetime=10.0, commit=no_deferred_writes)
    table.observe(beacon_from("a", 0.0), now=0.0)
    table.observe(beacon_from("a", 4.0), now=4.0)
    entry = table.entry("a")
    assert entry.age(5.0) == 1.0
    assert entry.contact_duration(5.0) == 5.0


def test_remove_and_clear():
    table = NeighborTable("me", commit=no_deferred_writes)
    table.observe(beacon_from("a"), now=0.0)
    table.observe(beacon_from("b"), now=0.0)
    table.remove("a")
    assert table.names() == ["b"]
    table.clear()
    assert len(table) == 0


def test_invalid_lifetime_rejected():
    with pytest.raises(ValueError):
        NeighborTable("me", lifetime=0.0, commit=no_deferred_writes)


def test_reads_and_sweeps_commit_first():
    commits = []
    table = NeighborTable("me", lifetime=2.0, commit=lambda: commits.append(1))
    table.observe(beacon_from("a"), now=0.0)
    assert commits == []
    assert "a" in table
    table.active_names(1.0)
    table.expire(now=1.0)
    table.remove("a")
    table.clear()
    assert len(commits) == 5
