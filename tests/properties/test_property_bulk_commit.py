"""Property: one bulk commit holding several arrivals of one pair applies
them as the per-receiver events would, one by one in key order.

A fleet whose beacons take longer on the air than its beacon period keeps
several beacons of one sender in flight to each receiver, so one commit of
the radio environment can hold two or more arrivals for one (receiver,
sender) pair.  Then the pair's last arrival must set its row, its first one
must join it, and the joins must come in key order.  The oracle is the
per-receiver event path of ``tests/oracle.py``, which writes every arrival
through ``NeighborTable.observe`` when its event fires.  The fleets are the
deferred-arrival suite's, on a 20 kb/s radio that beacons every 30 ms.

Compared: neighbour views in entry order (after every slice and inside
events), agent epochs and beacon counts, ``mesh.joins``/``mesh.leaves``,
the neighbour-up callbacks in the order they were called, the frame taps
and the delivered-frame log.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.mesh.neighbor import NeighborStore
from repro.radio.link import LinkBudget
from tests.properties.test_property_deferred_arrivals import World, fleets

#: A 300-byte beacon takes at least 0.12 s on this radio, against beacon
#: intervals of 0.03–0.13 s (period plus the agent's jitter).
SLOW_RADIO = dict(max_rate_bps=20e3)
BEACON_PERIOD = 0.03


def _observed(params, reference, slice_size):
    world = World(params, reference, LinkBudget(**SLOW_RADIO))
    trace = world.run(slice_size)
    return {
        "trace": trace,
        "probes": world.probes,
        "ups": world.ups,
        "frames": sorted(world.frames),
        "log": world.log.records,
    }


def _slow(params):
    return dict(params, beacon_period=BEACON_PERIOD)


@pytest.mark.parametrize("slice_size", [1, 2000])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(params=fleets.map(_slow))
def test_bulk_commit_matches_the_event_path_with_several_arrivals_per_pair(
    slice_size, params
):
    bulk = _observed(params, reference=False, slice_size=slice_size)
    oracle = _observed(params, reference=True, slice_size=slice_size)
    for key in ("trace", "probes", "ups", "frames", "log"):
        assert bulk[key] == oracle[key], key


def test_slow_fleet_commits_several_arrivals_of_one_pair(monkeypatch):
    # A fixed example, so the suite is known to reach the case it is about:
    # commits holding two arrivals of one pair, joins among them.
    batches = []
    commit_arrivals = NeighborStore.commit_arrivals

    def recording(store, slot_count, frames, lengths, counts, slots, *columns):
        pairs = [
            (frame.payload.sender, slot)
            for frame, length, start in zip(
                frames, lengths, [sum(lengths[:i]) for i in range(len(lengths))]
            )
            for slot in slots[start : start + length].tolist()
        ]
        batches.append(len(pairs) - len(set(pairs)))
        return commit_arrivals(store, slot_count, frames, lengths, counts, slots, *columns)

    params = _slow({
        "seed": 11,
        "spots": [(0.0, 0.0), (50.0, 10.0), (-40.0, 60.0)],
        "twinned": {0},
        "beacon_period": None,
        "lifetime": 0.6,
        "crashes": [(1.0, 1, 0.8)],
        "bursts": [],
        "extra_broadcasts": [(4, [0, 1])],
        "transfers": [],
        "probes": [(0.7, 1), (1.9, 2), (3.1, 0)],
    })
    oracle = _observed(params, reference=True, slice_size=7)
    monkeypatch.setattr(NeighborStore, "commit_arrivals", recording)
    bulk = _observed(params, reference=False, slice_size=7)
    assert bulk == oracle
    assert max(batches) >= 2  # some commit held repeated pairs
    assert bulk["ups"] and bulk["probes"]
