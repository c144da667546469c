"""Format stability: old artifacts keep replaying, byte for byte.

The golden fixture under ``fixtures/`` is a real mid-run checkpoint (faults
active) committed to the repository.  CI restores it and finishes the run,
asserting the report matches the expected values frozen next to it — so any
change to the codec layout, the pickled class shapes or the RNG stream
naming that would orphan existing checkpoints fails here loudly.  After an
*intentional* break, bump ``SNAPSHOT_VERSION`` and regenerate with
``tools/make_snapshot_fixture.py``.
"""

import json
import os

from repro.scenarios import build_scenario
from repro.scenarios.base import Scenario
from repro.snapshot import SNAPSHOT_VERSION, SnapshotCodec

FIXTURE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
FIXTURE = os.path.join(FIXTURE_DIR, "urban_grid_mid_run.reprosnap")
EXPECTED = os.path.join(FIXTURE_DIR, "urban_grid_mid_run.expected.json")


def _load():
    with open(FIXTURE, "rb") as handle:
        blob = handle.read()
    with open(EXPECTED) as handle:
        expected = json.load(handle)
    return blob, expected


def test_golden_fixture_header_is_current_format():
    blob, expected = _load()
    header = SnapshotCodec().read_header(blob)
    assert header["version"] == SNAPSHOT_VERSION == expected["snapshot_version"]
    assert header["metadata"] == expected["header_metadata"]


def test_golden_fixture_replays_to_the_frozen_report():
    blob, expected = _load()
    scenario = Scenario.restore(blob)
    assert scenario.sim.now == expected["cut"]
    # The fixture predates the removal of the simulator's legacy trace log.
    assert not hasattr(scenario.sim, "tracelog")
    report = scenario.resume()
    assert report.as_dict() == expected["resumed_report"]


def test_golden_fixture_matches_a_fresh_run_of_the_same_config():
    """The frozen report is still what today's code computes from scratch."""
    _, expected = _load()
    scenario = build_scenario(
        expected["scenario"].replace("_", "-"),
        n=expected["fleet"],
        seed=expected["seed"],
        **expected["knobs"],
    )
    report = scenario.run(expected["duration"])
    assert report.as_dict() == expected["resumed_report"]


def test_snapshot_of_restored_scenario_is_bit_identical():
    """Within-process idempotence: restore -> snapshot reproduces the bytes.

    (Bit-identity across *processes* is deliberately not promised — Python
    set iteration order is hash-randomised per process — but within one
    process a snapshot must be a fixed point of restore.)
    """
    scenario = build_scenario("highway", n=4, seed=5)
    scenario.run(6.0)
    first = scenario.snapshot()
    restored = Scenario.restore(first)
    second = restored.snapshot()
    assert second == first


def test_snapshot_artifact_is_deterministic_within_process():
    """Snapshotting the same state twice yields the same bytes."""
    scenario = build_scenario("highway", n=4, seed=5)
    scenario.run(6.0)
    assert scenario.snapshot() == scenario.snapshot()
