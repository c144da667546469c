"""Format stability: the snapshot bytes are a pure function of the state.

The golden fixture under ``fixtures/`` is a real mid-run checkpoint (faults
active) committed to the repository.  CI restores it and finishes the run,
asserting the report matches the expected values frozen next to it — so any
change to the codec layout, the pickled class shapes or the RNG stream
naming that would orphan existing checkpoints fails here loudly.  After an
*intentional* break, bump ``SNAPSHOT_VERSION`` and regenerate with
``tools/make_snapshot_fixture.py``.

The bytes themselves are promised too: snapshotting a restored scenario
reproduces the original artifact, and the same state snapshots to the same
bytes in every process, whatever its ``PYTHONHASHSEED``.
"""
import json
import os
import subprocess
import sys

import pytest

import repro

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


FAULT_KNOBS = dict(
    crash_rate=0.08,
    mean_downtime=2.0,
    radio_degradation=6.0,
    loss_burst_rate=0.4,
    malicious_fraction=0.3,
    adversary_profile="mixed",
)

#: name -> (scenario, fleet, seed, knobs, cut).
RESTORE_CASES = {
    "intersection": ("intersection", 24, 1, dict(perception_period=0.2), 15.0),
    "urban-grid": ("urban-grid", 12, 1, dict(with_buildings=True, **FAULT_KNOBS), 7.0),
    "highway": ("highway", 4, 5, {}, 6.0),
}


@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_snapshot_of_restored_scenario_is_bit_identical(case):
    """Restore -> snapshot reproduces the original artifact byte for byte."""
    name, fleet, seed, knobs, cut = RESTORE_CASES[case]
    scenario = build_scenario(name, n=fleet, seed=seed, **knobs)
    scenario.run(cut)
    first = scenario.snapshot()
    restored = Scenario.restore(first)
    second = restored.snapshot()
    assert second == first


@pytest.mark.parametrize("case", sorted(RESTORE_CASES))
def test_snapshot_pickles_no_itertools_objects(case):
    """Python 3.12 deprecated pickling itertools objects and 3.14 removes
    it, so no artifact may hold one (counters are plain ints)."""
    name, fleet, seed, knobs, cut = RESTORE_CASES[case]
    scenario = build_scenario(name, n=fleet, seed=seed, **knobs)
    scenario.open_window(2 * cut)
    scenario.advance(until=cut)
    payload = scenario.snapshot()
    assert b"repro.simcore.event" in payload  # class modules are named
    assert b"itertools" not in payload


_MID_RUN_SHAS = """
import hashlib
from repro.scenarios import build_scenario
for name in ("highway", "intersection", "urban-grid"):
    scenario = build_scenario(name, n=6, seed=3, **{knobs!r})
    scenario.open_window(10.0)
    scenario.advance(until=5.0)
    print(name, hashlib.sha256(scenario.snapshot()).hexdigest())
"""


def _mid_run_shas(hashseed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _MID_RUN_SHAS.format(knobs=FAULT_KNOBS)],
        env=dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return dict(line.split() for line in result.stdout.splitlines())


def test_mid_run_snapshot_bytes_do_not_depend_on_the_hash_seed():
    """Fresh interpreters under two hash seeds write the same artifacts."""
    first, second = _mid_run_shas("0"), _mid_run_shas("1")
    assert sorted(first) == ["highway", "intersection", "urban-grid"]
    assert first == second


def test_snapshot_artifact_is_deterministic_within_process():
    """Snapshotting the same state twice yields the same bytes."""
    scenario = build_scenario("highway", n=4, seed=5)
    scenario.run(6.0)
    assert scenario.snapshot() == scenario.snapshot()
