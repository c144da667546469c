"""Byte pins of every scenario's report and mid-run snapshot.

Scenario assembly fixes the construction order, the RNG draws, the event
sequence and the attribute order that reports and snapshots are made of.
These pins hold all of it still for the three scenarios on the exact radio
tier, one case with the fault injector active.  Each case runs in a fresh
interpreter: the process-global id counters are part of the snapshot, so a
scenario run earlier in the same process would change its bytes.

After an intentional change of scenario behaviour, re-capture the pins with
``python tests/scenarios/test_scenario_pins.py CASE`` (``PYTHONPATH=src``).
"""

import functools
import hashlib
import json
import os
import subprocess
import sys

import pytest

FAULT_KNOBS = dict(
    crash_rate=0.08,
    mean_downtime=2.0,
    radio_degradation=6.0,
    loss_burst_rate=0.4,
    malicious_fraction=0.3,
    adversary_profile="mixed",
)

#: case -> (scenario, fleet, seed, knobs, duration).  The snapshot is taken
#: halfway through the window; the report closes it.
CASES = {
    "highway": ("highway", 4, 5, {}, 8.0),
    "highway-faults": ("highway", 4, 2, FAULT_KNOBS, 8.0),
    "intersection": ("intersection", 8, 3, dict(perception_period=0.5), 8.0),
    "urban-grid": ("urban-grid", 8, 3, dict(with_buildings=True), 6.0),
}

#: case -> (sha256 of the report JSON, sha256 of the mid-run snapshot).
PINS = {
    "highway": (
        "6690d85b5c9179c6ca337930d047e1a7ef2e86252848239ab8ffd6c90905182e",
        "468d39a16299185819b9bd0a7ea69a0a94e8dd189ba2ae6d044fe43108504461",
    ),
    "highway-faults": (
        "89a1c61168d7b5a93ccb25f8ec428ae4d245752ce0e4b41112d876fc7a260c1d",
        "b8cd358c78315d207b18fdd3932e66ec8bc6118fd84e23458e2ea4ab7b3a953a",
    ),
    "intersection": (
        "e7a1679d7d14c60e5a89543d46bab6fd3461d7ff5c9343ddf87b527855fe3abd",
        "a61fc6e4a861574c97e13139b89d627444b7dd632eb251579a5565e4504277aa",
    ),
    "urban-grid": (
        "61ba9475ef7571b31fc61f9298fa4b6fc688bb3ab515468f9d5e49869e053ba0",
        "2d1e771ee1bcce94a3be21c0240280d65f2a7cb9fb9ab35021f431a474a34fc3",
    ),
}


def case_shas(case):
    """Run ``case`` in this process; return (report sha, snapshot sha)."""
    from repro.scenarios import build_scenario

    name, fleet, seed, knobs, duration = CASES[case]
    scenario = build_scenario(name, n=fleet, seed=seed, **knobs)
    scenario.open_window(duration)
    scenario.advance(until=duration / 2)
    snapshot_sha = hashlib.sha256(scenario.snapshot()).hexdigest()
    scenario.advance()
    report = json.dumps(scenario.close_window().as_dict(), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest(), snapshot_sha


@functools.lru_cache(maxsize=None)
def fresh_case_shas(case):
    """:func:`case_shas` in a fresh interpreter."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, os.path.abspath(__file__), case],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    report_sha, snapshot_sha = result.stdout.split()
    return report_sha, snapshot_sha


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(case):
    assert fresh_case_shas(case)[0] == PINS[case][0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_mid_run_snapshot_bytes_are_pinned(case):
    assert fresh_case_shas(case)[1] == PINS[case][1]


if __name__ == "__main__":
    print(*case_shas(sys.argv[1]))
