"""Byte pins of every scenario's report and mid-run snapshot.

Scenario assembly fixes the construction order, the RNG draws, the event
sequence and the attribute order that reports and snapshots are made of.
These pins hold all of it still for the three scenarios on the exact radio
tier, one case with the fault injector active.  Every id in a snapshot is
numbered by its own simulation, so the cases run in this process and the
bytes must not depend on what ran before them.

After an intentional change of scenario behaviour, re-capture the pins with
``python tests/scenarios/test_scenario_pins.py CASE`` (``PYTHONPATH=src``).
"""

import functools
import hashlib
import json
import sys

import pytest

from repro.scenarios import build_scenario

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
        "ee08139e7e64647420a84654c160d75163e83a826e9ab7f84960600d452a0b5b",
    ),
    "highway-faults": (
        "89a1c61168d7b5a93ccb25f8ec428ae4d245752ce0e4b41112d876fc7a260c1d",
        "e35bb596bc019c77c362caa4404766e256eacef4e9421352de8b5f3f207e9fba",
    ),
    "intersection": (
        "e7a1679d7d14c60e5a89543d46bab6fd3461d7ff5c9343ddf87b527855fe3abd",
        "0c92e52b4b3636089522483c4aa854e7ca03156bf30ff2d6ae3babb8f675aef2",
    ),
    "urban-grid": (
        "61ba9475ef7571b31fc61f9298fa4b6fc688bb3ab515468f9d5e49869e053ba0",
        "5fde0ba96f21f9d1bb188680c4db993b4d65b831c3c7d69f28f9f229fde823e6",
    ),
}


def case_shas(case):
    """Run ``case`` in this process; return (report sha, snapshot sha)."""
    name, fleet, seed, knobs, duration = CASES[case]
    scenario = build_scenario(name, n=fleet, seed=seed, **knobs)
    scenario.open_window(duration)
    scenario.advance(until=duration / 2)
    snapshot_sha = hashlib.sha256(scenario.snapshot()).hexdigest()
    scenario.advance()
    report = json.dumps(scenario.close_window().as_dict(), sort_keys=True)
    return hashlib.sha256(report.encode()).hexdigest(), snapshot_sha


pinned_case_shas = functools.lru_cache(maxsize=None)(case_shas)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_are_pinned(case):
    assert pinned_case_shas(case)[0] == PINS[case][0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_mid_run_snapshot_bytes_are_pinned(case):
    assert pinned_case_shas(case)[1] == PINS[case][1]


def test_snapshot_bytes_do_not_depend_on_earlier_runs():
    # A run that sends frames and messages, submits and offloads tasks and
    # crashes nodes draws every kind of id; the next scenario still starts
    # its own numbering from zero.
    earlier = build_scenario("highway", n=4, seed=9, **FAULT_KNOBS).run(8.0)
    assert earlier.tasks_submitted > 0 and earlier.extra["crashes_injected"] > 0
    assert case_shas("urban-grid") == PINS["urban-grid"]


if __name__ == "__main__":
    print(*case_shas(sys.argv[1]))
