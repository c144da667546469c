"""E17 — Concurrent service sessions: throughput and byte-identity.

The service layer (``repro.service``) multiplexes many simulations on one
process by slicing each run window into bounded ``step`` calls and
round-robining the slices through a cooperative scheduler.  That is only
acceptable if (a) the slicing machinery costs little — aggregate event
throughput of K concurrent sessions must stay close to K back-to-back
``Scenario.run()`` calls — and (b) it costs *nothing* in simulation terms:
a session that is sliced, interleaved with seven neighbours, paused,
evicted to a snapshot artifact, restored and resumed must report exactly
what an undisturbed run of the same scenario reports.

Three measurements on K = 8 urban-grid sessions (distinct seeds):

* **Sequential baseline** — the K scenarios run to completion one after the
  other through plain ``Scenario.run()``; aggregate events/s is the
  reference throughput.
* **Concurrent sessions** — the same K scenarios as registry sessions,
  driven by the round-robin scheduler until every one finishes.  Gates:
  aggregate events/s ≥ **70 %** of sequential, and every session's report
  byte-identical to its solo twin.
* **Evict/restore mid-flight** — one extra session is stepped partway,
  paused, evicted (scenario object graph dropped), restored and driven to
  completion; its report *and* delivered-frame sequence must equal an
  uninterrupted twin's byte for byte.

Results go to ``BENCH_E17.json`` (parsed by the CI smoke step).  Set
``E17_SMOKE=1`` (CI) to shrink the fleets and skip the throughput gate,
which is meaningless on noisy shared runners; the byte-identity gates
always apply — determinism does not get a smoke discount.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List

from repro.metrics.report import ResultTable
from repro.scenarios import build_scenario
from repro.service.registry import SessionRegistry
from repro.service.session import SessionState
from repro.snapshot.verify import DeliveredFrameLog

SMOKE = os.environ.get("E17_SMOKE") == "1"
SEED = 170

SESSIONS = 8
FLEET_N = 6 if SMOKE else 24
DURATION_S = 6.0 if SMOKE else 20.0
STEP_SLICE = 400 if SMOKE else 2000
THROUGHPUT_GATE = 0.70

#: Evict/restore probe: bounded slices taken before the eviction.  Small
#: and explicit so the eviction point lands mid-window at every scale.
EVICT_AFTER_SLICES = 3
EVICT_SLICE_EVENTS = 40 if SMOKE else 200

OUTPUT_PATH = Path("BENCH_E17.json")


def _build(seed: int):
    return build_scenario("urban-grid", n=FLEET_N, seed=seed)


def _session_seeds() -> List[int]:
    return [SEED + index for index in range(SESSIONS)]


def measure_sequential() -> Dict[str, object]:
    """K back-to-back ``Scenario.run()`` calls — the throughput reference."""
    reports: List[Dict[str, float]] = []
    events = 0
    start = time.perf_counter()
    for seed in _session_seeds():
        scenario = _build(seed)
        reports.append(scenario.run(DURATION_S).as_dict())
        events += scenario.sim.events_fired
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / max(wall, 1e-9),
        "reports": reports,
    }


def measure_concurrent() -> Dict[str, object]:
    """The same K scenarios as sessions under the round-robin scheduler."""
    registry = SessionRegistry(step_slice=STEP_SLICE)
    sessions = [
        registry.create(scenario=_build(seed), duration=DURATION_S)
        for seed in _session_seeds()
    ]
    start = time.perf_counter()
    for session in sessions:
        session.start()
    registry.drive_to_completion()
    wall = time.perf_counter() - start
    assert all(session.state is SessionState.FINISHED for session in sessions)
    events = sum(session.events_fired for session in sessions)
    return {
        "wall_s": wall,
        "events": events,
        "events_per_s": events / max(wall, 1e-9),
        "ticks": sum(session.ticks for session in sessions),
        "reports": [session.report.as_dict() for session in sessions],
    }


def measure_evict_restore() -> Dict[str, object]:
    """Slice, pause, evict, restore, resume — against an undisturbed twin."""
    seed = SEED + SESSIONS  # fresh seed, not one of the K above
    twin = _build(seed)
    twin_log = DeliveredFrameLog().attach(twin)
    twin_report = twin.run(DURATION_S).as_dict()

    registry = SessionRegistry(step_slice=STEP_SLICE)
    probe = _build(seed)
    probe_log = DeliveredFrameLog().attach(probe)
    session = registry.create(scenario=probe, duration=DURATION_S)
    session.start()
    for _ in range(EVICT_AFTER_SLICES):
        if session.state is not SessionState.RUNNING:
            break
        session.step(EVICT_SLICE_EVENTS)
    interrupted = session.state is SessionState.RUNNING
    if interrupted:
        session.pause()
        registry.evict(session.id)
        assert session.scenario is None, "eviction must drop the object graph"
        registry.restore(session.id)
        session.resume()
    registry.drive_to_completion()
    assert session.state is SessionState.FINISHED
    # The log was attached to the pre-eviction object graph; find the copy
    # that travelled through the snapshot artifact.
    restored_log = DeliveredFrameLog.find(session.scenario)

    report_identical = session.report.as_dict() == twin_report
    frames_identical = restored_log.records == twin_log.records
    return {
        "seed": seed,
        "interrupted": interrupted,
        "slices_before_evict": EVICT_AFTER_SLICES,
        "frames_twin": len(twin_log.records),
        "frames_restored": len(restored_log.records),
        "report_identical": report_identical,
        "frames_identical": frames_identical,
        "pre_evict_frames": len(probe_log.records),
    }


def test_e17_concurrent_sessions(print_table):
    sequential = measure_sequential()
    concurrent = measure_concurrent()
    evict = measure_evict_restore()

    ratio = concurrent["events_per_s"] / max(sequential["events_per_s"], 1e-9)
    identical = [
        mine == ref
        for mine, ref in zip(concurrent["reports"], sequential["reports"])
    ]

    table = ResultTable(
        f"E17  Service sessions (K={SESSIONS}, N={FLEET_N}, "
        f"{DURATION_S:g} sim-s, seed={SEED}" + (", SMOKE" if SMOKE else "") + ")",
        ["measurement", "value"],
    )
    table.add_row("sequential events/s", sequential["events_per_s"])
    table.add_row("concurrent events/s", concurrent["events_per_s"])
    table.add_row("throughput ratio", f"{ratio:.3f}")
    table.add_row("scheduler slices", concurrent["ticks"])
    table.add_row("reports identical", f"{sum(identical)}/{SESSIONS}")
    table.add_row("evict/restore report identical", evict["report_identical"])
    table.add_row("evict/restore frames identical", evict["frames_identical"])
    table.add_row("evict/restore frames", evict["frames_restored"])
    print_table(table)

    payload = {
        "benchmark": "E17",
        "smoke": SMOKE,
        "seed": SEED,
        "sessions": SESSIONS,
        "fleet_n": FLEET_N,
        "duration_sim_s": DURATION_S,
        "step_slice": STEP_SLICE,
        "gates": {"min_throughput_ratio": THROUGHPUT_GATE},
        "sequential": {
            key: value for key, value in sequential.items() if key != "reports"
        },
        "concurrent": {
            key: value for key, value in concurrent.items() if key != "reports"
        },
        "throughput_ratio": ratio,
        "reports_identical": sum(identical),
        "evict_restore": evict,
    }
    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    # Byte-identity gates hold in smoke mode too — determinism is free.
    assert all(identical), (
        "concurrent session reports diverged from sequential twins at "
        f"indices {[i for i, ok in enumerate(identical) if not ok]}"
    )
    assert evict["interrupted"], (
        "evict probe finished before the eviction point; raise DURATION_S "
        "or lower STEP_SLICE so the round trip is actually exercised"
    )
    assert evict["report_identical"], (
        "evicted/restored session report diverged from the uninterrupted twin"
    )
    assert evict["frames_identical"], (
        "evicted/restored delivered-frame sequence diverged from the twin"
    )
    if not SMOKE:
        assert ratio >= THROUGHPUT_GATE, (
            f"concurrent sessions reach only {100 * ratio:.1f}% of sequential "
            f"throughput (gate >= {100 * THROUGHPUT_GATE:g}%)"
        )
