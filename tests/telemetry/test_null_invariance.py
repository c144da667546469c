"""The telemetry zero-perturbation contract, certified at scenario level.

Benchmark E19 asserts this at N=1000 fleet scale; this suite keeps the same
contract in the tier-1 suite with small fleets, so a regression — a tracer
that draws RNG, a metrics render that creates a metric inside the sim — is
caught in seconds, across every scenario, both equivalence tiers, and an
*active* fault window (crashes firing, adversaries lying).

Each case runs the identical piecewise window drive twice: once plain, once
inside ``activate(Tracer())`` with a Prometheus render after every slice
(the heaviest realistic observation load — a scraper hitting the endpoint
mid-step).  The delivered-frame sequence, the report, and the post-run
snapshot bytes (which hold every RNG stream's state) must be
byte-identical.
"""

import json

import pytest

from repro.scenarios import build_scenario
from repro.snapshot.verify import DeliveredFrameLog
from repro.telemetry.prometheus import monitor_points, render_exposition
from repro.telemetry.trace import Tracer, activate, current_tracer

DURATION_S = 4.0
SEED = 11

#: An *active* fault window: with n=4–6 nodes, crash_rate=0.2 schedules real
#: downtime and malicious_fraction=0.25 assigns at least one adversary, so
#: invariance is proven while the injector is actually doing things.
FAULT_KNOBS = {"crash_rate": 0.2, "malicious_fraction": 0.25}


def drive(name: str, fast_math: bool, traced: bool):
    """One full scenario window, driven in bounded slices.

    Both arms (traced and plain) drive the window identically — the *only*
    difference is whether a tracer is active and metrics are rendered —
    so any divergence is attributable to the telemetry layer alone.
    """
    scenario = build_scenario(
        name, n=4, seed=SEED, fast_math=fast_math, **FAULT_KNOBS
    )
    log = DeliveredFrameLog().attach(scenario)

    def run_window():
        scenario.open_window(DURATION_S)
        while True:
            outcome = scenario.advance(max_events=64)
            if traced:
                # A scrape between every slice: rendering walks the live
                # monitor and must create nothing inside it.
                render_exposition(
                    monitor_points(scenario.sim.monitor, {"scenario": name})
                )
            if outcome.exhausted:
                break
        return scenario.close_window()

    if traced:
        tracer = Tracer()
        with activate(tracer):
            report = run_window()
        trace_names = {event["name"] for event in tracer.events}
    else:
        report = run_window()
        trace_names = set()
    # json round-trip: NaN report fields compare equal as the token "NaN".
    report_json = json.dumps(report.as_dict(), sort_keys=True)
    return log.records, report_json, scenario.snapshot(), trace_names


@pytest.mark.parametrize("fast_math", [False, True], ids=["exact", "statistical"])
@pytest.mark.parametrize("name", ["intersection", "urban-grid", "highway"])
def test_tracing_and_metrics_are_byte_invisible(name, fast_math):
    plain_log, plain_report, plain_blob, _ = drive(name, fast_math, traced=False)
    traced_log, traced_report, traced_blob, spans = drive(name, fast_math, traced=True)
    # The traced arm really traced: the window hooks and the event-core
    # dispatch hook all fired.
    assert {"window_open", "window_advance", "window_close"} <= spans
    assert "dispatch_batch" in spans
    # The run did real work, so the equality below is not vacuous.
    assert plain_log
    # ... and was byte-invisible.
    assert traced_log == plain_log
    assert traced_report == plain_report
    assert traced_blob == plain_blob


def test_tracer_never_leaks_out_of_activation():
    assert current_tracer() is None
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with activate(tracer):
            assert current_tracer() is tracer
            raise RuntimeError("boom")
    assert current_tracer() is None
