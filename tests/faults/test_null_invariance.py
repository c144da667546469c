"""The determinism contract: a null schedule is byte-invisible.

Benchmark E14 asserts this at fleet scale; this unit test keeps the same
contract in the tier-1 suite with a small fleet, so a regression is caught
in seconds rather than in the benchmark run.
"""

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDNode
from repro.faults import FaultInjector, null_schedule
from repro.geometry.vector import Vec2
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import in_fire_order

DURATION_S = 5.0


def run_fleet(with_null_injector: bool, seed: int = 77):
    sim = Simulator(seed=seed)
    environment = RadioEnvironment(sim, LinkBudget())
    registry = FunctionRegistry()
    registry.register(
        FunctionDefinition("answer", lambda p, d: 42, lambda p: 5e7, result_size_bytes=300)
    )
    log = []
    nodes = []
    for index in range(4):
        mobile = StaticNode(sim, Vec2(index * 45.0, 0.0), name=f"n-{index}")
        node = AirDnDNode(sim, environment, mobile, registry)
        receiver = node.name
        # Each simulation numbers its own frames, so the two runs in this
        # process must agree on frame ids too.
        node.mesh.on_frame(
            lambda frame, time, sequence, *link, receiver=receiver: log.append(
                (time, sequence, frame.frame_id, frame.sender, receiver, *link)
            )
        )
        nodes.append(node)
    if with_null_injector:
        injector = FaultInjector(sim, nodes, environment=environment)
        assert injector.arm(null_schedule(seed), start=0.0, duration=DURATION_S) == 0
    sim.schedule(1.0, lambda: nodes[0].submit_function("answer"))
    sim.run(until=DURATION_S)
    counters = {
        name: sim.monitor.counter_value(name)
        for name in (
            "radio.frames_delivered",
            "radio.frames_lost",
            "radio.frames_out_of_range",
            "radio.bytes_delivered",
        )
    }
    return in_fire_order(log), counters


def test_null_injector_runs_are_byte_identical():
    reference_log, reference_counters = run_fleet(with_null_injector=False)
    null_log, null_counters = run_fleet(with_null_injector=True)
    assert reference_counters["radio.frames_delivered"] > 0
    assert null_counters == reference_counters
    assert null_log == reference_log
