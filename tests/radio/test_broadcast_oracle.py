"""The exact tier's plan-based broadcast against the per-receiver oracle.

Two identically seeded environments run the same traffic — broadcasts of
two frame sizes, a few unicasts (one per round to a receiver far out of
range), positions that move between rounds — one
through ``RadioEnvironment.transmit`` and one through
:func:`tests.oracle.reference_transmit`.  The delivered-frame logs (each
arrival's key, SNR and rate; the raw ``radio.link_delay`` samples pin the
distances) and every ``radio.*`` counter must match exactly, with and without
the fault injector's extra loss, on production plans (epoch universe and
column kernel) and on the oracle's grid-candidate plans over scalar per-pair
qualities (:class:`tests.oracle.ReferenceRadioEnvironment`).
"""

import numpy as np
import pytest

from repro.geometry.vector import Vec2
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import (
    ReferenceRadioEnvironment,
    in_fire_order,
    tap_frames,
    tap_link_delays,
    use_reference_transmit,
)

ROUNDS = 4
ROUND_S = 0.5


def run_traffic(reference, extra_loss, batched_rows, seed=11, n=24):
    sim = Simulator(seed=seed)
    delays = tap_link_delays(sim)
    environment_class = RadioEnvironment if batched_rows else ReferenceRadioEnvironment
    env = environment_class(sim, LinkBudget())
    if reference:
        use_reference_transmit(env)
    env.extra_loss_probability = extra_loss
    layout = np.random.default_rng(seed)
    # Spread past the usable range so every broadcast has lossy edge links,
    # unusable candidates and spatially pruned receivers.
    span = 1.6 * env.max_range
    positions = {
        f"v{index:02d}": Vec2(*layout.uniform(-span, span, size=2).tolist())
        for index in range(n)
    }
    positions["zz-far"] = Vec2(10.0 * span, 10.0 * span)
    far_out_of_range = []
    log = []
    for name in positions:
        interface = env.attach(name, lambda name=name: positions[name])
        tap_frames(
            interface,
            lambda frame, time, sequence, snr_db, rate_bps, name=name: log.append(
                (time, sequence, name, frame.sender, frame.payload, snr_db, rate_bps)
            ),
        )

    def traffic(round_index):
        for slot, name in enumerate(sorted(positions)):
            size = 200 if slot % 3 else 900
            env.interface_of(name).send(f"b{round_index}-{name}", size)
        names = sorted(positions)
        for slot in range(0, len(names), 5):
            env.interface_of(names[slot]).send(
                f"u{round_index}-{slot}", 300, destination=names[(slot + 1) % len(names)]
            )
        before = sim.monitor.counter_value("radio.frames_out_of_range")
        env.interface_of(names[round_index]).send(
            f"far{round_index}", 300, destination="zz-far"
        )
        far_out_of_range.append(
            sim.monitor.counter_value("radio.frames_out_of_range") - before
        )
        # Move everyone a little; the next round sees a new epoch.
        for name, position in positions.items():
            positions[name] = Vec2(position.x + 17.0, position.y - 9.0)
        env.notify_positions_changed()

    for round_index in range(ROUNDS):
        sim.schedule_at(
            round_index * ROUND_S, lambda round_index=round_index: traffic(round_index)
        )
    sim.run(until=ROUNDS * ROUND_S + 1.0)
    counters = {
        name: counter.value
        for name, counter in sim.monitor.counters.items()
        if name.startswith("radio.")
    }
    return in_fire_order(log), counters, delays, far_out_of_range


@pytest.mark.parametrize("batched_rows", [True, False])
@pytest.mark.parametrize("extra_loss", [0.0, 0.3])
def test_plan_broadcast_matches_per_receiver_oracle(extra_loss, batched_rows):
    plan_run = run_traffic(False, extra_loss, batched_rows)
    oracle_run = run_traffic(True, extra_loss, batched_rows)
    log, counters, delays, far_out_of_range = plan_run
    assert log == oracle_run[0]
    assert counters == oracle_run[1]
    assert delays == oracle_run[2]
    # Each unicast to the far receiver counts once, on both paths.
    assert far_out_of_range == oracle_run[3] == [1] * ROUNDS
    # The comparison must bite: deliveries, PER losses and pruned receivers.
    assert len(log) > 100
    assert counters["radio.frames_lost"] > 0
    assert counters["radio.frames_out_of_range"] > 0
    assert counters["radio.frames_delivered"] == len(log)
    if extra_loss:
        clean_lost = run_traffic(False, 0.0, batched_rows)[1]["radio.frames_lost"]
        assert counters["radio.frames_lost"] > 2 * clean_lost
