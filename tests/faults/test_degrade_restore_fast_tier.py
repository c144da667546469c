"""Degrade → restore must be invisible afterwards at the fast tier.

The statistical tier caches per-epoch broadcast plans (link qualities baked
in at build time).  A radio degradation that is later restored must not
linger in those caches: after restore, broadcasts must behave exactly as
they did before the degradation.  The fleet here is static and un-ticked —
no mobility epoch ever bumps on its own — so this test fails if the
degrade/restore path forgets to flush the fast-plan caches itself
(``notify_positions_changed``), which is precisely the regression it pins.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.geometry.vector import Vec2
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator

#: Two nodes comfortably in range of each other.
POSITIONS = [Vec2(0.0, 0.0), Vec2(60.0, 0.0)]


def build_pair(seed: int = 42):
    sim = Simulator(seed=seed)
    environment = RadioEnvironment(sim, LinkBudget(fast_math=True))
    received: List[Tuple[float, str, float]] = []
    interfaces = []
    for index, position in enumerate(POSITIONS):
        interface = environment.attach(
            f"n-{index}", lambda position=position: position
        )
        interface.on_broadcast(
            lambda frame, time, sequence, snr_db, _, name=f"n-{index}": (
                received.append((time, name, snr_db))
            )
        )
        interfaces.append(interface)
    return sim, environment, received, interfaces


def test_noise_penalty_restore_is_invisible_afterwards():
    sim, environment, received, interfaces = build_pair()
    sender = interfaces[0]

    sim.schedule(0.1, lambda: sender.send(None, 200, kind="beacon"))

    def degrade() -> None:
        environment.link_budget.noise_penalty_db = 40.0
        environment.notify_positions_changed()

    def restore() -> None:
        environment.link_budget.noise_penalty_db = 0.0
        environment.notify_positions_changed()

    sim.schedule(0.2, degrade)
    sim.schedule(0.3, lambda: sender.send(None, 200, kind="beacon"))
    sim.schedule(0.4, restore)
    sim.schedule(0.5, lambda: sender.send(None, 200, kind="beacon"))
    sim.run(until=1.0)

    before = [r for r in received if r[0] < 0.2]
    during = [r for r in received if 0.3 <= r[0] < 0.4]
    after = [r for r in received if r[0] >= 0.5]
    # The baseline broadcast lands; the degraded one is wiped out (40 dB of
    # extra noise floors the 60 m link); the post-restore one must land with
    # *exactly* the baseline SNR — any residue from a stale cached plan
    # (degraded SNRs surviving the restore) fails this equality.
    assert len(before) == 1
    assert during == []
    assert len(after) == 1
    assert after[0][1] == before[0][1]
    assert after[0][2] == before[0][2]


def test_extra_loss_restore_is_invisible_afterwards():
    sim, environment, received, interfaces = build_pair()
    sender = interfaces[0]

    sim.schedule(0.1, lambda: sender.send(None, 200, kind="beacon"))

    def degrade() -> None:
        environment.extra_loss_probability = 1.0

    def restore() -> None:
        environment.extra_loss_probability = 0.0

    sim.schedule(0.2, degrade)
    sim.schedule(0.3, lambda: sender.send(None, 200, kind="beacon"))
    sim.schedule(0.4, restore)
    sim.schedule(0.5, lambda: sender.send(None, 200, kind="beacon"))
    sim.run(until=1.0)

    before = [r for r in received if r[0] < 0.2]
    during = [r for r in received if 0.3 <= r[0] < 0.4]
    after = [r for r in received if r[0] >= 0.5]
    # extra_loss_probability is read live per broadcast (not baked into the
    # cached plan), so a certain-loss burst must drop exactly the frames sent
    # inside the window and nothing afterwards.
    assert len(before) == 1
    assert during == []
    assert len(after) == 1
    assert after[0][2] == before[0][2]
    assert sim.monitor.counter_value("radio.frames_lost") == 1
