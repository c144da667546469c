"""Deterministic expansion of fault knobs into an explicit event timeline.

The reproducibility contract of the whole subsystem lives here: a
:class:`FaultSchedule` turns a handful of seeded knobs (:class:`FaultKnobs`)
into an explicit, sorted list of :class:`FaultEvent` s as a *pure function of
``(seed, knobs, node names, window)``*.  Nothing in this module ever touches
a simulator or its random streams — the schedule draws from its own
generators, derived with the same :func:`~repro.simcore.rng.derive_seed`
scheme the simulator uses, so:

* the same ``(seed, knobs)`` always expands to the same timeline, no matter
  what the simulation itself draws (property-tested);
* each node's crash/recovery sequence comes from a generator derived from
  the *node's name*, so adding or removing other nodes never perturbs it;
* a null schedule (:attr:`FaultKnobs.is_null`) expands to **no events and no
  draws at all** — armed on a simulation, it is byte-invisible (benchmark
  E14 asserts the delivered-frame sequence is identical to an injector-free
  run at fixed seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.faults.adversary import ADVERSARY_PROFILES, MIXED_PROFILE
from repro.simcore.rng import derive_seed

#: Event kinds a schedule can emit (paired: every start has a matching end).
CRASH = "crash"
RECOVER = "recover"
RADIO_DEGRADE = "radio_degrade"
RADIO_RESTORE = "radio_restore"
LOSS_START = "loss_start"
LOSS_END = "loss_end"


@dataclass(frozen=True)
class FaultKnobs:
    """Every tunable of the fault subsystem, validated fail-fast.

    The first five fields are the sweepable scenario knobs (mirrored on
    :class:`~repro.scenarios.base.BaseScenarioConfig`); the rest shape the
    burst processes and rarely need changing.

    Attributes
    ----------
    crash_rate:
        Expected crashes per node per simulated second (Poisson process per
        node; 0 disables churn).
    mean_downtime:
        Mean seconds a crashed node stays down (exponentially distributed).
    radio_degradation:
        Extra receiver noise figure in dB applied during fleet-wide
        degradation bursts (0 disables the burst process).
    malicious_fraction:
        Fraction of the fleet assigned an adversary profile; the count is
        ``round(fraction * n)``, so small fleets with small fractions may
        legitimately end up with zero adversaries.
    adversary_profile:
        Profile name from :data:`~repro.faults.adversary.ADVERSARY_PROFILES`
        (or ``"mixed"`` to cycle through all of them).
    loss_burst_rate:
        Fleet-wide message-loss bursts per second (0 disables).
    loss_burst_probability:
        Extra frame-drop probability while a loss burst is active.
    degradation_rate:
        Degradation bursts per second while ``radio_degradation > 0``.
    degradation_duration:
        Mean seconds one degradation burst lasts.
    loss_burst_duration:
        Mean seconds one message-loss burst lasts.
    """

    crash_rate: float = 0.0
    mean_downtime: float = 5.0
    radio_degradation: float = 0.0
    malicious_fraction: float = 0.0
    adversary_profile: str = "liar"
    loss_burst_rate: float = 0.0
    loss_burst_probability: float = 0.5
    degradation_rate: float = 0.05
    degradation_duration: float = 3.0
    loss_burst_duration: float = 1.5

    def __post_init__(self) -> None:
        """Fail fast on nonsensical knob values (these are swept via --set)."""
        if self.crash_rate < 0:
            raise ValueError(f"crash_rate must be >= 0, got {self.crash_rate}")
        if self.mean_downtime <= 0:
            raise ValueError(
                f"mean_downtime must be positive, got {self.mean_downtime}"
            )
        if self.radio_degradation < 0:
            raise ValueError(
                f"radio_degradation must be >= 0 dB, got {self.radio_degradation}"
            )
        if not 0.0 <= self.malicious_fraction <= 1.0:
            raise ValueError(
                f"malicious_fraction must be in [0, 1], got {self.malicious_fraction}"
            )
        known = sorted(ADVERSARY_PROFILES) + [MIXED_PROFILE]
        if self.adversary_profile not in known:
            raise ValueError(
                f"unknown adversary_profile {self.adversary_profile!r} "
                f"(known: {', '.join(known)})"
            )
        if self.loss_burst_rate < 0:
            raise ValueError(
                f"loss_burst_rate must be >= 0, got {self.loss_burst_rate}"
            )
        if not 0.0 <= self.loss_burst_probability <= 1.0:
            raise ValueError(
                "loss_burst_probability must be in [0, 1], "
                f"got {self.loss_burst_probability}"
            )
        if self.degradation_rate < 0:
            raise ValueError(
                f"degradation_rate must be >= 0, got {self.degradation_rate}"
            )
        if self.degradation_duration <= 0:
            raise ValueError(
                f"degradation_duration must be positive, got {self.degradation_duration}"
            )
        if self.loss_burst_duration <= 0:
            raise ValueError(
                f"loss_burst_duration must be positive, got {self.loss_burst_duration}"
            )

    @property
    def is_null(self) -> bool:
        """Whether these knobs inject nothing at all (the default)."""
        return (
            self.crash_rate == 0.0
            and self.radio_degradation == 0.0
            and self.loss_burst_rate == 0.0
            and self.malicious_fraction == 0.0
        )


@dataclass(frozen=True)
class FaultEvent:
    """One entry of an expanded fault timeline.

    ``node`` is set for crash/recover events; ``magnitude`` carries the dB
    bump for radio events and the drop probability for loss events, on both
    the start *and* the matching end event so the injector can maintain a
    stack of overlapping bursts without pairing state.
    """

    time: float
    kind: str
    node: str = ""
    magnitude: float = 0.0


class FaultSchedule:
    """Pure, seeded expansion of :class:`FaultKnobs` into fault events."""

    def __init__(self, knobs: FaultKnobs, seed: int = 0) -> None:
        self.knobs = knobs
        self.seed = int(seed)

    def _rng(self, label: str) -> np.random.Generator:
        """A private generator for one sub-process of the schedule."""
        return np.random.default_rng(derive_seed(self.seed, f"faults:{label}"))

    # ---------------------------------------------------------- adversaries

    def adversary_assignment(self, node_names: Sequence[str]) -> Dict[str, str]:
        """Seeded ``node name → profile name`` map for the malicious subset.

        Picks ``round(malicious_fraction · n)`` of the (sorted) names without
        replacement.  ``"mixed"`` cycles deterministically through every
        registered profile in name order.  Draws nothing when the resulting
        count is zero.
        """
        fraction = self.knobs.malicious_fraction
        names = sorted(node_names)
        count = int(fraction * len(names) + 0.5)
        if count == 0:
            return {}
        rng = self._rng("adversaries")
        chosen = sorted(rng.choice(names, size=count, replace=False).tolist())
        if self.knobs.adversary_profile == MIXED_PROFILE:
            cycle = sorted(ADVERSARY_PROFILES)
            return {name: cycle[i % len(cycle)] for i, name in enumerate(chosen)}
        return {name: self.knobs.adversary_profile for name in chosen}

    # ------------------------------------------------------------- timeline

    def timeline(
        self, node_names: Sequence[str], start: float, duration: float
    ) -> List[FaultEvent]:
        """All fault events whose *start* falls in ``[start, start+duration)``.

        Recovery / restore events may land beyond the window end — a crash
        near the end of a run legitimately outlives it; armed on a simulator
        they simply stay queued past ``run(until=...)``.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        end = start + duration
        events: List[FaultEvent] = []
        knobs = self.knobs
        if knobs.crash_rate > 0:
            for name in sorted(node_names):
                # Per-node generator, additionally qualified by the window
                # start so consecutive run() windows stay independent.
                rng = self._rng(f"crash:{name}@{start!r}")
                t = start
                while True:
                    t += float(rng.exponential(1.0 / knobs.crash_rate))
                    if t >= end:
                        break
                    downtime = float(rng.exponential(knobs.mean_downtime))
                    events.append(FaultEvent(t, CRASH, node=name))
                    events.append(FaultEvent(t + downtime, RECOVER, node=name))
                    t += downtime
        if knobs.radio_degradation > 0 and knobs.degradation_rate > 0:
            events.extend(
                self._bursts(
                    "radio",
                    start,
                    end,
                    rate=knobs.degradation_rate,
                    mean_duration=knobs.degradation_duration,
                    magnitude=knobs.radio_degradation,
                    start_kind=RADIO_DEGRADE,
                    end_kind=RADIO_RESTORE,
                )
            )
        if knobs.loss_burst_rate > 0 and knobs.loss_burst_probability > 0:
            events.extend(
                self._bursts(
                    "loss",
                    start,
                    end,
                    rate=knobs.loss_burst_rate,
                    mean_duration=knobs.loss_burst_duration,
                    magnitude=knobs.loss_burst_probability,
                    start_kind=LOSS_START,
                    end_kind=LOSS_END,
                )
            )
        events.sort(key=lambda e: (e.time, e.kind, e.node))
        return events

    def _bursts(
        self,
        label: str,
        start: float,
        end: float,
        rate: float,
        mean_duration: float,
        magnitude: float,
        start_kind: str,
        end_kind: str,
    ) -> List[FaultEvent]:
        """One fleet-wide Poisson burst process; bursts may overlap."""
        rng = self._rng(f"{label}@{start!r}")
        events: List[FaultEvent] = []
        t = start
        while True:
            t += float(rng.exponential(1.0 / rate))
            if t >= end:
                break
            length = float(rng.exponential(mean_duration))
            events.append(FaultEvent(t, start_kind, magnitude=magnitude))
            events.append(FaultEvent(t + length, end_kind, magnitude=magnitude))
        return events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule(seed={self.seed}, knobs={self.knobs})"


def null_schedule(seed: int = 0) -> FaultSchedule:
    """A schedule that injects nothing (used by determinism tests)."""
    return FaultSchedule(FaultKnobs(), seed=seed)
