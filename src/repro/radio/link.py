"""Link budgets: from path loss to achievable data rate and loss probability.

The :class:`LinkBudget` converts transmit power and path loss into SNR, an
achievable rate (a capped fraction of Shannon capacity), a packet error rate
and an effective range — all the quantities the mesh transport and the AirDnD
candidate scorer consume.

Two evaluation forms exist: the scalar :meth:`LinkBudget.quality` (one pair,
the exact reference on both tiers) and the column kernels (one sender, all
its receivers in one pass), which the radio environment's per-sender plans
call.  On the default **exact** equivalence tier the kernel is
:meth:`LinkBudget.exact_arrays_xy`, **bit-identical** to the scalar path by
construction: numpy carries the exact IEEE arithmetic (subtraction,
scaling, thresholding, the rate cap) in the scalar association order, while
the transcendentals (``hypot``/``log10``/``pow``/``log2``/``exp``) run as
``map`` over the same :mod:`math` C-library entry points — the iteration
happens in C, and numpy's SIMD kernels for those functions, which round
differently in the last ulp, are never called.  The radio environment's
sender plans, which serve broadcast and unicast alike, come from this one
kernel, and benchmark E13 asserts its byte-identical contract against the
scalar reference (``ReferenceRadioEnvironment`` in ``tests/oracle.py``).

``fast_math=True`` selects the **statistical** equivalence tier instead:
:meth:`LinkBudget.quality_arrays_xy`, a fused path-loss→SNR→rate→PER
kernel on numpy SIMD ``hypot``/``log10``/``log2``/``exp``.  Its outputs
differ from the exact tier in the last ulp, which is enough to flip
individual RNG loss comparisons — so the statistical tier promises
*distribution-level* agreement of per-run aggregate metrics (asserted over
a seed ensemble by ``tests/properties/test_property_statistical_equivalence
.py`` and benchmark E15), not byte-level frame identity.  The tier table
lives in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.geometry.los import VisibilityMap
from repro.geometry.vector import Vec2
from repro.radio.propagation import LogDistancePathLoss, PropagationModel

BOLTZMANN = 1.380649e-23


@dataclass(frozen=True, slots=True)
class LinkQuality:
    """Snapshot of one directed link's quality.

    Attributes
    ----------
    snr_db:
        Signal-to-noise ratio in dB.
    rate_bps:
        Achievable data rate in bits per second (0 when unusable).
    packet_error_rate:
        Probability a transmitted frame is lost.
    usable:
        Whether the link clears the minimum SNR threshold.
    distance:
        Transmitter–receiver distance in metres.
    """

    snr_db: float
    rate_bps: float
    packet_error_rate: float
    usable: bool
    distance: float


class LinkBudget:
    """Computes :class:`LinkQuality` between two positions.

    Parameters
    ----------
    propagation:
        Path-loss model (defaults to urban log-distance with NLOS penalty).
    tx_power_dbm:
        Transmit power (23 dBm is typical for V2X sidelink).
    bandwidth_hz:
        Channel bandwidth (10 MHz ITS channel by default).
    noise_figure_db:
        Receiver noise figure.
    min_snr_db:
        Below this SNR the link is unusable.
    max_rate_bps:
        Hardware cap on the achievable rate.
    efficiency:
        Fraction of Shannon capacity actually achieved.
    fast_math:
        Equivalence tier of the column kernels.  ``False`` (default) is the
        *exact* tier: :meth:`exact_arrays_xy` is bit-identical to the scalar
        :meth:`quality`.  ``True`` is the *statistical* tier: the fused numpy SIMD
        kernel, last-ulp different, distribution-level equivalent (see the
        module docstring).
    """

    def __init__(
        self,
        propagation: Optional[PropagationModel] = None,
        tx_power_dbm: float = 23.0,
        bandwidth_hz: float = 10e6,
        noise_figure_db: float = 9.0,
        min_snr_db: float = 3.0,
        max_rate_bps: float = 27e6,
        efficiency: float = 0.6,
        temperature_k: float = 290.0,
        fast_math: bool = False,
    ) -> None:
        if not isinstance(fast_math, bool):
            raise ValueError(
                "fast_math selects the equivalence tier and must be a bool "
                f"(False=exact, True=statistical), got {fast_math!r}"
            )
        self.propagation = propagation or LogDistancePathLoss()
        self.fast_math = fast_math
        self.tx_power_dbm = tx_power_dbm
        self.bandwidth_hz = bandwidth_hz
        self.noise_figure_db = noise_figure_db
        self.min_snr_db = min_snr_db
        self.max_rate_bps = max_rate_bps
        self.efficiency = efficiency
        noise_w = BOLTZMANN * temperature_k * bandwidth_hz
        self.noise_dbm = 10.0 * math.log10(noise_w * 1e3) + noise_figure_db
        #: Transient extra noise figure (dB) on top of ``noise_dbm``; the
        #: fault injector raises it during radio-degradation bursts and
        #: restores it to exactly 0.0 afterwards.  At 0.0 the SNR arithmetic
        #: is bit-identical to a budget without the knob (``x + 0.0 == x``
        #: for every finite noise floor), so the injector-free reference
        #: contract of benchmarks E13/E14 is preserved.
        self.noise_penalty_db = 0.0

    # -------------------------------------------------------------- quality

    def snr_db(
        self, tx: Vec2, rx: Vec2, visibility: Optional[VisibilityMap] = None
    ) -> float:
        """SNR of the link between two positions."""
        loss = self.propagation.path_loss_db(tx, rx, visibility)
        rx_power_dbm = self.tx_power_dbm - loss
        return rx_power_dbm - (self.noise_dbm + self.noise_penalty_db)

    def quality(
        self, tx: Vec2, rx: Vec2, visibility: Optional[VisibilityMap] = None
    ) -> LinkQuality:
        """Full :class:`LinkQuality` between two positions.

        The scalar exact reference on both tiers: the statistical tier's
        fused kernel serves only the radio environment's sender plans.
        """
        snr = self.snr_db(tx, rx, visibility)
        distance = tx.distance_to(rx)
        if snr < self.min_snr_db:
            return LinkQuality(snr, 0.0, 1.0, False, distance)
        capacity = self.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr / 10.0))
        rate = min(self.max_rate_bps, self.efficiency * capacity)
        per = self.packet_error_rate(snr)
        return LinkQuality(snr, rate, per, True, distance)

    def packet_error_rate(self, snr_db: float) -> float:
        """Smooth SNR→PER curve: ~0.5 at threshold, →0 with 10+ dB margin."""
        margin = snr_db - self.min_snr_db
        return 1.0 / (1.0 + math.exp(0.9 * margin))

    def exact_arrays_xy(
        self,
        tx: Vec2,
        xs: np.ndarray,
        ys: np.ndarray,
        visibility: Optional[VisibilityMap] = None,
        *,
        rxs: Sequence[Vec2],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The exact-tier kernel: :meth:`quality` for a column of receivers.

        Returns ``(snrs, rates, pers, usable, distances)``; element ``i`` is
        bit-identical to ``quality(tx, rxs[i], visibility)`` (see the module
        docstring).  ``xs``/``ys`` are the coordinates of ``rxs``, which the
        propagation model's line-of-sight batch reads.
        """
        count = len(xs)
        distances = np.fromiter(
            map(math.hypot, (xs - tx.x).tolist(), (ys - tx.y).tolist()),
            np.float64,
            count,
        )
        losses = self.propagation.path_loss_db_batch(tx, rxs, distances, visibility)
        snrs = (self.tx_power_dbm - losses) - (self.noise_dbm + self.noise_penalty_db)
        # Mirror the scalar branch condition exactly (`snr < min` selects the
        # unusable arm), not its negation, so NaN SNRs land on the same side.
        usable = ~(snrs < self.min_snr_db)
        rates = np.zeros(count)
        pers = np.ones(count)
        live = snrs[usable]
        if live.size:
            powers = np.fromiter(
                map(math.pow, repeat(10.0), (live / 10.0).tolist()),
                np.float64,
                live.size,
            )
            capacity = self.bandwidth_hz * np.fromiter(
                map(math.log2, (1.0 + powers).tolist()), np.float64, live.size
            )
            rate = self.efficiency * capacity
            # `min(max_rate, rate)`: the cap wins unless the rate is smaller.
            rates[usable] = np.where(rate < self.max_rate_bps, rate, self.max_rate_bps)
            growth = np.fromiter(
                map(math.exp, (0.9 * (live - self.min_snr_db)).tolist()),
                np.float64,
                live.size,
            )
            pers[usable] = 1.0 / (1.0 + growth)
        return snrs, rates, pers, usable, distances

    def quality_arrays_xy(
        self,
        tx: Vec2,
        xs: np.ndarray,
        ys: np.ndarray,
        visibility: Optional[VisibilityMap] = None,
        *,
        rxs: Sequence[Vec2],
        distances: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The fused statistical-tier kernel: one numpy pass, no inner loop.

        Path loss (the propagation model's ``path_loss_db_simd``), SNR,
        Shannon rate (``np.log2``), the rate cap and the logistic PER
        (``np.exp``) are all computed on whole arrays and returned as the
        columns ``(snrs, rates, pers, usable, distances)``, like
        :meth:`exact_arrays_xy`, whose signature it shares.  The kernel
        reads the receivers' :class:`Vec2` objects ``rxs`` (for the
        line-of-sight batch) and their sender→receiver ``distances``, which
        the radio environment already holds from its range mask; the
        coordinate columns ``xs``/``ys`` are implied by them.
        """
        losses = self.propagation.path_loss_db_simd(tx, rxs, distances, visibility)
        snrs = (self.tx_power_dbm - losses) - (
            self.noise_dbm + self.noise_penalty_db
        )
        # Same branch sense as the exact kernel: `snr < min` selects the
        # unusable arm, so NaN SNRs land on the usable side there and here.
        unusable = snrs < self.min_snr_db
        margins = snrs - self.min_snr_db
        with np.errstate(over="ignore"):
            # exp overflows to inf for hopeless links (PER -> 1.0 exactly)
            # and the Shannon term overflows only for physically absurd SNRs.
            pers = 1.0 / (1.0 + np.exp(0.9 * margins))
            rates = np.minimum(
                self.max_rate_bps,
                (self.efficiency * self.bandwidth_hz)
                * np.log2(1.0 + 10.0 ** (snrs * 0.1)),
            )
        rates[unusable] = 0.0
        pers[unusable] = 1.0
        return snrs, rates, pers, ~unusable, distances

    # ---------------------------------------------------------------- range

    def effective_range(
        self, visibility: Optional[VisibilityMap] = None, step: float = 5.0
    ) -> float:
        """Largest distance at which a line-of-sight link is still usable.

        Computed by stepping outward until the SNR drops below threshold; the
        mesh discovery layer uses this to size its spatial-index queries.
        """
        origin = Vec2(0.0, 0.0)
        distance = step
        last_usable = 0.0
        while distance < 10_000.0:
            snr = self.snr_db(origin, Vec2(distance, 0.0), None)
            if snr < self.min_snr_db:
                break
            last_usable = distance
            distance += step
        return last_usable

    def transfer_time(self, size_bits: float, rate_bps: float) -> float:
        """Seconds needed to move ``size_bits`` at ``rate_bps``."""
        if rate_bps <= 0:
            return math.inf
        return size_bits / rate_bps
