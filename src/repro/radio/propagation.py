"""Path-loss models.

Two standard models are provided.  Both return path loss in dB for a given
transmitter/receiver distance; the log-distance model additionally applies a
fixed non-line-of-sight (NLOS) penalty when a building blocks the direct
path, which is what makes the "looking around the corner" geometry matter for
communication as well as for perception.

Each model also answers the batched form used by the radio environment's
per-sender plans: one call for all receivers of one sender, with the
constants hoisted and a single line-of-sight batch query.  The batched
results are **bit-identical** to the scalar ones: all transcendental
evaluations go through the same :mod:`math` C-library entry points as the
scalar path (numpy's SIMD ``log10``/``exp`` kernels round differently in the
last ulp, which would break the byte-identical reference-flag contract),
while the surrounding additions and multiplications — exact IEEE operations
— are applied in the same association order.

The *statistical* equivalence tier (``fast_math=True`` on
:class:`~repro.radio.link.LinkBudget`, see ``docs/PERFORMANCE.md``) drops
the byte-identity requirement and uses the ``path_loss_db_simd`` variants
below: full numpy SIMD ``log10`` over a distance *array*, differing from the
exact kernels only in the last ulp.  Distribution-level agreement between
the two tiers is what the statistical-equivalence harness
(``tests/properties/test_property_statistical_equivalence.py`` and
benchmark E15) asserts.
"""

from __future__ import annotations

import math
from typing import Optional, Protocol, Sequence

import numpy as np

from repro.geometry.los import VisibilityMap
from repro.geometry.vector import Vec2

SPEED_OF_LIGHT = 299_792_458.0


class PropagationModel(Protocol):
    """Interface of every path-loss model.

    ``path_loss_db`` is the scalar reference.  ``path_loss_db_batch(tx, rxs,
    distances, visibility)`` returns per-receiver losses bit-identical to it
    applied pairwise, with ``distances[i] == tx.distance_to(rxs[i])``; the
    exact tier's column kernel
    (:meth:`~repro.radio.link.LinkBudget.exact_arrays_xy`) calls it.
    ``path_loss_db_simd`` takes the same arguments with an ``ndarray`` of
    distances and returns an ``ndarray`` of losses from numpy SIMD kernels,
    last-ulp different; the statistical tier's fused kernel
    (:meth:`~repro.radio.link.LinkBudget.quality_arrays_xy`) calls it.
    """

    def path_loss_db(
        self, tx: Vec2, rx: Vec2, visibility: Optional[VisibilityMap] = None
    ) -> float:
        """Path loss in dB between transmitter and receiver positions."""
        ...

    def path_loss_db_batch(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: Sequence[float],
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Per-receiver losses, bit-identical to :meth:`path_loss_db`."""
        ...

    def path_loss_db_simd(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: np.ndarray,
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Per-receiver losses from numpy SIMD kernels (statistical tier)."""
        ...


class FreeSpacePathLoss:
    """Friis free-space path loss.

    ``PL(d) = 20 log10(d) + 20 log10(f) + 20 log10(4π/c)``
    """

    def __init__(self, frequency_hz: float = 5.9e9) -> None:
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        self.frequency_hz = frequency_hz

    def path_loss_db(
        self, tx: Vec2, rx: Vec2, visibility: Optional[VisibilityMap] = None
    ) -> float:
        """Free-space loss; ignores obstacles entirely."""
        distance = max(1.0, tx.distance_to(rx))
        return (
            20.0 * math.log10(distance)
            + 20.0 * math.log10(self.frequency_hz)
            + 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
        )

    def path_loss_db_batch(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: Sequence[float],
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Vectorised free-space losses (obstacles ignored, as in the scalar
        path).  The two frequency-dependent terms are evaluated once and
        added in the scalar path's association order."""
        frequency_term = 20.0 * math.log10(self.frequency_hz)
        geometry_term = 20.0 * math.log10(4.0 * math.pi / SPEED_OF_LIGHT)
        distances = np.asarray(distances, dtype=np.float64)
        clamped = np.where(distances > 1.0, distances, 1.0)
        log_terms = 20.0 * np.fromiter(
            map(math.log10, clamped.tolist()), np.float64, len(clamped)
        )
        return (log_terms + frequency_term) + geometry_term

    def path_loss_db_simd(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: np.ndarray,
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Statistical-tier losses: one numpy SIMD ``log10`` over the array.

        ``distances`` is already an ``ndarray`` (the fused fast kernel
        computes it with ``np.hypot``).  Equal to
        :meth:`path_loss_db_batch` up to the last ulp of the transcendental.
        """
        clamped = np.maximum(distances, 1.0)
        constant = 20.0 * math.log10(self.frequency_hz) + 20.0 * math.log10(
            4.0 * math.pi / SPEED_OF_LIGHT
        )
        return 20.0 * np.log10(clamped) + constant


class LogDistancePathLoss:
    """Log-distance path loss with an NLOS obstruction penalty.

    ``PL(d) = PL(d0) + 10·n·log10(d/d0) [+ nlos_penalty_db if occluded]``

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (2 = free space, 2.7–3.5 urban).
    reference_distance:
        ``d0`` in metres.
    frequency_hz:
        Carrier frequency, used for the reference loss at ``d0``.
    nlos_penalty_db:
        Extra attenuation applied when the direct path is occluded by a
        building footprint (typical corner-diffraction losses are 10–25 dB).
    """

    def __init__(
        self,
        exponent: float = 2.75,
        reference_distance: float = 1.0,
        frequency_hz: float = 5.9e9,
        nlos_penalty_db: float = 15.0,
    ) -> None:
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if reference_distance <= 0:
            raise ValueError("reference distance must be positive")
        self.exponent = exponent
        self.reference_distance = reference_distance
        self.nlos_penalty_db = nlos_penalty_db
        self._reference_loss = FreeSpacePathLoss(frequency_hz).path_loss_db(
            Vec2(0.0, 0.0), Vec2(reference_distance, 0.0)
        )

    def path_loss_db(
        self, tx: Vec2, rx: Vec2, visibility: Optional[VisibilityMap] = None
    ) -> float:
        """Log-distance loss plus the NLOS penalty when occluded."""
        distance = max(self.reference_distance, tx.distance_to(rx))
        loss = self._reference_loss + 10.0 * self.exponent * math.log10(
            distance / self.reference_distance
        )
        if visibility is not None and visibility.is_occluded(tx, rx):
            loss += self.nlos_penalty_db
        return loss

    def path_loss_db_batch(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: Sequence[float],
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Vectorised log-distance losses with one LOS batch call.

        The reference loss and the ``10·n`` scale are hoisted; occlusion for
        every receiver is resolved by a single
        :meth:`~repro.geometry.los.VisibilityMap.line_of_sight_batch` query
        instead of one obstacle scan per pair.
        """
        d0 = self.reference_distance
        distances = np.asarray(distances, dtype=np.float64)
        ratios = np.where(distances > d0, distances, d0) / d0
        log_terms = np.fromiter(
            map(math.log10, ratios.tolist()), np.float64, len(ratios)
        )
        losses = self._reference_loss + (10.0 * self.exponent) * log_terms
        if visibility is not None:
            occluded = ~np.fromiter(
                visibility.line_of_sight_batch(tx, rxs), np.bool_, len(rxs)
            )
            if occluded.any():
                losses[occluded] += self.nlos_penalty_db
        return losses

    def path_loss_db_simd(
        self,
        tx: Vec2,
        rxs: Sequence[Vec2],
        distances: np.ndarray,
        visibility: Optional[VisibilityMap] = None,
    ) -> np.ndarray:
        """Statistical-tier losses: numpy SIMD ``log10``, vectorised NLOS add.

        The line-of-sight query itself is geometry, not floating-point
        rounding — it runs through the same (obstacle-indexed) batch call as
        the exact kernel, so the two tiers shadow exactly the same links.
        """
        d0 = self.reference_distance
        clamped = np.maximum(distances, d0)
        losses = self._reference_loss + (10.0 * self.exponent) * np.log10(
            clamped / d0
        )
        if visibility is not None:
            occluded = ~np.fromiter(
                visibility.line_of_sight_batch(tx, rxs), np.bool_, len(rxs)
            )
            if occluded.any():
                losses[occluded] += self.nlos_penalty_db
        return losses
