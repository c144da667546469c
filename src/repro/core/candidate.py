"""RQ1: candidate executor selection.

"What qualities and properties must be considered when selecting the
computing nodes?"  AirDnD answers with an explicit two-stage procedure:

1. **Hard filters** remove neighbours that cannot possibly execute the task:
   no advertised headroom, missing required data, a link too poor to carry
   the task and its result, or a predicted contact time shorter than the
   estimated round-trip.
2. **Weighted scoring** ranks the survivors on five normalised criteria —
   compute headroom, link quality, predicted contact time, data quality and
   trust — with weights that are public, tunable parameters (ablated in
   experiment E6).

:class:`CandidateScorer` ranks a whole network view in one pass; its
per-neighbour entry point :meth:`CandidateScorer.score_neighbor` is the
reference that pass must agree with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.data_model import beacon_digest_matches, digest_quality_score
from repro.core.models import NeighborDescription, NetworkDescription, TaskDescription

#: Result size assumed when estimating a candidate's round trip, in bytes.
RESULT_SIZE_HINT = 50_000


@dataclass(frozen=True)
class ScoringWeights:
    """Relative importance of each selection criterion (need not sum to 1)."""

    compute: float = 0.3
    link: float = 0.2
    contact_time: float = 0.2
    data: float = 0.2
    trust: float = 0.1

    def __post_init__(self) -> None:
        for name, value in (
            ("compute", self.compute),
            ("link", self.link),
            ("contact_time", self.contact_time),
            ("data", self.data),
            ("trust", self.trust),
        ):
            if value < 0:
                raise ValueError(f"weight {name} cannot be negative")

    def total(self) -> float:
        """Sum of all weights (used for normalisation)."""
        return self.compute + self.link + self.contact_time + self.data + self.trust


@dataclass
class CandidateScore:
    """One neighbour's suitability for one task."""

    neighbor: NeighborDescription
    eligible: bool
    score: float
    estimated_completion_s: float
    rejection_reason: str = ""
    subscores: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Candidate node name."""
        return self.neighbor.name


class CandidateScorer:
    """Filters and ranks candidate executors for a task.

    Scoring is a pure function of the network view, the task and the
    scorer's knobs, and the scorer keeps no state between calls, so one
    instance can serve every node of a scenario.  :meth:`all_scores` scores
    a view in one pass, and :meth:`rank` filters and sorts its result.

    Parameters
    ----------
    weights:
        The :class:`ScoringWeights` to use.
    min_trust:
        Candidates below this trust score are filtered out.
    contact_margin:
        Multiplier applied to the estimated round-trip when checking it fits
        in the predicted contact time (>1 keeps a safety margin).
    max_beacon_age_s:
        Beacons older than this are considered too stale to act on.
    reference_headroom_ops:
        Headroom at which the compute subscore saturates at 1.0.
    reference_rate_bps:
        Link rate at which the link subscore saturates at 1.0.
    reference_contact_s:
        Contact time at which the contact subscore saturates at 1.0.
    """

    def __init__(
        self,
        weights: Optional[ScoringWeights] = None,
        min_trust: float = 0.3,
        contact_margin: float = 1.5,
        max_beacon_age_s: float = 2.0,
        reference_headroom_ops: float = 5e9,
        reference_rate_bps: float = 20e6,
        reference_contact_s: float = 20.0,
    ) -> None:
        self.weights = weights or ScoringWeights()
        self.min_trust = min_trust
        self.contact_margin = contact_margin
        self.max_beacon_age_s = max_beacon_age_s
        self.reference_headroom_ops = reference_headroom_ops
        self.reference_rate_bps = reference_rate_bps
        self.reference_contact_s = reference_contact_s

    # ------------------------------------------------------------ estimates

    def estimate_completion_time(
        self, neighbor: NeighborDescription, task: TaskDescription
    ) -> float:
        """Estimated seconds from offload to result arrival via ``neighbor``."""
        if neighbor.link_rate_bps <= 0:
            return math.inf
        transfer_out = (task.size_bytes * 8) / neighbor.link_rate_bps
        transfer_back = (RESULT_SIZE_HINT * 8) / neighbor.link_rate_bps
        headroom = max(neighbor.compute_headroom_ops, 1e6)
        compute = task.operations / headroom
        queue_penalty = 0.05 * neighbor.queue_length
        return transfer_out + compute + transfer_back + queue_penalty

    # -------------------------------------------------------------- scoring

    def score_neighbor(
        self, neighbor: NeighborDescription, task: TaskDescription
    ) -> CandidateScore:
        """Filter and score one neighbour for one task.

        The plain statement of the selection rule; :meth:`all_scores`
        inlines it and must return equal scores.
        """
        completion = self.estimate_completion_time(neighbor, task)

        # ---- hard filters -------------------------------------------------
        if neighbor.beacon_age_s > self.max_beacon_age_s:
            return CandidateScore(neighbor, False, 0.0, completion, "beacon too stale")
        if neighbor.compute_headroom_ops <= 0:
            return CandidateScore(neighbor, False, 0.0, completion, "no compute headroom")
        if neighbor.link_rate_bps <= 0:
            return CandidateScore(neighbor, False, 0.0, completion, "link unusable")
        if neighbor.trust_score < self.min_trust:
            return CandidateScore(neighbor, False, 0.0, completion, "trust below threshold")
        if task.data is not None and not beacon_digest_matches(neighbor, task.data):
            return CandidateScore(neighbor, False, 0.0, completion, "required data not advertised")
        if task.deadline_s > 0 and completion > task.deadline_s:
            return CandidateScore(neighbor, False, 0.0, completion, "cannot meet deadline")
        required_window = completion * self.contact_margin
        if neighbor.predicted_contact_time_s < required_window:
            return CandidateScore(
                neighbor, False, 0.0, completion, "predicted contact time too short"
            )

        # ---- weighted scoring --------------------------------------------
        compute_score = min(1.0, neighbor.compute_headroom_ops / self.reference_headroom_ops)
        link_score = min(1.0, neighbor.link_rate_bps / self.reference_rate_bps)
        contact = neighbor.predicted_contact_time_s
        contact_score = 1.0 if math.isinf(contact) else min(1.0, contact / self.reference_contact_s)
        data_score = (
            digest_quality_score(neighbor, task.data) if task.data is not None else 1.0
        )
        trust_score = min(1.0, max(0.0, neighbor.trust_score))

        weights = self.weights
        total_weight = max(weights.total(), 1e-9)
        score = (
            weights.compute * compute_score
            + weights.link * link_score
            + weights.contact_time * contact_score
            + weights.data * data_score
            + weights.trust * trust_score
        ) / total_weight
        return CandidateScore(
            neighbor,
            True,
            score,
            completion,
            subscores={
                "compute": compute_score,
                "link": link_score,
                "contact_time": contact_score,
                "data": data_score,
                "trust": trust_score,
            },
        )

    @property
    def cache_hit_rate(self) -> float:
        """Always ``0.0``: the scorer keeps no memo.

        Kept only because the scenario benchmark still reports the metric;
        the property goes when the benchmark drops it.
        """
        return 0.0

    # -------------------------------------------------------------- ranking

    def rank(
        self, network: NetworkDescription, task: TaskDescription
    ) -> List[CandidateScore]:
        """Score every neighbour and return eligible ones sorted best-first."""
        eligible = [s for s in self.all_scores(network, task) if s.eligible]
        eligible.sort(key=lambda s: (-s.score, s.estimated_completion_s, s.name))
        return eligible

    def all_scores(
        self, network: NetworkDescription, task: TaskDescription
    ) -> List[CandidateScore]:
        """Scores for every neighbour, including filtered-out ones, in one pass.

        :meth:`score_neighbor` with the task and scorer constants read once:
        the same filters in the same order, the same rejection reasons and
        the same float expressions, so each score equals the per-neighbour one.
        """
        out_bits = task.size_bytes * 8
        back_bits = RESULT_SIZE_HINT * 8
        operations, deadline, data = task.operations, task.deadline_s, task.data
        max_age, min_trust, margin = self.max_beacon_age_s, self.min_trust, self.contact_margin
        reference_headroom = self.reference_headroom_ops
        reference_rate = self.reference_rate_bps
        reference_contact = self.reference_contact_s
        weights = self.weights
        w_compute, w_link, w_contact, w_data, w_trust = (
            weights.compute, weights.link, weights.contact_time, weights.data, weights.trust
        )
        total_weight = max(weights.total(), 1e-9)

        scores: List[CandidateScore] = []
        for neighbor in network.neighbors:
            rate = neighbor.link_rate_bps
            headroom = neighbor.compute_headroom_ops
            if rate <= 0:
                completion = math.inf
            else:
                completion = (
                    out_bits / rate
                    + operations / max(headroom, 1e6)
                    + back_bits / rate
                    + 0.05 * neighbor.queue_length
                )
            if neighbor.beacon_age_s > max_age:
                reason = "beacon too stale"
            elif headroom <= 0:
                reason = "no compute headroom"
            elif rate <= 0:
                reason = "link unusable"
            elif neighbor.trust_score < min_trust:
                reason = "trust below threshold"
            elif data is not None and not beacon_digest_matches(neighbor, data):
                reason = "required data not advertised"
            elif deadline > 0 and completion > deadline:
                reason = "cannot meet deadline"
            elif neighbor.predicted_contact_time_s < completion * margin:
                reason = "predicted contact time too short"
            else:
                compute_score = min(1.0, headroom / reference_headroom)
                link_score = min(1.0, rate / reference_rate)
                contact = neighbor.predicted_contact_time_s
                contact_score = (
                    1.0 if math.isinf(contact) else min(1.0, contact / reference_contact)
                )
                data_score = (
                    digest_quality_score(neighbor, data) if data is not None else 1.0
                )
                trust_score = min(1.0, max(0.0, neighbor.trust_score))
                score = (
                    w_compute * compute_score
                    + w_link * link_score
                    + w_contact * contact_score
                    + w_data * data_score
                    + w_trust * trust_score
                ) / total_weight
                subscores = {
                    "compute": compute_score,
                    "link": link_score,
                    "contact_time": contact_score,
                    "data": data_score,
                    "trust": trust_score,
                }
                scores.append(CandidateScore(neighbor, True, score, completion, "", subscores))
                continue
            scores.append(CandidateScore(neighbor, False, 0.0, completion, reason))
        return scores
