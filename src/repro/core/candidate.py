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

:class:`CandidateScorer` memoises score lists per network view.  Its
reference is the always-recompute path that views without a freshness token
(hand-built descriptions) take; the tests compare the two on the same
neighbours.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.data_model import beacon_digest_matches, digest_quality_score
from repro.core.models import NeighborDescription, NetworkDescription, TaskDescription


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

    Scoring is a pure function of the network view and a handful of task
    fields, and the view itself is already memoised upstream — the
    :class:`~repro.core.network_model.NetworkDescriptionBuilder` stamps each
    description with a ``freshness`` token covering ``(owner, time, position
    epoch, membership epoch, beacons heard)``.  The scorer therefore caches
    the per-neighbour score list keyed on ``(freshness, task signature)``:
    re-ranking the same task against the same view (retries, redundant
    replicas, repeated same-shape submissions within one event) costs a
    dictionary lookup instead of re-evaluating every filter and subscore.

    Because the freshness token is *owner-qualified*, one scorer instance
    can safely be shared by every node of a scenario — two owners' views can
    never collide on a key.  To make sharing actually pay off, the cache
    holds up to :attr:`CACHE_CAPACITY` recent ``(freshness, task
    signature)`` entries with LRU eviction, instead of flushing wholesale
    whenever a different owner (or a new epoch) shows up.  Eviction only
    ever costs recomputation; results stay byte-identical to the
    always-recompute path that views without a freshness token take.

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

    #: Maximum number of memoised score lists kept (LRU).  Sized so that a
    #: fleet sharing one scorer keeps every node's current view cached.
    CACHE_CAPACITY = 2048

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
        #: Memoisation telemetry (counted only for memoisable views).
        self.cache_hits = 0
        self.cache_misses = 0
        self._score_cache: "OrderedDict[tuple, Tuple[CandidateScore, ...]]" = (
            OrderedDict()
        )

    # ------------------------------------------------------------ estimates

    def estimate_completion_time(
        self, neighbor: NeighborDescription, task: TaskDescription, result_size_hint: int = 50_000
    ) -> float:
        """Estimated seconds from offload to result arrival via ``neighbor``."""
        if neighbor.link_rate_bps <= 0:
            return math.inf
        transfer_out = (task.size_bytes * 8) / neighbor.link_rate_bps
        transfer_back = (result_size_hint * 8) / neighbor.link_rate_bps
        headroom = max(neighbor.compute_headroom_ops, 1e6)
        compute = task.operations / headroom
        queue_penalty = 0.05 * neighbor.queue_length
        return transfer_out + compute + transfer_back + queue_penalty

    # -------------------------------------------------------------- scoring

    def score_neighbor(
        self, neighbor: NeighborDescription, task: TaskDescription
    ) -> CandidateScore:
        """Filter and score one neighbour for one task."""
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

    # ---------------------------------------------------------- memoisation

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of memoisable score requests answered from cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def _task_signature(self, task: TaskDescription) -> tuple:
        """The task fields scoring actually reads.

        ``data`` is a frozen dataclass (hashable by value), so two
        same-shape tasks submitted within one view share a cache entry even
        when their ``task_id`` differs.
        """
        return (task.size_bytes, task.operations, task.deadline_s, task.data)

    def _scores_for(
        self, network: NetworkDescription, task: TaskDescription
    ) -> List[CandidateScore]:
        """Per-neighbour scores, memoised per ``(freshness, task signature)``.

        Views without a ``freshness`` token (hand-built descriptions) are
        scored directly — there is no safe key to cache them under.
        """
        freshness = getattr(network, "freshness", None)
        if freshness is None:
            return [self.score_neighbor(neighbor, task) for neighbor in network.neighbors]
        cache = self._score_cache
        key = (freshness, self._task_signature(task))
        cached = cache.get(key)
        if cached is None:
            self.cache_misses += 1
            cached = tuple(
                self.score_neighbor(neighbor, task) for neighbor in network.neighbors
            )
            cache[key] = cached
            while len(cache) > self.CACHE_CAPACITY:
                cache.popitem(last=False)
        else:
            self.cache_hits += 1
            cache.move_to_end(key)
        return list(cached)

    # -------------------------------------------------------------- ranking

    def rank(
        self, network: NetworkDescription, task: TaskDescription
    ) -> List[CandidateScore]:
        """Score every neighbour and return eligible ones sorted best-first.

        Callers must treat the returned scores as read-only: repeated calls
        under one freshness token share the cached :class:`CandidateScore`
        instances (mutating one would poison the cache for later callers).
        """
        eligible = [s for s in self._scores_for(network, task) if s.eligible]
        eligible.sort(key=lambda s: (-s.score, s.estimated_completion_s, s.name))
        return eligible

    def all_scores(
        self, network: NetworkDescription, task: TaskDescription
    ) -> List[CandidateScore]:
        """Scores for every neighbour, including filtered-out ones (for analysis).

        Read-only, like :meth:`rank` — cached instances are shared.
        """
        return self._scores_for(network, task)
