"""Tests for RQ1 candidate filtering and scoring."""

import math

import pytest

from repro.core.candidate import CandidateScorer, ScoringWeights
from repro.core.models import (
    DataDescription,
    NeighborDescription,
    NetworkDescription,
    TaskDescription,
)
from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from repro.geometry.vector import Vec2


def make_neighbor(
    name="n",
    headroom=5e9,
    rate=20e6,
    contact=60.0,
    trust=0.9,
    beacon_age=0.2,
    queue=0,
    digest=None,
):
    if digest is None:
        digest = {"lidar_scan": (80.0, 0.2, 0.9)}
    return NeighborDescription(
        name=name,
        position=Vec2(20, 0),
        velocity=Vec2(0, 0),
        distance_m=20.0,
        link_rate_bps=rate,
        link_snr_db=20.0,
        compute_headroom_ops=headroom,
        queue_length=queue,
        data_summary=digest,
        trust_score=trust,
        beacon_age_s=beacon_age,
        predicted_contact_time_s=contact,
    )


def make_task(**kwargs):
    defaults = dict(function_name="perceive", operations=1e8, size_bytes=600)
    defaults.update(kwargs)
    return TaskDescription(**defaults)


def network_of(*neighbors):
    return NetworkDescription(owner="ego", time=1.0, position=Vec2(0, 0), neighbors=list(neighbors))


def test_good_candidate_is_eligible_with_subscores():
    scorer = CandidateScorer()
    score = scorer.score_neighbor(make_neighbor(), make_task())
    assert score.eligible
    assert 0.0 < score.score <= 1.0
    assert set(score.subscores) == {"compute", "link", "contact_time", "data", "trust"}
    assert score.estimated_completion_s < 1.0


@pytest.mark.parametrize(
    "kwargs,reason",
    [
        (dict(beacon_age=10.0), "stale"),
        (dict(headroom=0.0), "headroom"),
        (dict(rate=0.0), "link"),
        (dict(trust=0.1), "trust"),
        (dict(contact=0.01), "contact"),
    ],
)
def test_hard_filters(kwargs, reason):
    scorer = CandidateScorer()
    score = scorer.score_neighbor(make_neighbor(**kwargs), make_task())
    assert not score.eligible
    assert reason in score.rejection_reason.lower()


def test_data_filter_applies_only_when_task_needs_data():
    scorer = CandidateScorer()
    no_data_neighbor = make_neighbor(digest={})
    plain_task = make_task()
    data_task = make_task(
        data=DataDescription(
            data_type=DataType.LIDAR_SCAN,
            required_quality=DataQuality(freshness_s=1.0, coverage_radius_m=30.0, resolution=0.5, accuracy=0.5),
        )
    )
    assert scorer.score_neighbor(no_data_neighbor, plain_task).eligible
    rejected = scorer.score_neighbor(no_data_neighbor, data_task)
    assert not rejected.eligible
    assert "data" in rejected.rejection_reason


def test_deadline_filter():
    scorer = CandidateScorer()
    slow = make_neighbor(headroom=1e6, rate=1e5)
    task = make_task(deadline_s=0.5, operations=1e9)
    score = scorer.score_neighbor(slow, task)
    assert not score.eligible
    assert "deadline" in score.rejection_reason


def test_ranking_prefers_more_headroom_all_else_equal():
    scorer = CandidateScorer()
    weak = make_neighbor("weak", headroom=5e8)
    strong = make_neighbor("strong", headroom=5e9)
    ranked = scorer.rank(network_of(weak, strong), make_task())
    assert [c.name for c in ranked] == ["strong", "weak"]


def test_weights_change_ranking():
    # 'near' has a better link; 'fresh' has better data quality.
    near = make_neighbor("near", rate=25e6, digest={"lidar_scan": (80.0, 0.2, 0.4)})
    fresh = make_neighbor("fresh", rate=8e6, digest={"lidar_scan": (80.0, 0.1, 1.0)})
    task = make_task(
        data=DataDescription(
            data_type=DataType.LIDAR_SCAN,
            required_quality=DataQuality(freshness_s=1.0, coverage_radius_m=30.0, resolution=0.5, accuracy=0.3),
        )
    )
    link_heavy = CandidateScorer(weights=ScoringWeights(compute=0, link=1, contact_time=0, data=0, trust=0))
    data_heavy = CandidateScorer(weights=ScoringWeights(compute=0, link=0, contact_time=0, data=1, trust=0))
    assert scorer_top(link_heavy, near, fresh, task) == "near"
    assert scorer_top(data_heavy, near, fresh, task) == "fresh"


def scorer_top(scorer, a, b, task):
    ranked = scorer.rank(network_of(a, b), task)
    return ranked[0].name


def test_contact_margin_tightens_filter():
    lenient = CandidateScorer(contact_margin=1.0)
    strict = CandidateScorer(contact_margin=50.0)
    neighbor = make_neighbor(contact=2.0, headroom=1e9)
    task = make_task(operations=5e8)
    assert lenient.score_neighbor(neighbor, task).eligible
    assert not strict.score_neighbor(neighbor, task).eligible


def test_infinite_contact_time_scores_full_marks():
    scorer = CandidateScorer()
    neighbor = make_neighbor(contact=math.inf)
    score = scorer.score_neighbor(neighbor, make_task())
    assert score.eligible
    assert score.subscores["contact_time"] == 1.0


def test_all_scores_includes_ineligible():
    scorer = CandidateScorer()
    network = network_of(make_neighbor("good"), make_neighbor("bad", trust=0.0))
    assert len(scorer.all_scores(network, make_task())) == 2
    assert len(scorer.rank(network, make_task())) == 1


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        ScoringWeights(compute=-0.1)
