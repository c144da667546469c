"""Property tests: Model 1's one-pass build and ranking ≡ their references.

:meth:`NetworkDescriptionBuilder.build` computes each neighbour with flat
float arithmetic; :func:`tests.oracle.reference_network_description` builds
the same view from :class:`Vec2` objects.  :meth:`CandidateScorer.rank` and
:meth:`CandidateScorer.all_scores` score a view in one pass;
:meth:`CandidateScorer.score_neighbor` is the per-neighbour reference.  Every
float is compared by its bits (``float.hex``), so ``inf``, ``0.0`` and
``-0.0`` all count.
"""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.candidate import CandidateScorer, ScoringWeights
from repro.core.models import (
    DataDescription,
    NeighborDescription,
    NetworkDescription,
    TaskDescription,
)
from repro.core.network_model import NetworkDescriptionBuilder
from repro.data.datatypes import DataType
from repro.data.quality import DataQuality
from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon
from repro.mesh.neighbor import NeighborEntry
from tests.oracle import reference_network_description


def bits(value):
    """Bit-exact stand-in for a field value (floats by ``float.hex``)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Vec2):
        return (bits(value.x), bits(value.y))
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return tuple(bits(item) for item in value)
    return value


def neighbor_fields(neighbor):
    return tuple(bits(item) for item in vars(neighbor).values())


def view_fields(view):
    return (
        view.owner,
        bits(view.time),
        bits(view.position),
        view.epoch,
        [neighbor_fields(n) for n in view.neighbors],
    )


def score_fields(score):
    return (
        neighbor_fields(score.neighbor),
        score.eligible,
        bits(score.score),
        bits(score.estimated_completion_s),
        score.rejection_reason,
        bits(score.subscores),
    )


def signed(values):
    """Floats plus, one draw in eight, a signed zero (hypothesis draws
    those only by chance)."""
    zeros = st.sampled_from([0.0, -0.0])
    return st.integers(min_value=0, max_value=7).flatmap(
        lambda pick: zeros if pick == 0 else values
    )


coords = signed(st.floats(min_value=-400.0, max_value=400.0))
speeds = signed(st.floats(min_value=-40.0, max_value=40.0))
moments = st.floats(min_value=0.0, max_value=30.0)
digests = st.dictionaries(
    st.sampled_from(["lidar_scan", "camera_frame"]),
    st.tuples(
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    max_size=2,
)
snrs = signed(st.floats(min_value=-10.0, max_value=40.0))
rates = signed(st.floats(min_value=0.0, max_value=30e6))


@st.composite
def mesh_views(draw):
    """A builder over a stand-in mesh node, and the time to build at."""
    now = draw(moments)
    own_position = Vec2(draw(coords), draw(coords))
    own_velocity = Vec2(draw(speeds), draw(speeds))
    # A static owner may have no ``velocity`` attribute at all.
    has_velocity = draw(st.booleans())
    mobile = SimpleNamespace(position=own_position)
    if has_velocity:
        mobile.velocity = own_velocity
    entries = []
    names = draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=8))
    for name in names:
        # Zero relative velocity: the beacon moves exactly like the owner.
        if has_velocity and draw(st.booleans()):
            velocity = own_velocity
        else:
            velocity = Vec2(draw(speeds), draw(speeds))
        beacon = Beacon(
            sender=name,
            # Beacons may be stamped after ``now`` (clamped horizon).
            timestamp=now + draw(st.floats(min_value=-5.0, max_value=2.0)),
            position=Vec2(draw(coords), draw(coords)),
            velocity=velocity,
            compute_headroom_ops=draw(st.floats(min_value=0.0, max_value=8e9)),
            queue_length=draw(st.integers(min_value=0, max_value=5)),
            data_summary=draw(digests),
            trust_score=draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        entries.append(
            NeighborEntry(
                beacon=beacon,
                last_seen=now + draw(st.floats(min_value=-5.0, max_value=2.0)),
                snr_db=draw(snrs),
                rate_bps=draw(rates),
            )
        )
    mesh_node = SimpleNamespace(
        name="ego",
        position=own_position,
        mobile=mobile,
        neighbors=SimpleNamespace(entries=lambda: list(entries)),
        beacon_agent=SimpleNamespace(epoch=draw(st.integers(min_value=0, max_value=9))),
    )
    # Ranges from 20 m put most neighbours out of range, 700 m none; a
    # range equal to one neighbour's distance puts it on the boundary, where
    # rounding can leave the squared distance just past the squared range.
    comm_range = draw(st.floats(min_value=20.0, max_value=700.0))
    if entries and draw(st.booleans()):
        predicted = entries[0].beacon.predicted_position(now)
        comm_range = own_position.distance_to(predicted)
    environment = SimpleNamespace(max_range=comm_range)
    return NetworkDescriptionBuilder(mesh_node, environment), now


@settings(max_examples=300)
@given(mesh_views())
def test_build_matches_the_vec2_reference_bit_for_bit(case):
    builder, now = case
    assert view_fields(builder.build(now)) == view_fields(
        reference_network_description(builder, now)
    )


def test_build_covers_the_degenerate_neighbours():
    """The cases the property must reach, pinned once: zero relative
    velocity (inf), out of range (0.0), a future beacon, default link figures."""
    mobile = SimpleNamespace(position=Vec2(0.0, 0.0), velocity=Vec2(3.0, 0.0))
    beacons = [
        Beacon("parallel", 1.0, Vec2(50.0, 0.0), Vec2(3.0, 0.0)),
        Beacon("far", 1.0, Vec2(900.0, 0.0), Vec2(0.0, 0.0)),
        Beacon("future", 9.0, Vec2(-0.0, 10.0), Vec2(-1.0, 0.0)),
    ]
    entries = [NeighborEntry(beacon, last_seen=1.5) for beacon in beacons]
    mesh_node = SimpleNamespace(
        name="ego", position=mobile.position, mobile=mobile,
        neighbors=SimpleNamespace(entries=lambda: entries),
        beacon_agent=SimpleNamespace(epoch=0),
    )
    builder = NetworkDescriptionBuilder(mesh_node, SimpleNamespace(max_range=300.0))
    view = builder.build(2.0)
    assert view_fields(view) == view_fields(reference_network_description(builder, 2.0))
    contact = {n.name: n.predicted_contact_time_s for n in view.neighbors}
    assert contact["parallel"] == float("inf")
    assert contact["far"] == 0.0
    assert view.neighbor("future").position == Vec2(-0.0, 10.0)
    assert all(n.link_rate_bps == 0.0 for n in view.neighbors)


# ---------------------------------------------------------------- ranking

weights = st.builds(
    ScoringWeights,
    compute=st.sampled_from([0.0, 0.3]) | st.floats(min_value=0.0, max_value=1.0),
    link=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1.0),
    contact_time=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1.0),
    data=st.sampled_from([0.0, 0.2]) | st.floats(min_value=0.0, max_value=1.0),
    trust=st.sampled_from([0.0, 0.1]) | st.floats(min_value=0.0, max_value=1.0),
)
scorers = st.builds(
    CandidateScorer,
    weights=weights,
    min_trust=st.sampled_from([0.0]) | st.floats(min_value=0.0, max_value=0.6),
    contact_margin=st.floats(min_value=1.0, max_value=3.0),
    max_beacon_age_s=st.floats(min_value=0.5, max_value=3.0),
)
neighbors = st.builds(
    NeighborDescription,
    name=st.sampled_from("abcdef"),
    position=st.builds(Vec2, coords, coords),
    velocity=st.builds(Vec2, speeds, speeds),
    distance_m=st.floats(min_value=0.0, max_value=400.0),
    link_rate_bps=signed(st.floats(min_value=0.0, max_value=30e6)),
    link_snr_db=st.floats(min_value=-10.0, max_value=40.0),
    compute_headroom_ops=signed(st.floats(min_value=0.0, max_value=8e9)),
    queue_length=st.integers(min_value=0, max_value=6),
    data_summary=digests,
    # Self-reported trust may leave [0, 1]; scoring clamps it.
    trust_score=signed(st.floats(min_value=-0.5, max_value=1.5)),
    beacon_age_s=st.floats(min_value=0.0, max_value=1.5),
    predicted_contact_time_s=st.sampled_from([float("inf"), 0.0])
    | st.floats(min_value=0.0, max_value=80.0),
)
data_descriptions = st.one_of(
    st.none(),
    st.builds(
        DataDescription,
        data_type=st.sampled_from([DataType.LIDAR_SCAN, DataType.CAMERA_FRAME]),
        required_quality=st.builds(
            DataQuality, freshness_s=st.floats(min_value=0.0, max_value=2.0)
        ),
        region_center=st.none() | st.builds(Vec2, coords, coords),
        region_radius=st.floats(min_value=0.0, max_value=100.0),
    ),
)
tasks = st.builds(
    TaskDescription,
    function_name=st.just("perceive"),
    operations=st.floats(min_value=1e6, max_value=5e9),
    data=data_descriptions,
    deadline_s=st.sampled_from([0.0]) | st.floats(min_value=0.01, max_value=5.0),
    size_bytes=st.integers(min_value=1, max_value=200_000),
)


def rank_key(score):
    return (-score.score, score.estimated_completion_s, score.name)


def eligible_neighbor(**fields):
    base = dict(
        name="a", position=Vec2(10.0, 0.0), velocity=Vec2(0.0, 0.0),
        distance_m=10.0, link_rate_bps=20e6, link_snr_db=20.0,
        compute_headroom_ops=5e9, queue_length=0,
        data_summary={"lidar_scan": (80.0, 0.2, 0.9)}, trust_score=0.9,
        beacon_age_s=0.1, predicted_contact_time_s=float("inf"),
    )
    base.update(fields)
    return NeighborDescription(**base)


@settings(max_examples=300)
@given(scorers, st.lists(neighbors, max_size=12), tasks)
# A trust of -0.0 passes a 0.0 threshold and must score as +0.0.
@example(
    CandidateScorer(min_trust=0.0),
    [eligible_neighbor(trust_score=-0.0)],
    TaskDescription("perceive"),
)
def test_one_pass_scores_equal_score_neighbor(scorer, view_neighbors, task):
    view = NetworkDescription(
        owner="ego", time=1.0, position=Vec2(0.0, 0.0), neighbors=view_neighbors
    )
    expected = [scorer.score_neighbor(n, task) for n in view_neighbors]
    assert [score_fields(s) for s in scorer.all_scores(view, task)] == [
        score_fields(s) for s in expected
    ]
    ranked = sorted((s for s in expected if s.eligible), key=rank_key)
    assert [score_fields(s) for s in scorer.rank(view, task)] == [
        score_fields(s) for s in ranked
    ]
