"""Property tests: the per-epoch lidar sweep ≡ scanning on every capture.

:class:`~repro.data.sensors.LidarSweep` answers "which agents does each
sensor see?" once per position epoch for every lidar of a world.  The
reference is :class:`tests.oracle.ReferenceLidarSensor`, which scans the
ground truth itself on each capture, the way every capture did before the
sweep.  Twin worlds, one with each kind of sensor, run the same seed; every
frame (time, origin, detections with their noisy positions and
confidences) and every pond must come out identical — on random fleets of
static and moving agents, with agents exactly at range, coincident agents,
a sensor stopped mid-run and a world evicted and restored between two
captures of one epoch.
"""

import math
import pickle
from dataclasses import dataclass
from typing import Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datatypes import DataType
from repro.data.pond import DataPond
from repro.data.sensors import LidarSensor, LidarSweep
from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mobility.manager import MobilityManager
from repro.mobility.providers import PositionOf
from repro.mobility.waypoints import RandomWaypointNode, StaticNode
from repro.simcore.simulator import Simulator
from tests.oracle import ReferenceLidarSensor

BOUNDS = (-60.0, -60.0, 60.0, 60.0)
DURATION = 1.5


class Truth:
    """Picklable ground truth: every agent's (name, position)."""

    def __init__(self, agents) -> None:
        self.agents = agents

    def __call__(self):
        return [(agent.name, agent.position) for agent in self.agents]


@dataclass(frozen=True)
class Fleet:
    statics: Tuple[Vec2, ...]
    movers: int
    #: (agent index, range_m, period) per sensor, on distinct agents.
    sensors: Tuple[Tuple[int, float, float], ...]
    obstacles: Tuple[Rectangle, ...] = ()
    #: (sensor index, time) of sensors stopped mid-run.
    stops: Tuple[Tuple[int, float], ...] = ()
    #: Whether the sensors share the world's sweep (else one each).
    shared: bool = True


def build(fleet: Fleet, seed: int, reference: bool):
    sim = Simulator(seed=seed)
    mobility = MobilityManager(sim, tick=0.1)
    rng = sim.streams.get("movers")
    agents = [StaticNode(sim, p, name=f"s-{i}") for i, p in enumerate(fleet.statics)]
    agents += [
        RandomWaypointNode(
            sim, BOUNDS, rng, speed_range=(5.0, 15.0), pause_range=(0.0, 0.3),
            name=f"m-{i}",
        )
        for i in range(fleet.movers)
    ]
    for agent in agents:
        mobility.add_node(agent)
    visibility = VisibilityMap(list(fleet.obstacles))
    truth = Truth(agents)
    sweep = LidarSweep(truth, visibility, mobility.substrate) if fleet.shared else None
    kind = ReferenceLidarSensor if reference else LidarSensor
    sensors = [
        kind(
            sim, agents[index].name, PositionOf(agents[index]), truth,
            DataPond(agents[index].name), visibility=visibility,
            range_m=range_m, period=period, sweep=sweep,
        )
        for index, range_m, period in fleet.sensors
    ]
    for index, at in fleet.stops:
        sim.schedule(at, sensors[index].stop)
    return sim, sensors


def frames(sim, sensors):
    """Every retained frame of every sensor, plus its capture count."""
    return [
        (
            sensor.frames_captured,
            [
                (
                    frame.timestamp,
                    frame.origin,
                    [(d.label, d.position, d.confidence) for d in frame.detections],
                )
                for frame in sensor.pond.frames(DataType.LIDAR_SCAN, sim.now)
            ],
        )
        for sensor in sensors
    ]


def run(fleet: Fleet, seed: int, reference: bool):
    sim, sensors = build(fleet, seed, reference)
    sim.run(until=DURATION)
    return frames(sim, sensors)


def assert_matches_reference(fleet: Fleet, seed: int):
    expected = run(fleet, seed, reference=True)
    assert run(fleet, seed, reference=False) == expected
    return expected


coords = st.floats(min_value=-60.0, max_value=60.0, allow_nan=False)
points = st.builds(Vec2, coords, coords)
rectangles = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    coords, coords,
    st.floats(min_value=1.0, max_value=30.0),
    st.floats(min_value=1.0, max_value=30.0),
)
periods = st.sampled_from([0.1, 0.05, 0.15, 0.2])
ranges = st.floats(min_value=5.0, max_value=120.0)


@st.composite
def fleets(draw):
    statics = draw(st.lists(points, min_size=0, max_size=6))
    # Coincident agents: repeat some positions exactly.
    statics += draw(st.lists(st.sampled_from(statics), max_size=3)) if statics else []
    movers = draw(st.integers(min_value=0 if statics else 1, max_value=5))
    agents = len(statics) + movers
    chosen = draw(
        st.lists(
            st.integers(min_value=0, max_value=agents - 1),
            min_size=1, max_size=min(agents, 5), unique=True,
        )
    )
    sensors = tuple((index, draw(ranges), draw(periods)) for index in chosen)
    stops = ()
    if draw(st.booleans()):
        stops = ((draw(st.integers(0, len(sensors) - 1)), draw(st.floats(0.2, 1.2))),)
    return Fleet(
        tuple(statics), movers, sensors,
        tuple(draw(st.lists(rectangles, max_size=4))), stops, draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(fleets(), st.integers(min_value=0, max_value=2**16))
def test_random_fleets_match_the_reference(fleet, seed):
    assert_matches_reference(fleet, seed)


def test_moving_fleet_matches_the_reference():
    """Moving agents and sensors behind two buildings, all sharing a sweep."""
    fleet = Fleet(
        (Vec2(0.0, 0.0), Vec2(-30.0, 20.0), Vec2(25.0, -25.0)), 5,
        ((0, 70.0, 0.1), (1, 50.0, 0.05), (3, 90.0, 0.1), (5, 60.0, 0.15)),
        obstacles=(Rectangle(5.0, -10.0, 15.0, 10.0), Rectangle(-20.0, 5.0, -10.0, 40.0)),
    )
    got = assert_matches_reference(fleet, seed=7)
    detections = [len(ds) for _, frames_ in got for _, _, ds in frames_]
    assert sum(detections) > 0 and min(detections) < max(detections)


def test_agents_exactly_at_range_and_in_the_guard_band():
    """Distances of exactly the range, and a few ulps and 1e-10 off it."""
    r = 80.0
    statics = [
        Vec2(0.0, 0.0),
        Vec2(r, 0.0),
        Vec2(48.0, 64.0),
        Vec2(-48.0, -64.0),
        Vec2(0.0, -r),
        Vec2(math.nextafter(r, math.inf), 1e-9),
        Vec2(0.0, math.nextafter(r, 0.0)),
        Vec2(r / math.sqrt(2.0), r / math.sqrt(2.0)),
        Vec2(-r * (1.0 + 1e-10), 0.0),
        Vec2(-r * (1.0 - 1e-10), 1e-3),
        Vec2(1.0, r * (1.0 + 3e-9)),
    ]
    fleet = Fleet(tuple(statics), 0, ((0, r, 0.1),))
    (captured, got), = assert_matches_reference(fleet, seed=5)
    assert captured >= 14
    seen = {label for _, _, detections in got for label, _, _ in detections}
    # Every agent within range is seen at least once across the frames.
    assert {"s-1", "s-2", "s-3", "s-4", "s-7"} <= seen
    assert not {"s-5", "s-8", "s-10"} & seen


def test_coincident_agents_and_a_sensor_on_an_edge():
    """Zero-length rays, one of them on a building's boundary."""
    building = Rectangle(10.0, -5.0, 30.0, 5.0)
    statics = [Vec2(10.0, 0.0), Vec2(10.0, 0.0), Vec2(0.0, 0.0), Vec2(0.0, 0.0), Vec2(40.0, 0.0)]
    fleet = Fleet(
        tuple(statics), 2, ((0, 50.0, 0.1), (2, 50.0, 0.05), (4, 50.0, 0.1)),
        obstacles=(building,),
    )
    got = assert_matches_reference(fleet, seed=11)
    labels = [{d[0] for _, _, ds in frames_ for d in ds} for _, frames_ in got]
    # The agent sharing the edge sensor's position touches the building:
    # blocked.  The one sharing the open-air sensor's position is seen.
    assert "s-1" not in labels[0]
    assert "s-3" in labels[1]


def test_stopped_sensor_leaves_the_others_alone():
    fleet = Fleet(
        (Vec2(0.0, 0.0), Vec2(20.0, 5.0), Vec2(-15.0, 10.0)), 3,
        ((0, 60.0, 0.1), (1, 60.0, 0.1), (2, 60.0, 0.05)),
        obstacles=(Rectangle(5.0, -20.0, 8.0, 20.0),),
        stops=((1, 0.45),),
    )
    got = assert_matches_reference(fleet, seed=3)
    assert got[1][0] == 4
    assert got[0][0] >= 14


def test_one_kernel_call_per_position_epoch(monkeypatch):
    """Four sensors capturing together share one pass per epoch."""
    calls = []
    blocked_rays = VisibilityMap.blocked_rays

    def counting(self, *columns):
        calls.append(len(columns[0]))
        return blocked_rays(self, *columns)

    monkeypatch.setattr(VisibilityMap, "blocked_rays", counting)
    fleet = Fleet(
        (Vec2(0.0, 0.0), Vec2(20.0, 0.0), Vec2(0.0, 20.0), Vec2(20.0, 20.0)), 2,
        tuple((index, 100.0, 0.1) for index in range(4)),
        obstacles=(Rectangle(8.0, 8.0, 12.0, 12.0),),
    )
    sim, sensors = build(fleet, seed=2, reference=False)
    sim.run(until=1.0)
    assert sum(sensor.frames_captured for sensor in sensors) == 40
    # Captures at t and the tick at t share an epoch: at most one pass per
    # distinct capture time, each for all four sensors' rays.
    assert len(calls) <= 11
    assert min(calls) >= 4 * 4


@settings(max_examples=80, deadline=None)
@given(
    fleets(),
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=0.15, max_value=1.2),
    st.integers(min_value=1, max_value=6),
)
def test_evict_and_restore_mid_epoch(fleet, seed, cut, extra_events):
    """A world pickled between two captures of one epoch resumes alike.

    The sweep's results are derived state: the restored sweep has none and
    makes a fresh pass on its next capture, in the same epoch.
    """
    expected = run(fleet, seed, reference=True)
    sim, sensors = build(fleet, seed, reference=False)
    sim.step(until=cut)
    sim.step(max_events=extra_events)
    for sensor in sensors:
        assert "_pass" not in sensor.sweep.__getstate__()
    sim, sensors = pickle.loads(pickle.dumps((sim, sensors)))
    sim.run(until=DURATION)
    assert frames(sim, sensors) == expected


def test_restored_sweep_has_no_pass_results():
    fleet = Fleet((Vec2(0.0, 0.0), Vec2(5.0, 5.0)), 1, ((0, 30.0, 0.1), (1, 30.0, 0.1)))
    sim, sensors = build(fleet, seed=1, reference=False)
    sim.step(until=0.25)
    sweep = sensors[0].sweep
    assert sweep._pass is not None
    restored = pickle.loads(pickle.dumps(sweep))
    assert restored._pass is None
    assert len(restored.sensors) == 2
