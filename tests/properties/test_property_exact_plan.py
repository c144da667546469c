"""Property tests: exact-tier plans from the epoch universe ≡ the oracle's.

The exact tier builds each sender's broadcast plan from one squared-distance
mask over the epoch's position columns and one call of the exact column
kernel (``LinkBudget.exact_arrays_xy``).  The oracle
(:class:`tests.oracle.ReferenceRadioEnvironment`) builds the same plan the
older way: candidates from a scalar range scan, a name sort and one scalar
``LinkBudget.quality`` call per pair.  On random fleets the two
plans must agree field by field, to the last bit of every float.

The fleets are drawn to reach the edges of that argument: co-located nodes
closer than the path-loss reference distance, a receiver exactly at the
query radius and one just past the effective range, a nonzero noise
penalty, occluding buildings, range pruning switched off, and (when bound to
a mobility substrate) a radio-only node the substrate does not track.  Each
fleet is checked, moved, and checked again in the next position epoch.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.los import VisibilityMap
from repro.geometry.shapes import Rectangle
from repro.geometry.vector import Vec2
from repro.mobility.manager import MobilityManager
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.radio.propagation import FreeSpacePathLoss, LogDistancePathLoss
from repro.simcore.simulator import Simulator
from tests.oracle import ReferenceRadioEnvironment

#: The default budget's effective range (m) and the environment's query
#: radius (range plus the 5 m step slack).
RANGE = LinkBudget().effective_range(None)
RADIUS = RANGE + 5.0
SPAN = 1.5 * RANGE

coords = st.floats(min_value=-SPAN, max_value=SPAN, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords)
#: Offsets that keep a co-located pair under the 1 m reference distance.
near = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False)
buildings = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    coords,
    coords,
    st.floats(min_value=5.0, max_value=120.0),
    st.floats(min_value=5.0, max_value=120.0),
)


class _Spot:
    """A mobile node the test moves by hand (``advance`` is a no-op)."""

    def __init__(self, name: str, position: Vec2) -> None:
        self.name = name
        self.position = position

    def advance(self, dt: float) -> None:
        pass


@st.composite
def fleets(draw):
    """``(positions, options)`` for one random fleet of 2–40 nodes (the
    overlay node of a bound fleet included)."""
    base = draw(st.lists(points, min_size=2, max_size=33))
    positions = {f"n{index:02d}": Vec2(x, y) for index, (x, y) in enumerate(base)}
    names = sorted(positions)
    for index, (anchor, dx, dy) in enumerate(
        draw(st.lists(st.tuples(st.sampled_from(names), near, near), max_size=3))
    ):
        origin = positions[anchor]
        positions[f"c{index}"] = Vec2(origin.x + dx, origin.y + dy)
    if draw(st.booleans()):
        # Exactly on the query radius of an origin node, and just past the
        # effective range (inside the radius, on either side of the true
        # SNR boundary).
        positions["o-origin"] = Vec2(0.0, 0.0)
        positions["o-radius"] = Vec2(RADIUS, 0.0)
        past = draw(st.floats(min_value=0.0, max_value=5.0, exclude_min=True))
        positions["o-past"] = Vec2(0.0, -(RANGE + past))
    options = {
        "noise_penalty_db": draw(
            st.one_of(st.just(0.0), st.floats(min_value=-6.0, max_value=12.0))
        ),
        "buildings": draw(st.one_of(st.none(), st.lists(buildings, min_size=1, max_size=8))),
        "full_scan": draw(st.booleans()),
        "bound": draw(st.booleans()),
        "moves": draw(st.lists(st.tuples(st.sampled_from(names), points), max_size=6)),
    }
    return positions, options


def hexes(column):
    return [float.hex(value) for value in column.tolist()]


def plan_fields(plan):
    """Every field of a plan, floats as ``float.hex`` so equality is bitwise."""
    return {
        "receivers": [receiver.node_name for receiver in plan.receivers],
        "indices": plan.indices.tolist(),
        "out_of_range": plan.out_of_range,
        "slots": plan.slots.tolist(),
        "snr_db": hexes(plan.snr_db),
        "rate_bps": hexes(plan.rate_bps),
        "pers": hexes(plan.pers),
        "scaled_rates": hexes(plan.scaled_rates),
        "prop_delays": hexes(plan.prop_delays),
    }


class _Fleet:
    """One environment class over one fleet, movable between epochs."""

    def __init__(self, environment_class, positions, options) -> None:
        self.sim = Simulator(seed=3)
        budget = LinkBudget()
        budget.noise_penalty_db = options["noise_penalty_db"]
        visibility = None
        if options["buildings"] is not None:
            visibility = VisibilityMap(options["buildings"])
        self.mobility = None
        if options["bound"]:
            self.mobility = MobilityManager(self.sim, tick=0.1)
        self.env = environment_class(
            self.sim, budget, visibility=visibility, mobility=self.mobility
        )
        if options["full_scan"]:
            self.env.use_spatial_index = False
        self.spots = {}
        for name, position in positions.items():
            spot = _Spot(name, position)
            self.spots[name] = spot
            if self.mobility is not None:
                self.mobility.add_node(spot)
            self.env.attach(name, lambda spot=spot: spot.position)
        if self.mobility is not None:
            # A roadside unit the substrate does not track.
            overlay = _Spot("rsu", Vec2(25.0, -40.0))
            self.spots["rsu"] = overlay
            self.env.attach("rsu", lambda: overlay.position)

    def move(self, moves) -> None:
        for name, (x, y) in moves:
            self.spots[name].position = Vec2(x, y)
        if self.mobility is not None:
            self.spots["rsu"].position = Vec2(-60.0, 10.0)
            self.mobility.substrate.commit()
        else:
            self.env.notify_positions_changed()

    def plans(self):
        self.env._refresh()
        return {
            name: plan_fields(self.env._sender_plan(self.env.interface_of(name)))
            for name in self.env.node_names
        }


@settings(max_examples=120, deadline=None)
@given(fleets())
def test_exact_plans_match_the_oracle_field_by_field(fleet):
    positions, options = fleet
    production = _Fleet(RadioEnvironment, positions, options)
    oracle = _Fleet(ReferenceRadioEnvironment, positions, options)
    assert production.plans() == oracle.plans()
    production.move(options["moves"])
    oracle.move(options["moves"])
    assert production.plans() == oracle.plans()


def test_fleet_edges_are_reached():
    """The fixed edge nodes land where the argument needs them."""
    fleet = _Fleet(
        RadioEnvironment,
        {"o-origin": Vec2(0.0, 0.0), "o-radius": Vec2(RADIUS, 0.0),
         "o-past": Vec2(0.0, -(RANGE + 1.0)), "o-near": Vec2(0.5, 0.0)},
        {"noise_penalty_db": 0.0, "buildings": None, "full_scan": False,
         "bound": False, "moves": []},
    )
    env = fleet.env
    assert env._query_radius == RADIUS
    budget = env.link_budget
    assert not budget.quality(Vec2(0.0, 0.0), Vec2(RADIUS, 0.0)).usable
    assert budget.quality(Vec2(0.0, 0.0), Vec2(RANGE, 0.0)).usable
    plan = fleet.plans()["o-origin"]
    # o-radius is a candidate (squared distance == radius²) but unusable.
    assert "o-radius" not in plan["receivers"]
    assert plan["receivers"][0] == "o-near"
    assert plan["out_of_range"] == 3 - len(plan["receivers"])


receivers = st.lists(points, min_size=0, max_size=25)
budgets = st.sampled_from(
    [
        LinkBudget(),
        LinkBudget(FreeSpacePathLoss()),
        LinkBudget(LogDistancePathLoss(exponent=3.3, reference_distance=2.5,
                                       nlos_penalty_db=22.0)),
    ]
)


def quality_hex(quality):
    return (
        float.hex(quality.snr_db),
        float.hex(quality.rate_bps),
        float.hex(quality.packet_error_rate),
        quality.usable,
        float.hex(quality.distance),
    )


@settings(max_examples=150, deadline=None)
@given(
    budgets,
    points,
    receivers,
    st.one_of(st.none(), st.lists(buildings, min_size=1, max_size=6)),
    st.floats(min_value=-6.0, max_value=12.0),
)
def test_quality_batch_is_scalar_quality_on_the_exact_kernel(
    budget, tx, rxs, obstacles, noise_penalty_db
):
    tx = Vec2(*tx)
    # Co-located with the sender and with each other, under any d0.
    rx_points = [Vec2(*rx) for rx in rxs] + [tx, Vec2(tx.x + 0.25, tx.y)]
    visibility = None if obstacles is None else VisibilityMap(obstacles)
    xs = np.array([rx.x for rx in rx_points], np.float64)
    ys = np.array([rx.y for rx in rx_points], np.float64)
    budget.noise_penalty_db = noise_penalty_db
    try:
        columns = budget.exact_arrays_xy(tx, xs, ys, visibility, rxs=rx_points)
        scalar = [budget.quality(tx, rx, visibility) for rx in rx_points]
    finally:
        budget.noise_penalty_db = 0.0
    batch = [
        (float.hex(snr), float.hex(rate), float.hex(per), usable, float.hex(distance))
        for snr, rate, per, usable, distance in zip(*(c.tolist() for c in columns))
    ]
    assert batch == [quality_hex(q) for q in scalar]


def _counted_fleet(bound: bool, count: int = 12):
    """A fleet whose position providers count their calls."""
    sim = Simulator(seed=4)
    mobility = MobilityManager(sim, tick=0.1) if bound else None
    env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    calls = {}
    side = math.ceil(math.sqrt(count))
    for index in range(count):
        name = f"v{index:02d}"
        spot = _Spot(name, Vec2(40.0 * (index % side), 40.0 * (index // side)))
        if mobility is not None:
            mobility.add_node(spot)
        calls[name] = 0

        def provider(spot=spot):
            calls[spot.name] += 1
            return spot.position

        env.attach(name, provider)
    return sim, env, mobility, calls


def test_exact_tier_reads_each_position_once_per_epoch():
    sim, env, mobility, calls = _counted_fleet(bound=True)
    names = env.node_names
    for epoch in (1, 2):
        for name in names:
            env.interface_of(name).send("beacon", 100, destination=None)
        assert len(env._plans) == len(names)
        # Every node broadcast to ~11 candidates, yet each provider ran once.
        assert calls == {name: epoch for name in names}
        mobility.substrate.commit()  # next epoch, nobody moved


def test_unbound_position_reads_do_not_grow_with_plans():
    sim, env, _, calls = _counted_fleet(bound=False)
    names = env.node_names
    env.interface_of(names[0]).send("beacon", 100, destination=None)
    after_one = dict(calls)
    for name in names[1:]:
        env.interface_of(name).send("beacon", 100, destination=None)
    assert len(env._plans) == len(names)
    assert calls == after_one


def test_unbound_fleet_reads_each_position_once_per_event_time():
    sim, env, _, calls = _counted_fleet(bound=False)
    names = env.node_names

    def everyone_beacons():
        for name in names:
            env.interface_of(name).send("beacon", 100, destination=None)

    for time in (0.0, 0.5, 1.0):
        sim.schedule_at(time, everyone_beacons)
    sim.run(until=1.0)
    assert len(env._plans) == len(names)
    # Three transmitting event times, one universe each.
    assert calls == {name: 3 for name in names}
