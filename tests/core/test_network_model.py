"""Tests for Model 1 construction and contact-time prediction."""

import math

import pytest

from repro.core.network_model import NetworkDescriptionBuilder, predict_contact_time
from repro.geometry.vector import Vec2
from repro.mesh.node import MeshNode
from repro.mobility.manager import MobilityManager
from repro.mobility.vehicle import Vehicle
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator


class TestPredictContactTime:
    def test_already_out_of_range(self):
        assert predict_contact_time(Vec2(0, 0), Vec2(0, 0), Vec2(500, 0), Vec2(0, 0), 100.0) == 0.0

    def test_static_nodes_in_range_never_separate(self):
        assert math.isinf(
            predict_contact_time(Vec2(0, 0), Vec2(0, 0), Vec2(50, 0), Vec2(0, 0), 100.0)
        )

    def test_departing_node_leaves_at_expected_time(self):
        # b starts at x=50 moving away at 10 m/s; leaves 100 m range after 5 s.
        time = predict_contact_time(Vec2(0, 0), Vec2(0, 0), Vec2(50, 0), Vec2(10, 0), 100.0)
        assert time == pytest.approx(5.0)

    def test_approaching_node_has_longer_contact_than_departing(self):
        approaching = predict_contact_time(Vec2(0, 0), Vec2(0, 0), Vec2(50, 0), Vec2(-10, 0), 100.0)
        departing = predict_contact_time(Vec2(0, 0), Vec2(0, 0), Vec2(50, 0), Vec2(10, 0), 100.0)
        assert approaching > departing

    def test_same_velocity_never_separates(self):
        assert math.isinf(
            predict_contact_time(Vec2(0, 0), Vec2(7, 0), Vec2(30, 0), Vec2(7, 0), 100.0)
        )

    def test_already_out_of_range_while_approaching_is_zero(self):
        # Contact prediction is conservative: a node outside range counts as
        # no contact even if it is heading straight back in.
        assert predict_contact_time(
            Vec2(0, 0), Vec2(0, 0), Vec2(500, 0), Vec2(-50, 0), 100.0
        ) == 0.0

    def test_exactly_on_boundary_moving_tangentially(self):
        # |p| == R with purely tangential motion: b = 2 p·v = 0 and c = 0, so
        # the discriminant collapses to 0 and the root is t = 0 — the node is
        # already leaving.
        assert predict_contact_time(
            Vec2(0, 0), Vec2(0, 0), Vec2(100, 0), Vec2(0, 10), 100.0
        ) == 0.0

    def test_tangential_pass_inside_range_exits_via_chord(self):
        # Node crosses the range disc on a chord: starting at (-60, 80) with
        # |p| = 100 = R... use a point strictly inside: (0, 80), moving along
        # +x at 10 m/s inside R=100 exits at x = 60 -> t = 6 s.
        time = predict_contact_time(
            Vec2(0, 0), Vec2(0, 0), Vec2(0, 80), Vec2(10, 0), 100.0
        )
        assert time == pytest.approx(6.0)

    def test_approaching_then_receding_takes_the_later_root(self):
        # Node at (90, 0) moving at -10 m/s crosses the disc and leaves on
        # the far side at x = -100: |90 - 10 t| = 100 -> t = 19 s (the
        # positive root), not the negative entry root t = -1 s.
        time = predict_contact_time(
            Vec2(0, 0), Vec2(0, 0), Vec2(90, 0), Vec2(-10, 0), 100.0
        )
        assert time == pytest.approx(19.0)

    def test_rounding_past_the_boundary_is_clamped_to_zero(self):
        # hypot() puts b exactly on the range circle, but the squared
        # distance rounds 3.6e-12 past R², so the outward root is slightly
        # negative before the clamp.
        position = Vec2(27.738, 169.639)
        comm_range = position.length()
        assert position.length_squared() > comm_range * comm_range
        time = predict_contact_time(Vec2(0, 0), Vec2(0, 0), position, Vec2(1, 6), comm_range)
        assert time == 0.0 and math.copysign(1.0, time) == 1.0

    def test_zero_relative_velocity_on_boundary_is_inf(self):
        # Degenerate: parked exactly on the range circle -> never separates
        # under the constant-velocity model.
        assert math.isinf(
            predict_contact_time(Vec2(0, 0), Vec2(3, 1), Vec2(100, 0), Vec2(3, 1), 100.0)
        )


def test_builder_produces_neighbor_descriptions():
    sim = Simulator(seed=9)
    env = RadioEnvironment(sim, LinkBudget())
    manager = MobilityManager(sim, tick=0.1)
    ego_vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(300, 0)], name="ego", initial_speed=10.0)
    manager.add_node(ego_vehicle)
    other = StaticNode(sim, Vec2(60, 0), name="other")
    manager.add_node(other)
    ego = MeshNode(sim, env, ego_vehicle)
    peer = MeshNode(sim, env, other)
    builder = NetworkDescriptionBuilder(ego, env)
    sim.run(until=2.0)
    description = builder.build(sim.now)
    assert description.owner == "ego"
    assert description.names() == ["other"]
    neighbor = description.neighbors[0]
    assert neighbor.link_rate_bps > 0
    assert neighbor.beacon_age_s < 1.0
    assert neighbor.predicted_contact_time_s > 0
    assert description.total_headroom_ops() == neighbor.compute_headroom_ops


def test_builder_empty_when_isolated():
    sim = Simulator(seed=9)
    env = RadioEnvironment(sim, LinkBudget())
    lonely = MeshNode(sim, env, StaticNode(sim, Vec2(0, 0), name="lonely"))
    builder = NetworkDescriptionBuilder(lonely, env)
    sim.run(until=2.0)
    assert len(builder.build(sim.now)) == 0
