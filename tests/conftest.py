"""Shared fixtures for the AirDnD test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.compute.faas import FunctionDefinition, FunctionRegistry
from repro.core.api import AirDnDConfig, AirDnDNode
from repro.geometry.vector import Vec2
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator

# Property tests run without hypothesis's 200 ms per-example wall-clock
# deadline: on a loaded host a slow example would fail a test whose property
# holds.  Tests that pass their own ``@settings`` inherit this default.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator with a fixed seed."""
    return Simulator(seed=42)


@pytest.fixture
def registry() -> FunctionRegistry:
    """A catalogue with one trivial function ('noop': returns 42)."""
    reg = FunctionRegistry()
    reg.register(
        FunctionDefinition(
            name="noop",
            body=lambda params, pond: 42,
            cost_model=lambda params: 1e7,
            memory_mb=16.0,
            result_size_bytes=200,
        )
    )
    return reg


@pytest.fixture
def environment(sim) -> RadioEnvironment:
    """A radio environment with default link budget and no obstacles."""
    return RadioEnvironment(sim, LinkBudget())


def make_static_airdnd_nodes(sim, environment, registry, positions, config=None):
    """Create one AirDnD node per position, attached to static mobiles."""
    nodes = []
    for index, (x, y) in enumerate(positions):
        mobile = StaticNode(sim, Vec2(float(x), float(y)), name=f"node-{index}")
        nodes.append(
            AirDnDNode(sim, environment, mobile, registry, config=config or AirDnDConfig())
        )
    return nodes


@pytest.fixture
def two_nodes(sim, environment, registry):
    """Two static AirDnD nodes 50 m apart with beacons already exchanged."""
    nodes = make_static_airdnd_nodes(sim, environment, registry, [(0, 0), (50, 0)])
    sim.run(until=2.0)
    return nodes
