"""Mobility substrate: road networks and moving nodes.

The paper's evaluation plan relies on vehicles approaching an intersection and
on geographically distributed edge devices in general.  This package supplies
that substrate:

* :class:`~repro.mobility.road_network.RoadNetwork` — a directed graph of
  roads with positions, speed limits and shortest-path routing.
* :func:`~repro.mobility.road_network.manhattan_grid` and
  :func:`~repro.mobility.road_network.single_intersection` — generators for
  the two road layouts used in the evaluation.
* :class:`~repro.mobility.vehicle.Vehicle` — a kinematic vehicle following a
  route along the road network with an Intelligent-Driver-Model-style
  car-following law.
* :class:`~repro.mobility.waypoints.RandomWaypointNode` — the classic random
  waypoint model for non-vehicular edge devices.
* :class:`~repro.mobility.manager.MobilityManager` — advances every mobile
  node on a fixed tick and commits their positions to the shared
  :class:`~repro.geometry.substrate.SpatialSubstrate`, whose position epoch
  drives the radio layer's caches.
* :class:`~repro.mobility.traces.TrajectoryTrace` — per-node position history.
"""

from repro.mobility.road_network import (
    RoadNetwork,
    manhattan_grid,
    single_intersection,
)
from repro.mobility.vehicle import Vehicle, VehicleParameters
from repro.mobility.waypoints import RandomWaypointNode, StaticNode
from repro.mobility.manager import MobilityManager
from repro.mobility.traces import TrajectoryTrace

__all__ = [
    "RoadNetwork",
    "manhattan_grid",
    "single_intersection",
    "Vehicle",
    "VehicleParameters",
    "RandomWaypointNode",
    "StaticNode",
    "MobilityManager",
    "TrajectoryTrace",
]
