"""Kinematic vehicles following routes over a road network.

Vehicles move along a polyline of waypoints with an Intelligent-Driver-Model
(IDM)-style speed law: they accelerate toward the road's speed limit and
brake smoothly when approaching the end of their route or a leading vehicle
registered as an obstacle.  The model is deliberately simple — the
orchestration layer only consumes positions and velocities — but it produces
realistic approach/depart dynamics at the intersection, which is what drives
contact-time prediction in the AirDnD candidate scorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.geometry.vector import Vec2
from repro.simcore.entity import SimEntity
from repro.simcore.simulator import Simulator


@dataclass
class VehicleParameters:
    """Tunable parameters of the car-following behaviour.

    Attributes
    ----------
    max_speed:
        Desired cruise speed in m/s (capped by each road's speed limit).
    max_acceleration:
        Comfortable acceleration in m/s².
    max_deceleration:
        Comfortable braking in m/s² (positive number).
    length:
        Vehicle length in metres (used for stopping distance margins).
    """

    max_speed: float = 13.9
    max_acceleration: float = 2.5
    max_deceleration: float = 4.0
    length: float = 4.5


class Vehicle(SimEntity):
    """A vehicle that follows a waypoint route with smooth speed control."""

    def __init__(
        self,
        sim: Simulator,
        route: Sequence[Vec2],
        params: Optional[VehicleParameters] = None,
        name: Optional[str] = None,
        initial_speed: float = 0.0,
        loop_route: bool = False,
    ) -> None:
        super().__init__(sim, name)
        if len(route) < 1:
            raise ValueError("a vehicle needs at least one waypoint")
        self.params = params or VehicleParameters()
        self.route: List[Vec2] = list(route)
        self.loop_route = loop_route
        self.position: Vec2 = self.route[0]
        self.speed: float = float(initial_speed)
        self.heading: Vec2 = Vec2(1.0, 0.0)
        self._waypoint_index = 1 if len(self.route) > 1 else 0
        self.finished = len(self.route) <= 1
        self.distance_travelled = 0.0

    # -------------------------------------------------------------- queries

    @property
    def velocity(self) -> Vec2:
        """Velocity vector (heading scaled by speed)."""
        return self.heading * self.speed

    def remaining_route_length(self) -> float:
        """Metres left to drive along the remaining waypoints."""
        if self.finished:
            return 0.0
        total = self.position.distance_to(self.route[self._waypoint_index])
        for a, b in zip(
            self.route[self._waypoint_index :], self.route[self._waypoint_index + 1 :]
        ):
            total += a.distance_to(b)
        return total

    def predicted_position(self, horizon: float) -> Vec2:
        """Dead-reckoned position ``horizon`` seconds into the future.

        This is exactly the prediction the AirDnD candidate scorer performs on
        remote nodes from their last beacon: constant-velocity extrapolation.
        """
        return self.position + self.velocity * horizon

    # -------------------------------------------------------------- update

    def advance(self, dt: float) -> None:
        """Move the vehicle forward by ``dt`` seconds."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        if self.finished:
            self.speed = 0.0
            return

        target = self.route[self._waypoint_index]
        to_target = target - self.position
        distance = to_target.length()

        if distance > 1e-9:
            self.heading = to_target.normalized()

        # Speed control: accelerate toward max_speed, brake for route end
        # (a looping route has none, so it never walks its remaining length).
        accel = self.params.max_acceleration
        if not self.loop_route:
            remaining = self.remaining_route_length()
            braking_distance = (self.speed ** 2) / (2.0 * self.params.max_deceleration)
            if remaining <= braking_distance + self.params.length:
                accel = -self.params.max_deceleration
        self.speed = max(0.0, min(self.params.max_speed, self.speed + accel * dt))
        if accel < 0 and remaining > 1e-6:
            # Keep a crawl speed while braking so the vehicle still reaches
            # the end of its route instead of stalling short of it.
            self.speed = max(self.speed, min(1.0, self.params.max_speed))

        step = self.speed * dt
        self.distance_travelled += min(step, distance) if distance > 0 else 0.0

        # Consume waypoints, carrying over leftover distance.
        while step >= distance and not self.finished:
            self.position = target
            step -= distance
            self._waypoint_index += 1
            if self._waypoint_index >= len(self.route):
                if self.loop_route:
                    self._waypoint_index = 0
                else:
                    self.finished = True
                    self.speed = 0.0
                    return
            target = self.route[self._waypoint_index]
            to_target = target - self.position
            distance = to_target.length()
            if distance > 1e-9:
                self.heading = to_target.normalized()

        if step > 0 and distance > 1e-9:
            self.position = self.position + self.heading * step
