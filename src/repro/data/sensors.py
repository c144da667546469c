"""Sensor models producing frames from simulated ground truth.

The only physical sensor modelled in detail is a lidar-like ranging sensor:
every period it looks at the simulation's ground-truth agents, keeps those
within range and line of sight, perturbs their positions with Gaussian noise,
optionally drops detections (false negatives), and stores the resulting
:class:`SensorFrame` in the owner's :class:`~repro.data.pond.DataPond`.

That is all the "looking around the corner" use case needs: the approaching
vehicle's sensor genuinely cannot see the occluded pedestrian, while another
vehicle's sensor can.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datatypes import DataType, typical_frame_size
from repro.data.pond import DataPond
from repro.geometry.los import VisibilityMap
from repro.geometry.substrate import SpatialSubstrate
from repro.geometry.vector import Vec2
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class Detection:
    """One detected object in a sensor frame."""

    label: str
    position: Vec2
    confidence: float = 1.0


@dataclass
class SensorFrame:
    """One frame of sensor output.

    Attributes
    ----------
    data_type:
        What kind of frame this is.
    timestamp:
        Virtual time of capture.
    origin:
        Sensor position at capture time.
    detections:
        Objects visible in this frame.
    range_m:
        Sensor range used for the capture.
    size_bytes:
        Serialized size (raw frames are big; that is the point).
    """

    data_type: DataType
    timestamp: float
    origin: Vec2
    detections: List[Detection] = field(default_factory=list)
    range_m: float = 80.0
    size_bytes: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes == 0:
            self.size_bytes = typical_frame_size(self.data_type)

    def detected_labels(self) -> List[str]:
        """Labels of all detections in the frame."""
        return [d.label for d in self.detections]


#: Ground-truth provider: returns (label, position) pairs of every agent
#: currently present in the world that sensors could in principle see.
GroundTruthProvider = Callable[[], Sequence[Tuple[str, Vec2]]]

#: Relative band around a sensor's range inside which the range test takes
#: ``math.hypot`` (as ``Vec2.distance_to`` does), not the squared distance.
RANGE_GUARD = 1e-9


class LidarSweep:
    """What every lidar of one world sees, computed once per position epoch.

    A pass reads the ground truth and each registered sensor's origin once,
    keeps the agents each sensor's range test admits (bit for bit
    ``origin.distance_to(position) <= range_m``, its own label excluded) and
    makes one :meth:`~repro.geometry.los.VisibilityMap.blocked_rays` call
    for all of their rays.  Visible lists keep ground-truth order, so a
    capture draws its noise as a scan of its own would.  The substrate's
    ``position_epoch`` and the map's ``obstacle_epoch`` key the pass; without
    a substrate every capture makes a fresh pass.  The pass is derived state
    and stays out of the pickle.
    """

    def __init__(
        self,
        ground_truth: GroundTruthProvider,
        visibility: Optional[VisibilityMap] = None,
        substrate: Optional[SpatialSubstrate] = None,
    ) -> None:
        self.ground_truth = ground_truth
        self.visibility = visibility
        self.substrate = substrate
        self.sensors: List["LidarSensor"] = []
        #: ``(key, origins, visible lists)`` of the last pass.
        self._pass: Optional[tuple] = None

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_pass"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _pass=None)

    def add(self, sensor: "LidarSensor") -> int:
        """Register ``sensor``; returns its slot in every pass."""
        self.sensors.append(sensor)
        self._pass = None
        return len(self.sensors) - 1

    def scan(self, slot: int) -> Tuple[Vec2, List[Tuple[str, Vec2]]]:
        """The sensor's origin and visible agents in the current epoch."""
        key = None
        if self.substrate is not None:
            key = (
                self.substrate.position_epoch,
                None if self.visibility is None else self.visibility.obstacle_epoch,
            )
        if key is None or self._pass is None or self._pass[0] != key:
            self._pass = (key, *self._sweep())
        _, origins, visible = self._pass
        return origins[slot], visible[slot]

    def _sweep(self) -> Tuple[List[Vec2], List[List[Tuple[str, Vec2]]]]:
        truth = list(self.ground_truth())
        origins = [sensor.position_provider() for sensor in self.sensors]
        tx, ty = np.array([(p.x, p.y) for _, p in truth], np.float64).reshape(-1, 2).T
        ox, oy = np.array([(o.x, o.y) for o in origins], np.float64).reshape(-1, 2).T
        ranges = np.array([sensor.range_m for sensor in self.sensors], np.float64)[:, None]
        dx, dy = ox[:, None] - tx, oy[:, None] - ty
        squared = dx * dx + dy * dy
        # The band's bounds are squared with their sign, so a negative range
        # admits nothing.
        inner, outer = ranges * (1.0 - RANGE_GUARD), ranges * (1.0 + RANGE_GUARD)
        in_range = squared <= inner * np.abs(inner)
        for row, col in zip(*np.nonzero(~in_range & (squared < outer * np.abs(outer)))):
            in_range[row, col] = math.hypot(dx[row, col], dy[row, col]) <= ranges[row, 0]
        owners = np.array([sensor.owner_name for sensor in self.sensors], dtype=object)
        in_range &= owners[:, None] != np.array([label for label, _ in truth], dtype=object)
        rows, cols = np.nonzero(in_range)
        if self.visibility is not None and len(rows):
            seen = ~self.visibility.blocked_rays(ox[rows], oy[rows], tx[cols], ty[cols])
            rows, cols = rows[seen], cols[seen]
        visible: List[List[Tuple[str, Vec2]]] = [[] for _ in origins]
        for row, col in zip(rows.tolist(), cols.tolist()):
            visible[row].append(truth[col])
        return origins, visible


class LidarSensor:
    """A periodic ranging sensor honouring occlusion.

    Parameters
    ----------
    sim:
        Simulator for scheduling captures.
    owner_name:
        Name of the node carrying the sensor (its own label is excluded from
        detections).
    position_provider:
        Callable returning the sensor's current position.
    ground_truth:
        Callable returning all (label, position) agents in the world.
    pond:
        The data pond frames are written into.
    visibility:
        Obstacle map used for occlusion (``None`` disables occlusion).
    range_m:
        Maximum detection range.
    period:
        Seconds between captures.
    noise_std_m:
        Standard deviation of Gaussian position noise.
    miss_rate:
        Probability a visible agent is missed in a given frame.
    sweep:
        The world's :class:`LidarSweep`, which must hold the same
        ``ground_truth`` and ``visibility``; without one the sensor makes a
        single-sensor sweep of its own.
    """

    def __init__(
        self,
        sim: Simulator,
        owner_name: str,
        position_provider: Callable[[], Vec2],
        ground_truth: GroundTruthProvider,
        pond: DataPond,
        visibility: Optional[VisibilityMap] = None,
        range_m: float = 80.0,
        period: float = 0.1,
        noise_std_m: float = 0.2,
        miss_rate: float = 0.05,
        sweep: Optional[LidarSweep] = None,
    ) -> None:
        if sweep is None:
            sweep = LidarSweep(ground_truth, visibility)
        elif sweep.ground_truth != ground_truth or sweep.visibility is not visibility:
            raise ValueError("the sweep serves another ground truth or visibility map")
        self.sim = sim
        self.owner_name = owner_name
        self.position_provider = position_provider
        self.pond = pond
        self.range_m = range_m
        self.period = period
        self.noise_std_m = noise_std_m
        self.miss_rate = miss_rate
        self.frames_captured = 0
        self._rng = sim.streams.get(f"lidar:{owner_name}")
        self.sweep = sweep
        self._slot = sweep.add(self)
        self._task = sim.schedule_periodic(
            period, self.capture, name=f"lidar:{owner_name}"
        )

    def stop(self) -> None:
        """Stop capturing frames."""
        self._task.cancel()

    def capture(self) -> SensorFrame:
        """Capture one frame now and store it in the pond."""
        origin, visible = self.sweep.scan(self._slot)
        # Generator draws with scalar arguments are already Python floats.
        random = self._rng.random
        normal = self._rng.normal
        miss_rate = self.miss_rate
        noise_std_m = self.noise_std_m
        detections: List[Detection] = []
        for label, position in visible:
            if random() < miss_rate:
                continue
            noisy = Vec2(
                position.x + normal(0.0, noise_std_m),
                position.y + normal(0.0, noise_std_m),
            )
            confidence = min(1.0, max(0.0, normal(0.9, 0.05)))
            detections.append(Detection(label, noisy, confidence))
        frame = SensorFrame(
            data_type=DataType.LIDAR_SCAN,
            timestamp=self.sim.now,
            origin=origin,
            detections=detections,
            range_m=self.range_m,
        )
        self.pond.store(frame)
        self.frames_captured += 1
        return frame
