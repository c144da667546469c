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

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.data.datatypes import DataType, typical_frame_size
from repro.data.pond import DataPond
from repro.geometry.los import VisibilityMap
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
    ) -> None:
        self.sim = sim
        self.owner_name = owner_name
        self.position_provider = position_provider
        self.ground_truth = ground_truth
        self.pond = pond
        self.visibility = visibility
        self.range_m = range_m
        self.period = period
        self.noise_std_m = noise_std_m
        self.miss_rate = miss_rate
        self.frames_captured = 0
        self._rng = sim.streams.get(f"lidar:{owner_name}")
        self._task = sim.schedule_periodic(
            period, self.capture, name=f"lidar:{owner_name}"
        )

    def stop(self) -> None:
        """Stop capturing frames."""
        self._task.cancel()

    def capture(self) -> SensorFrame:
        """Capture one frame now and store it in the pond."""
        origin = self.position_provider()
        distance_to = origin.distance_to
        owner_name = self.owner_name
        range_m = self.range_m
        in_range = [
            (label, position)
            for label, position in self.ground_truth()
            if label != owner_name and distance_to(position) <= range_m
        ]
        # One LOS batch query for the whole frame (occluded targets never
        # reached the miss-rate draw before either, so the RNG sequence is
        # unchanged).
        if self.visibility is not None and in_range:
            flags = self.visibility.line_of_sight_batch(
                origin, [position for _, position in in_range]
            )
            visible = [target for target, seen in zip(in_range, flags) if seen]
        else:
            visible = in_range
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
