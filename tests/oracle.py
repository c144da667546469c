"""Test-side reference implementations ("oracles") for optimised paths.

Each oracle is the plain, obviously-correct version of something production
code does in a faster shape.  Tests run both on the same inputs and demand
identical results, so the fast path can change freely as long as it keeps
agreeing with the reference here.

* :func:`reference_transmit` — the exact radio tier's per-receiver loop: one
  link lookup, RNG draw and counter increment per receiver per frame, one
  ``Simulator.schedule`` per delivery, and on arrival the delivery itself
  (:meth:`RadioInterface.deliver` for a unicast; for a broadcast, the
  neighbour store written one arrival at a time by
  :func:`reference_receive` and the broadcast handlers called inside the
  event; the event then counts the frame delivered), where production
  defers every broadcast arrival into the environment's bulk commit.
  :func:`use_reference_transmit` swaps it into an environment.
* :func:`reference_topology` — a topology snapshot's statistics computed
  with networkx from the same neighbour tables the observer reads.
* :class:`ReferenceRadioEnvironment` — a radio environment whose exact-tier
  plans are built the way they were before the epoch universe: candidates
  from a scalar range scan (:func:`candidate_names`), name-sorted,
  their qualities from link rows filled pair by pair with scalar
  :meth:`LinkBudget.quality` calls instead of the column kernel, optionally
  scanning every attached interface instead of the range query.
* :class:`BruteForceVisibility` — a visibility map that tests every polygon
  with :func:`~repro.geometry.los.line_of_sight` instead of querying the
  obstacle index's numpy kernel.
* :class:`ReferenceLidarSensor` — a lidar that scans the ground truth
  itself on every capture (``distance_to`` range test, one
  ``line_of_sight_batch`` query) instead of reading the world's
  per-epoch :class:`~repro.data.sensors.LidarSweep`.
* :func:`reference_network_description` — Model 1 built with :class:`Vec2`
  arithmetic per neighbour (dead-reckoned beacon position, ``distance_to``,
  :func:`reference_contact_time`) instead of the builder's flat float pass.
* :func:`reference_histogram` — a sample series' exposition buckets
  computed from the raw observations (sort, then one ``searchsorted`` per
  bound) instead of the streaming per-bucket counts.

:func:`tap_link_delays` is not an oracle but a tap: it records the raw
``radio.link_delay`` observations, which the production series folds into
buckets, so tests can compare them value by value.  :func:`tap_frames`
taps one interface's arrivals, broadcast and unicast alike, with their
keys, and :func:`in_fire_order` puts such records back in the order the
event loop fired them.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Dict, Iterable, List, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.models import NeighborDescription, NetworkDescription
from repro.core.network_model import NetworkDescriptionBuilder
from repro.data.datatypes import DataType
from repro.data.sensors import Detection, LidarSensor, SensorFrame
from repro.geometry.los import VisibilityMap, line_of_sight
from repro.geometry.vector import Vec2
from repro.mesh.messages import Beacon
from repro.mesh.neighbor import NeighborStore
from repro.mesh.node import _UnicastTap
from repro.radio.interfaces import (
    BroadcastHandler,
    Frame,
    RadioEnvironment,
    RadioInterface,
    _SenderPlan,
)
from repro.radio.link import LinkQuality
from repro.simcore.monitor import DEFAULT_BUCKETS, SampleSeries
from repro.simcore.simulator import Simulator


class BruteForceVisibility(VisibilityMap):
    """A :class:`VisibilityMap` answering every query with a full polygon scan."""

    def has_line_of_sight(self, a: Vec2, b: Vec2) -> bool:
        return line_of_sight(a, b, self._obstacles)

    def line_of_sight_batch(self, origin: Vec2, targets: Sequence[Vec2]) -> List[bool]:
        return [line_of_sight(origin, target, self._obstacles) for target in targets]

    def blocked_rays(self, ax, ay, bx, by) -> np.ndarray:
        return np.array(
            [
                not line_of_sight(
                    Vec2(float(x0), float(y0)), Vec2(float(x1), float(y1)), self._obstacles
                )
                for x0, y0, x1, y1 in zip(ax, ay, bx, by)
            ],
            dtype=bool,
        )


class ReferenceLidarSensor(LidarSensor):
    """A :class:`LidarSensor` whose every capture scans the world itself.

    The capture path before the per-epoch sweep: read the origin, keep the
    ground-truth agents within ``distance_to`` range (the owner excluded),
    one ``line_of_sight_batch`` query for them, then the same noise draws.
    The sensor still registers with a sweep (its own single-sensor one, or
    the ``sweep`` given), which it never reads.
    """

    def capture(self) -> SensorFrame:
        origin = self.position_provider()
        in_range = [
            (label, position)
            for label, position in self.sweep.ground_truth()
            if label != self.owner_name and origin.distance_to(position) <= self.range_m
        ]
        visibility = self.sweep.visibility
        if visibility is not None and in_range:
            flags = visibility.line_of_sight_batch(
                origin, [position for _, position in in_range]
            )
            visible = [target for target, seen in zip(in_range, flags) if seen]
        else:
            visible = in_range
        detections = []
        for label, position in visible:
            if self._rng.random() < self.miss_rate:
                continue
            noisy = Vec2(
                position.x + self._rng.normal(0.0, self.noise_std_m),
                position.y + self._rng.normal(0.0, self.noise_std_m),
            )
            confidence = min(1.0, max(0.0, self._rng.normal(0.9, 0.05)))
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


def candidate_names(env: RadioEnvironment, center: Vec2) -> List[str]:
    """Attached interface names within ``env``'s query radius of ``center``.

    A scalar scan over every attached interface's live position with the
    ``dx*dx + dy*dy <= r*r`` test, name-sorted: independent of the numpy
    mask the production plans apply to the epoch universe.
    """
    radius = env._query_radius
    r_sq = radius * radius
    names = []
    for name, interface in env._interfaces.items():
        position = interface.position
        dx = position.x - center.x
        dy = position.y - center.y
        if dx * dx + dy * dy <= r_sq:
            names.append(name)
    return sorted(names)


class ReferenceRadioEnvironment(RadioEnvironment):
    """A :class:`RadioEnvironment` on the scalar reference paths.

    An exact-tier plan takes its candidates from :func:`candidate_names`,
    sorts them by name and reads their qualities from link rows that hold
    one scalar ``link_budget.quality`` call per pair; the spatially pruned
    interfaces count into ``out_of_range`` wholesale.  With ``full_scan``
    set, range pruning is off (``use_spatial_index = False``), so every
    attached interface is a broadcast candidate.  Both must leave the
    delivered-frame sequence of the exact tier unchanged.
    """

    def __init__(self, *args, full_scan: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if full_scan:
            self.use_spatial_index = False

    def _build_plan(self, sender: RadioInterface) -> _SenderPlan:
        if self.fast_math:
            return super()._build_plan(sender)
        interfaces = self._interfaces
        name = sender.node_name
        candidates = _reference_candidates(self, sender)
        others = len(interfaces) - (1 if name in interfaces else 0)
        row = self._ensure_row(name, candidates)
        names = [other for other in candidates if row[other].usable]
        qualities = [row[other] for other in names]
        return _SenderPlan(
            [interfaces[other] for other in names],
            np.array([interfaces[other].slot for other in names], np.int64),
            np.array([quality.snr_db for quality in qualities]),
            np.array([quality.packet_error_rate for quality in qualities]),
            np.array([quality.rate_bps for quality in qualities]),
            np.array([quality.distance for quality in qualities]),
            others - len(names),
            self.contention_factor,
        )

    def _ensure_row(self, src: str, wanted: Sequence[str]) -> Dict[str, LinkQuality]:
        row = self._quality_rows.setdefault(src, {})
        interfaces = self._interfaces
        tx = interfaces[src].position
        for name in wanted:
            if name not in row and name in interfaces:
                row[name] = self.link_budget.quality(
                    tx, interfaces[name].position, self.visibility
                )
        return row


def _reference_candidates(env: RadioEnvironment, sender: RadioInterface) -> List[str]:
    """Name-sorted broadcast candidates: in query range, or all on the
    brute-force path."""
    if env.use_spatial_index:
        names = candidate_names(env, sender.position)
    else:
        names = list(env._interfaces)
    return sorted(name for name in names if name != sender.node_name)


def reference_transmit(env: RadioEnvironment, sender: RadioInterface, frame: Frame) -> None:
    """Deliver ``frame`` the way the exact tier's per-receiver loop did."""
    env._refresh()
    monitor = env.sim.monitor
    out_of_range = monitor.counter("radio.frames_out_of_range")
    lost = monitor.counter("radio.frames_lost")
    candidates = _reference_candidates(env, sender)
    usable = [
        name for name in candidates
        if env.link_quality(sender.node_name, name).usable
    ]
    if frame.destination is None:
        receiver_names = candidates
        if env.use_spatial_index:
            others = len(env._interfaces) - (
                1 if sender.node_name in env._interfaces else 0
            )
            for _ in range(others - len(candidates)):
                out_of_range.add()
    else:
        receiver_names = [frame.destination]
    scale = 1.0 / (1.0 + env.contention_factor * max(0, len(usable) - 1))
    rng = env.sim.streams.get(env.rng_stream)
    for name in receiver_names:
        receiver = env._interfaces.get(name)
        if receiver is None or receiver is sender:
            continue
        quality = env.link_quality(sender.node_name, name)
        if not quality.usable:
            out_of_range.add()
            continue
        if rng.random() < quality.packet_error_rate:
            lost.add()
            continue
        if env.extra_loss_probability > 0.0 and rng.random() < env.extra_loss_probability:
            lost.add()
            continue
        rate = quality.rate_bps * scale
        delay = env.link_budget.transfer_time(frame.size_bytes * 8, rate) + (
            quality.distance / 3e8
        )
        monitor.sample("radio.link_delay").add(delay)
        env.sim.schedule(
            delay,
            lambda receiver=receiver, quality=quality: _reference_deliver(
                receiver, frame, quality
            ),
            name=f"deliver-{frame.kind}",
        )


def _reference_deliver(receiver: RadioInterface, frame: Frame, quality: LinkQuality) -> None:
    """One arrival event: deliver the frame, and count it if it was."""
    if frame.destination is None:
        delivered = _reference_broadcast_arrival(receiver, frame, quality)
    else:
        delivered = receiver.deliver(frame, quality)
    if delivered:
        monitor = receiver.environment.sim.monitor
        monitor.counter("radio.frames_delivered").add()
        monitor.counter("radio.bytes_delivered").add(frame.size_bytes)
        monitor.counter(f"radio.bytes.{frame.kind}").add(frame.size_bytes)


def _reference_broadcast_arrival(
    receiver: RadioInterface, frame: Frame, quality: LinkQuality
) -> bool:
    """A broadcast frame arrives inside its event (``sim.now`` is its
    arrival): it goes to the neighbour store one arrival at a time
    (:func:`reference_receive`) and to the broadcast handlers, sealed.
    Returns whether it was delivered: a disabled interface drops it."""
    environment = receiver.environment
    environment.commit()
    if not receiver.enabled:
        return False
    receiver._event_bytes += frame.size_bytes
    receiver._event_frames += 1
    store = environment.neighbor_store
    sim = environment.sim
    time, _, sequence = sim.last_key
    snr_db, rate_bps = quality.snr_db, quality.rate_bps
    token = sim.seal()
    try:
        if store is not None:
            reference_receive(store, receiver.slot, frame, time, sequence, snr_db, rate_bps)
        for handler in receiver._broadcast_handlers:
            handler(frame, time, sequence, snr_db, rate_bps)
    finally:
        sim.unseal(token)
    return True


def reference_receive(
    store: NeighborStore,
    slot: int,
    frame: Frame,
    time: float,
    sequence: int,
    snr_db: float,
    rate_bps: float,
) -> None:
    """One delivered broadcast frame into ``store``, as a beacon agent hears
    it: what :meth:`NeighborStore.commit_arrivals` does for a batch.

    A beacon counts as heard; a new sender is a join, which advances the
    slot's epoch and ``mesh.joins`` and calls the slot's neighbour-up
    callbacks.  Frames to slots without a table are ignored.
    """
    beacon = frame.payload
    table = store.tables[slot] if slot < len(store.tables) else None
    if table is None or frame.kind != "beacon" or not isinstance(beacon, Beacon):
        return
    store.heard[slot] += 1
    if table.observe(beacon, time, snr_db, rate_bps):
        store.epoch[slot] += 1
        if store.joins is not None:
            store.joins.add()
        for callback in store.watchers[slot]:
            callback(beacon.sender, beacon, time, sequence)


def use_reference_transmit(env: RadioEnvironment) -> None:
    """Route every transmission of ``env`` through :func:`reference_transmit`."""
    env.transmit = lambda sender, frame: reference_transmit(env, sender, frame)


def reference_topology(
    heard: Sequence[Tuple[str, Iterable[str]]], require_bidirectional: bool = True
) -> Dict[str, object]:
    """Snapshot statistics from ``(owner, active neighbour names)`` pairs.

    Builds the networkx graph the topology observer used to build — every
    owner a node, an edge per directed observation (confirmed in both
    directions unless ``require_bidirectional`` is off) — and reads the
    statistics off it with networkx's own algorithms.
    """
    graph = nx.Graph()
    directed = {}
    for owner, names in heard:
        graph.add_node(owner)
        for name in names:
            directed[(owner, name)] = True
    for a, b in directed:
        if not require_bidirectional or (b, a) in directed:
            graph.add_edge(a, b)
    nodes = graph.number_of_nodes()
    components = [frozenset(c) for c in nx.connected_components(graph)]
    return {
        "node_count": nodes,
        "edge_count": graph.number_of_edges(),
        "components": components,
        "largest_component_size": max(map(len, components), default=0),
        "mean_degree": 2.0 * graph.number_of_edges() / nodes if nodes else 0.0,
        "is_connected": nx.is_connected(graph) if nodes else False,
        "graph": graph,
    }


def reference_contact_time(
    position_a: Vec2,
    velocity_a: Vec2,
    position_b: Vec2,
    velocity_b: Vec2,
    comm_range: float,
) -> float:
    """Contact time from :class:`Vec2` arithmetic (``predict_contact_time``'s rule)."""
    p = position_b - position_a
    v = velocity_b - velocity_a
    if p.length() > comm_range:
        return 0.0
    v_sq = v.length_squared()
    if v_sq < 1e-12:
        return math.inf
    b = 2.0 * p.dot(v)
    c = p.length_squared() - comm_range * comm_range
    discriminant = b * b - 4.0 * v_sq * c
    if discriminant < 0:
        return math.inf
    root = (-b + math.sqrt(discriminant)) / (2.0 * v_sq)
    return max(0.0, root)


def reference_network_description(
    builder: NetworkDescriptionBuilder, now: float
) -> NetworkDescription:
    """The view :meth:`NetworkDescriptionBuilder.build` must return, built
    neighbour by neighbour from :class:`Vec2` objects."""
    mesh_node = builder.mesh_node
    own_position = mesh_node.position
    own_velocity = getattr(mesh_node.mobile, "velocity", Vec2.zero())
    comm_range = builder.environment.max_range
    neighbors = []
    for entry in mesh_node.neighbors.entries():
        beacon = entry.beacon
        predicted_position = beacon.predicted_position(now)
        neighbors.append(
            NeighborDescription(
                name=beacon.sender,
                position=predicted_position,
                velocity=beacon.velocity,
                distance_m=own_position.distance_to(predicted_position),
                link_rate_bps=entry.rate_bps,
                link_snr_db=entry.snr_db,
                compute_headroom_ops=beacon.compute_headroom_ops,
                queue_length=beacon.queue_length,
                data_summary=dict(beacon.data_summary),
                trust_score=beacon.trust_score,
                beacon_age_s=entry.age(now),
                predicted_contact_time_s=reference_contact_time(
                    own_position, own_velocity, predicted_position, beacon.velocity,
                    comm_range,
                ),
            )
        )
    neighbors.sort(key=lambda n: n.name)
    return NetworkDescription(
        owner=mesh_node.name,
        time=now,
        position=own_position,
        neighbors=neighbors,
        epoch=mesh_node.beacon_agent.epoch,
    )


def reference_histogram(
    values: Iterable[float],
) -> Tuple[Tuple[Tuple[float, int], ...], int]:
    """``(cumulative buckets, count)`` of raw observations on
    :data:`DEFAULT_BUCKETS`: NaN dropped, the rest sorted, and each bound's
    cumulative count read with one ``searchsorted``."""
    data = np.asarray(list(values), dtype=float)
    finite = np.sort(data[~np.isnan(data)])
    counts = np.searchsorted(finite, DEFAULT_BUCKETS, side="right")
    return tuple(zip(DEFAULT_BUCKETS, counts.tolist())), int(finite.size)


class _RecordingSeries(SampleSeries):
    """A sample series that also keeps every raw observation, in order."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.values: List[float] = []

    def add(self, value: float) -> None:
        super().add(value)
        self.values.append(float(value))

    def add_many(self, values: np.ndarray) -> None:
        super().add_many(values)
        self.values.extend(values.tolist())


def tap_link_delays(sim: Simulator) -> List[float]:
    """The list every later ``radio.link_delay`` observation of ``sim`` is
    appended to.  Call it before the radio environment is built: the
    environment resolves the series once, at construction."""
    series = _RecordingSeries("radio.link_delay")
    sim.monitor.samples[series.name] = series
    return series.values


def tap_frames(interface: RadioInterface, tap: BroadcastHandler) -> None:
    """Call ``tap(frame, time, sequence, snr_db, rate_bps)`` for every frame
    ``interface`` receives, the way :meth:`~repro.mesh.node.MeshNode.on_frame`
    taps a node: broadcasts when the interface commits them, unicasts inside
    their arrival events.  ``tap`` is held to the broadcast-handler contract
    (no scheduling, transmitting or random draws)."""
    interface.on_broadcast(tap)
    interface.on_unicast(_UnicastTap(interface.environment.sim, tap))


_ARRIVAL_KEY = itemgetter(0, 1)


def in_fire_order(records: Iterable[tuple]) -> List[tuple]:
    """``(time, sequence, ...)`` records sorted by arrival key: the order the
    event loop fired the arrivals in, whenever each receiver committed them."""
    return sorted(records, key=_ARRIVAL_KEY)
