"""Radio interfaces and the spatially-indexed shared radio environment.

A :class:`RadioInterface` is attached to each node (vehicle, roadside unit,
generic edge device).  All interfaces share a single :class:`RadioEnvironment`
which, on every transmission, evaluates the link budget to each *candidate*
receiver, applies random frame loss, models serialization/propagation delay
and a simple contention factor, and schedules the delivery callbacks on the
simulator.

Broadcast used to be the fleet-wide hot path: every beacon evaluated the link
budget against every attached interface — O(N²) work per beacon interval.
The environment now answers "who could hear this?" with a spatial range
query and only touches candidate receivers inside the link budget's
effective range.  The per-pair physics is batched as well: link qualities
are held in *per-sender rows* filled by one
:meth:`~repro.radio.link.LinkBudget.quality_batch` call per sender per
position epoch.  On top of the rows, each sender gets one broadcast *plan*
per position epoch — its usable receivers with their PER, contention-scaled
rate and propagation-delay columns — so a broadcast is a few whole-array
steps and :meth:`RadioEnvironment.nodes_in_range` is a lookup.  When a
:class:`~repro.mobility.manager.MobilityManager` is bound, the query runs
directly against the manager's shared
:class:`~repro.geometry.substrate.SpatialSubstrate` — the environment keeps
*no* mirror of mobile positions, so the manager's one position sync per tick
serves both layers (see :class:`RadioEnvironment` for the full freshness
contract).  Unbound environments fall back to mirroring interface positions
into a private grid resynced whenever the virtual clock advances, which
costs O(N) per distinct event time — bind the mobility manager for anything
beyond unit-test scale.  A position changed manually *between* events at the
same timestamp is invisible to any refresh scheme until the epoch advances;
call :meth:`RadioInterface.notify_moved` (or
:meth:`RadioEnvironment.notify_positions_changed`) after such writes to make
them visible immediately.  Substrate-tracked nodes are the mobility
manager's to move: write through the substrate (whose commit is its own
dirty-mark) instead.

Receivers are always iterated in name-sorted order, so the frame-loss RNG
draws — and therefore the delivered-frame sequence — do not depend on which
candidates the spatial query returns first.  The reference implementations
these paths are checked against (scalar per-pair link rows, the
full-scan candidate set, the per-receiver broadcast loop) live in the test
suite's oracle module, ``tests/oracle.py``.

Frames carry opaque payload objects plus a byte size; higher layers (the mesh
transport and the AirDnD offloading protocol) decide what goes inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.los import VisibilityMap
from repro.geometry.spatial_index import SpatialGrid
from repro.geometry.vector import Vec2
from repro.radio.link import LinkBudget, LinkQuality
from repro.simcore.monitor import Counter
from repro.simcore.simulator import Simulator

#: ``LinkBudget.effective_range`` walks outward in 5 m steps, so the true
#: usable boundary lies at most one step beyond the reported range.  The
#: spatial query radius adds this slack so range pruning can never drop a
#: receiver that the full link-budget evaluation would have reached.
_RANGE_STEP_SLACK_M = 5.0

_PER = attrgetter("packet_error_rate")
_RATE = attrgetter("rate_bps")
_DISTANCE = attrgetter("distance")


@dataclass(slots=True)
class Frame:
    """One over-the-air frame.

    Attributes
    ----------
    frame_id:
        Identifier issued by the sending simulation (:meth:`Simulator.new_id`).
    sender:
        Name of the sending node.
    destination:
        Name of the destination node, or ``None`` for broadcast.
    payload:
        Arbitrary message object.
    size_bytes:
        Serialized size used for transfer-time computation.
    kind:
        Free-form label ("beacon", "task", "result", ...) used by metrics.
    """

    sender: str
    destination: Optional[str]
    payload: Any
    size_bytes: int
    kind: str = "data"
    frame_id: int = field(kw_only=True)


class _FrameDelivery:
    """One scheduled frame arrival, as a compact preallocated callable.

    Replaces the per-delivery ``lambda`` closure (a function object plus
    three cell objects per scheduled frame) with a single ``__slots__``
    instance — the radio medium schedules one of these for every delivered
    frame, which makes it one of the hottest allocations in a broadcast-heavy
    run.
    """

    __slots__ = ("receiver", "frame", "quality")

    def __init__(
        self, receiver: "RadioInterface", frame: "Frame", quality: LinkQuality
    ) -> None:
        self.receiver = receiver
        self.frame = frame
        self.quality = quality

    def __call__(self) -> None:
        # Inlined :meth:`RadioInterface.deliver` (one call frame less per
        # delivered frame).  Keep in lockstep with ``deliver``.
        receiver = self.receiver
        if not receiver.enabled:
            return
        frame = self.frame
        receiver.bytes_received += frame.size_bytes
        receiver.frames_received += 1
        for callback in receiver._receive_callbacks:
            callback(frame, self.quality)


class _BatchFrameDelivery:
    """All of one broadcast's same-delay arrivals, coalesced into one event.

    The statistical tier schedules one of these per *distinct delay value*
    instead of one :class:`_FrameDelivery` per receiver.  Ordering is
    preserved observably: receivers sharing an identical delay would have
    been pushed consecutively — in name-sorted order, at the same
    ``(time, priority)`` — so they would fire back-to-back in exactly this
    order under the queue's ``(time, priority, sequence)`` contract anyway;
    delivering them name-sorted inside a single event is indistinguishable
    to observers.  Receivers with *different* delays still get their own
    events and interleave with the rest of the simulation by time as usual.

    Instead of copying per-group receiver/quality sublists on every
    broadcast, the event references the sender plan's full (per-epoch
    immutable) lists and carries only the member *indices* — ascending, so
    delivery stays name-sorted.  Events outliving their epoch keep the lists
    alive through these references; nothing mutates them after plan build.
    """

    __slots__ = ("receivers", "qualities", "indices", "frame")

    def __init__(
        self,
        receivers: List["RadioInterface"],
        qualities: "_QualityColumns",
        indices: List[int],
        frame: "Frame",
    ) -> None:
        self.receivers = receivers
        self.qualities = qualities
        self.indices = indices
        self.frame = frame

    def __call__(self) -> None:
        receivers = self.receivers
        qualities = self.qualities
        frame = self.frame
        size_bytes = frame.size_bytes
        for index in self.indices:
            # Inlined :meth:`RadioInterface.deliver`, with one refinement the
            # scalar path cannot afford: the LinkQuality is materialised from
            # the plan's columns only when a receive callback will actually
            # observe it.  Keep in lockstep with ``deliver`` above.
            receiver = receivers[index]
            if not receiver.enabled:
                continue
            receiver.bytes_received += size_bytes
            receiver.frames_received += 1
            callbacks = receiver._receive_callbacks
            if callbacks:
                quality = qualities[index]
                for callback in callbacks:
                    callback(frame, quality)


class _QualityColumns:
    """One sender plan's link qualities, stored column-major.

    Building a frozen :class:`~repro.radio.link.LinkQuality` costs about a
    microsecond of ``object.__setattr__`` calls — per usable receiver per
    plan, that used to dominate plan construction while most of the objects
    were never observed (a receiver with no receive callbacks never looks at
    its quality).  The columns are plain Python lists (``ndarray.tolist``,
    so consumers get genuine ``float`` values); ``__getitem__`` materialises
    a quality on demand.  All rows are usable by construction — the plan
    only keeps receivers that cleared the SNR threshold.
    """

    __slots__ = ("snrs", "rates", "pers", "distances")

    def __init__(
        self,
        snrs: List[float],
        rates: List[float],
        pers: List[float],
        distances: List[float],
    ) -> None:
        self.snrs = snrs
        self.rates = rates
        self.pers = pers
        self.distances = distances

    def __len__(self) -> int:
        return len(self.snrs)

    def __getitem__(self, index: int) -> LinkQuality:
        return LinkQuality(
            self.snrs[index],
            self.rates[index],
            self.pers[index],
            True,
            self.distances[index],
        )


class _SenderPlan:
    """One sender's broadcast state, valid for one position epoch.

    Both equivalence tiers broadcast from this one structure; they differ
    only in how it is built (:meth:`RadioEnvironment._build_plan` from the
    exact link rows, :meth:`RadioEnvironment._build_fast_plan` from the
    statistical kernel) and in how losses are drawn and arrivals scheduled.

    ``receivers``/``qualities`` are the *usable* receivers, name-sorted —
    their names are the answer to :meth:`RadioEnvironment.nodes_in_range`.
    ``pers``, ``scaled_rates`` (rate times the contention scale) and
    ``prop_delays`` are numpy columns over the same receivers.
    ``out_of_range`` folds the spatially pruned and the link-unusable
    candidates into one per-broadcast counter increment.  Delays depend on
    the frame size, so both tiers compute them per broadcast.  Nothing
    mutates a plan's lists after it is built, so scheduled deliveries may
    reference them.
    ``RadioEnvironment._refresh`` discards plans with the other per-epoch
    caches.
    """

    __slots__ = (
        "receivers",
        "qualities",
        "pers",
        "scaled_rates",
        "prop_delays",
        "out_of_range",
    )

    def __init__(
        self,
        receivers: List["RadioInterface"],
        qualities: "Sequence[LinkQuality]",
        pers: np.ndarray,
        rates: np.ndarray,
        distances: np.ndarray,
        out_of_range: int,
        contention_factor: float,
    ) -> None:
        # Every usable receiver is a concurrent neighbour of the sender, so
        # the contention scale is a function of the receiver count alone.
        concurrent = max(0, len(receivers) - 1)
        self.receivers = receivers
        self.qualities = qualities
        self.pers = pers
        self.scaled_rates = rates * (1.0 / (1.0 + contention_factor * concurrent))
        self.prop_delays = distances / 3e8
        self.out_of_range = out_of_range


class _FastUniverse:
    """Per-epoch position snapshot of every attached interface, name-sorted.

    The statistical tier gathers each interface's live position exactly once
    per epoch into parallel coordinate arrays; every sender plan then finds
    its broadcast candidates with one vectorised distance mask against the
    environment's query radius — the same exact ``<= radius`` criterion the
    spatial grid applies, without per-sender grid walks or per-candidate
    position-provider calls.  ``RadioEnvironment._refresh`` discards it with
    the other per-epoch caches.
    """

    __slots__ = ("interfaces", "positions", "xs", "ys", "index_of")


class RadioInterface:
    """A node's attachment point to the shared radio environment."""

    def __init__(
        self,
        environment: "RadioEnvironment",
        node_name: str,
        position_provider: Callable[[], Vec2],
    ) -> None:
        self.environment = environment
        self.node_name = node_name
        self.position_provider = position_provider
        self._receive_callbacks: List[Callable[[Frame, LinkQuality], None]] = []
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.enabled = True

    @property
    def position(self) -> Vec2:
        """Current position of the owning node."""
        return self.position_provider()

    def notify_moved(self) -> None:
        """Dirty-mark after an out-of-band (manual) position change.

        The environment never polls positions; it refreshes derived state
        when its position epoch advances.  Mobility-driven movement bumps the
        epoch automatically, but a position written by hand — a test mutating
        the state behind ``position_provider``, a node teleported by scenario
        logic — is invisible until the *next* epoch bump (for an unbound
        environment: the next distinct event time).  Calling this makes a
        same-timestamp move visible to the very next transmission or range
        query for any interface whose position the environment itself tracks:
        the unbound mirror and the substrate overlay.  A node registered
        with a *bound mobility manager* lives in the shared substrate, which
        this environment only reads — move it through the substrate
        (``substrate.update(name, pos)`` + ``commit()``, as
        :class:`~repro.mobility.manager.MobilityManager` does each tick);
        that commit is its own dirty-mark.
        """
        self.environment.notify_positions_changed()

    def on_receive(self, callback: Callable[[Frame, LinkQuality], None]) -> None:
        """Register a callback invoked for every delivered frame."""
        self._receive_callbacks.append(callback)

    def send(
        self,
        payload: Any,
        size_bytes: int,
        destination: Optional[str] = None,
        kind: str = "data",
    ) -> Frame:
        """Transmit a frame (broadcast when ``destination`` is ``None``)."""
        frame = Frame(
            sender=self.node_name,
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            kind=kind,
            frame_id=self.environment.sim.new_id("frame"),
        )
        if self.enabled:
            self.bytes_sent += size_bytes
            self.frames_sent += 1
            self.environment.transmit(self, frame)
        return frame

    def deliver(self, frame: Frame, quality: LinkQuality) -> None:
        """Called by the environment when a frame arrives at this interface."""
        if not self.enabled:
            return
        self.bytes_received += frame.size_bytes
        self.frames_received += 1
        for callback in self._receive_callbacks:
            callback(frame, quality)


class RadioEnvironment:
    """The shared medium connecting every :class:`RadioInterface`.

    Position freshness contract
    ---------------------------

    The environment never polls positions; it trusts an epoch counter and
    lazily refreshes derived state (spatial candidate lookup, the per-epoch
    link rows and sender plans) when that counter advances.  Two regimes,
    the fast one first:

    * **Substrate-bound** (a :class:`~repro.mobility.manager.MobilityManager`
      passed as ``mobility=`` or via :meth:`bind_mobility`): candidate
      queries go straight to the manager's shared
      :class:`~repro.geometry.substrate.SpatialSubstrate`, read-only.  The
      substrate's ``position_epoch`` — bumped once per mobility tick and on
      membership changes — is the single invalidation source; a refresh is a
      cache flush plus an overlay touch-up for the (usually zero) interfaces
      the substrate does not track (e.g. a roadside unit attached to the
      radio but never registered as a mobile node).  There is no second grid
      sync: positions are written exactly once per tick, by the manager.
    * **Unbound**: the environment keeps its own mirror grid and resyncs it
      whenever the virtual clock advances — O(N) per distinct event time.
      Manual position writes at the *current* timestamp still need an
      explicit dirty-mark (:meth:`RadioInterface.notify_moved` /
      :meth:`notify_positions_changed`) to be seen before the clock next
      moves.

    Cached derived state is valid until the epoch it was built for moves
    on; callers must not mutate returned lists or hold them across epochs.

    Parameters
    ----------
    sim:
        Simulator used for the virtual clock and delivery scheduling.
    link_budget:
        Physical-layer model mapping positions to rate/PER.
    visibility:
        Obstacle map for NLOS penalties (may be ``None`` for open terrain).
    contention_factor:
        Crude MAC-layer model: each concurrent neighbour within range scales
        the effective rate by ``1 / (1 + contention_factor · neighbours)``.
    rng_stream:
        Name of the random stream used for frame-loss draws.
    mobility:
        Optional :class:`~repro.mobility.manager.MobilityManager`.  When
        given, its substrate's ``position_epoch`` drives the invalidation
        scheme (see :meth:`bind_mobility`); without it the environment
        resyncs whenever the clock advances.

    The equivalence tier follows the link budget: a ``fast_math`` budget
    selects the *statistical* tier — sender plans from the fused numpy link
    kernel, extra-loss draws vectorised after the PER draws instead of
    interleaved with them, same-delay arrivals coalesced into single batch
    events — with distribution-level metric agreement with the exact tier
    (benchmark E15), not byte-identical frame sequences.

    Broadcasts only evaluate receivers returned by a spatial range query
    around the sender.  :attr:`use_spatial_index` turns ``False`` — every
    attached interface becomes a candidate — only when the link budget is
    still usable past :meth:`~repro.radio.link.LinkBudget.effective_range`'s
    scan cap, where range pruning would drop reachable receivers.
    """

    def __init__(
        self,
        sim: Simulator,
        link_budget: Optional[LinkBudget] = None,
        visibility: Optional[VisibilityMap] = None,
        contention_factor: float = 0.05,
        rng_stream: str = "radio",
        mobility: Optional[Any] = None,
    ) -> None:
        self.sim = sim
        self.link_budget = link_budget or LinkBudget()
        self.fast_math = self.link_budget.fast_math
        self.visibility = visibility
        self.contention_factor = contention_factor
        self.rng_stream = rng_stream
        #: Probability that an otherwise-delivered frame is dropped on top of
        #: the per-link PER — the fault injector's message-loss bursts.  The
        #: extra RNG draw happens *only* while this is nonzero, so an idle
        #: (or absent) injector leaves the radio stream's draw sequence — and
        #: therefore the delivered-frame sequence — byte-identical (E14).
        self.extra_loss_probability = 0.0
        self._interfaces: Dict[str, RadioInterface] = {}
        self.max_range = self.link_budget.effective_range(None)
        self._query_radius = self.max_range + _RANGE_STEP_SLACK_M
        # A link still usable just beyond the reported effective range means
        # ``effective_range`` hit its scan cap rather than the real SNR
        # boundary.  Range pruning would silently drop reachable receivers,
        # so such environments scan every attached interface instead.
        self.use_spatial_index = not self.link_budget.quality(
            Vec2(0.0, 0.0), Vec2(self._query_radius, 0.0), None
        ).usable
        #: Private mirror grid.  Substrate-bound environments use it only as
        #: an *overlay* for interfaces the substrate does not track; unbound
        #: environments mirror every interface into it.
        self._grid: SpatialGrid = SpatialGrid(cell_size=max(self._query_radius, 1.0))
        self._position_epoch = 0
        self._synced_epoch = -1
        self._synced_time: Optional[float] = None
        self._mobility: Optional[Any] = None
        self._substrate: Optional[Any] = None
        self._overlay_names: List[str] = []
        self._overlay_key: Optional[Tuple[int, int]] = None
        #: Full mirror resync passes performed (stays 0 when substrate-bound;
        #: asserted by benchmark E11).
        self.mirror_sync_passes = 0
        #: Per-sender link rows, valid for one position epoch: sender name →
        #: {receiver name → LinkQuality}.  Rows are filled in bulk (one
        #: ``quality_batch`` call for all receivers a sender needs this
        #: epoch) instead of one cache entry per ``(src, dst)`` probe.
        self._quality_rows: Dict[str, Dict[str, LinkQuality]] = {}
        #: Broadcast plans (both tiers), memoised per sender per epoch.
        self._plans: Dict[str, _SenderPlan] = {}
        self._fast_universe: Optional[_FastUniverse] = None
        # Hot-path counters, resolved once instead of per frame.
        monitor = sim.monitor
        self._frames_out_of_range = monitor.counter("radio.frames_out_of_range")
        self._frames_lost = monitor.counter("radio.frames_lost")
        self._frames_delivered = monitor.counter("radio.frames_delivered")
        self._bytes_delivered = monitor.counter("radio.bytes_delivered")
        self._link_delay = monitor.sample("radio.link_delay")
        self._kind_bytes: Dict[str, Counter] = {}
        self._deliver_names: Dict[str, str] = {}
        if mobility is not None:
            self.bind_mobility(mobility)

    # ------------------------------------------------------------- snapshot

    def __getstate__(self) -> dict:
        """Pickle without per-epoch caches; force a refresh on first use.

        Link rows and sender plans are pure functions of positions and the
        link budget — rebuilding them after restore is cheap and keeps the
        snapshot free of numpy scratch arrays and hash-ordered
        intermediates.  The sync sentinels are reset so the first
        :meth:`_refresh` after restore rebuilds everything (including the
        mirror grid for unbound environments).
        """
        state = self.__dict__.copy()
        state["_quality_rows"] = {}
        state["_plans"] = {}
        state["_fast_universe"] = None
        state["_synced_epoch"] = -1
        state["_synced_time"] = None
        state["_overlay_key"] = None
        return state

    def capture_state(self) -> dict:
        """The radio layer's durable state as plain data.

        Everything here survives a snapshot/restore cycle verbatim; the
        per-epoch caches intentionally do not (see :meth:`__getstate__`) and
        therefore never appear in a capture.  Pending frame deliveries live
        in the simulator's event queue and travel with the object graph.
        """
        return {
            "noise_penalty_db": getattr(self.link_budget, "noise_penalty_db", 0.0),
            "extra_loss_probability": self.extra_loss_probability,
            "position_epoch": self._position_epoch,
            "fast_math": self.fast_math,
            "interfaces": {
                name: {
                    "bytes_sent": interface.bytes_sent,
                    "bytes_received": interface.bytes_received,
                    "frames_sent": interface.frames_sent,
                    "frames_received": interface.frames_received,
                    "enabled": interface.enabled,
                }
                for name, interface in sorted(self._interfaces.items())
            },
        }

    # ----------------------------------------------------------- attachment

    def attach(
        self, node_name: str, position_provider: Callable[[], Vec2]
    ) -> RadioInterface:
        """Create and register an interface for ``node_name``."""
        if node_name in self._interfaces:
            raise ValueError(f"node {node_name!r} already has a radio interface")
        interface = RadioInterface(self, node_name, position_provider)
        self._interfaces[node_name] = interface
        self.notify_positions_changed()
        return interface

    def detach(self, node_name: str) -> None:
        """Remove a node's interface (e.g. the node left the area)."""
        if self._interfaces.pop(node_name, None) is not None:
            self._grid.remove(node_name)
            self.notify_positions_changed()

    def interface_of(self, node_name: str) -> RadioInterface:
        """Look up the interface attached to ``node_name``."""
        return self._interfaces[node_name]

    @property
    def node_names(self) -> List[str]:
        """All attached node names."""
        return list(self._interfaces)

    # ---------------------------------------------------------- invalidation

    def bind_mobility(self, mobility: Any) -> None:
        """Drive cache invalidation from a mobility manager's substrate.

        ``mobility`` is a :class:`~repro.mobility.manager.MobilityManager`.
        Once bound, the environment drops its own mirror and queries the
        manager's :class:`~repro.geometry.substrate.SpatialSubstrate`
        read-only, trusting that positions only change when the substrate's
        ``position_epoch`` advances (once per tick and on membership
        changes).  One position sync per tick then serves both the mobility
        and radio layers (see the class docstring's freshness contract).
        """
        self._mobility = mobility
        self._substrate = mobility.substrate
        self._synced_epoch = -1
        self._overlay_key = None

    def notify_positions_changed(self) -> None:
        """Advance the position epoch (positions may have moved)."""
        self._position_epoch += 1

    def _obstacle_epoch(self) -> int:
        """The visibility map's occluder epoch (0 for open terrain)."""
        visibility = self.visibility
        return 0 if visibility is None else visibility.obstacle_epoch

    def spatial_stats(self) -> Dict[str, float]:
        """Counters describing how candidate lookup is being served.

        ``substrate_shared`` is 1.0 when broadcasts query the mobility
        manager's grid directly; ``mirror_updates`` counts writes into the
        environment's private grid (overlay-only when substrate-shared);
        ``mirror_sync_passes`` counts full mirror resyncs (0 when shared).
        """
        stats = {
            "substrate_shared": 1.0 if self._substrate is not None else 0.0,
            "overlay_nodes": float(len(self._overlay_names)),
            "mirror_updates": float(self._grid.update_calls),
            "mirror_sync_passes": float(self.mirror_sync_passes),
            "obstacle_epoch": float(self._obstacle_epoch()),
            "obstacle_index_rebuilds": float(
                getattr(self.visibility, "index_rebuilds", 0)
            ),
        }
        return stats

    def _refresh(self) -> None:
        """Flush per-epoch caches (and any mirror/overlay state) when stale.

        The obstacle epoch is folded into the environment's own epoch: link
        rows embed NLOS penalties, so a mutated occluder set (moving
        buses/trucks via
        :meth:`~repro.geometry.los.VisibilityMap.set_obstacles`) must flush
        them even though no node moved.  Both counters are monotonic, so
        their sum is a valid single invalidation key.
        """
        own = self._position_epoch + self._obstacle_epoch()
        substrate = self._substrate
        if substrate is not None:
            epoch = own + substrate.position_epoch
            if epoch == self._synced_epoch:
                return
            self._sync_overlay()
            self._quality_rows.clear()
            self._plans.clear()
            self._fast_universe = None
            self._synced_epoch = epoch
            return
        if self._synced_epoch == own and self._synced_time == self.sim.now:
            return
        grid = self._grid
        for name, interface in self._interfaces.items():
            grid.update(name, interface.position)
        self.mirror_sync_passes += 1
        self._quality_rows.clear()
        self._plans.clear()
        self._fast_universe = None
        self._synced_epoch = own
        self._synced_time = self.sim.now

    def _sync_overlay(self) -> None:
        """Keep the overlay grid tracking interfaces outside the substrate.

        Mobile interfaces live in the shared substrate and are never written
        here; the overlay holds only radio-attached nodes the mobility
        manager does not manage (roadside units, hand-moved test nodes).
        Its membership is recomputed only when the attachment set or the
        substrate's membership changed; its (typically zero or few)
        positions are re-read on every refresh.
        """
        substrate = self._substrate
        grid = self._grid
        key = (self._position_epoch, substrate.membership_epoch)
        if key != self._overlay_key:
            self._overlay_key = key
            overlay = [name for name in self._interfaces if name not in substrate]
            self._overlay_names = overlay
            wanted = set(overlay)
            stale = [name for name, _ in grid.items() if name not in wanted]
            for name in stale:
                grid.remove(name)
        for name in self._overlay_names:
            grid.update(name, self._interfaces[name].position)

    # ------------------------------------------------------------- queries

    def link_quality(self, src: str, dst: str) -> LinkQuality:
        """Current link quality between two attached nodes."""
        self._refresh()
        return self._ensure_row(src, (dst,))[dst]

    def _ensure_row(
        self, src: str, wanted: "Sequence[str]"
    ) -> Dict[str, LinkQuality]:
        """The sender's link row, guaranteed to cover ``wanted`` receivers.

        Rows live for one position epoch (:meth:`_refresh` flushes them).
        Missing entries are computed in one
        :meth:`~repro.radio.link.LinkBudget.quality_batch` call, bit-identical
        to scalar :meth:`~repro.radio.link.LinkBudget.quality` per pair.
        Names without an attached interface are skipped (callers guard their
        lookups the same way).
        """
        row = self._quality_rows.get(src)
        if row is None:
            row = {}
            self._quality_rows[src] = row
        interfaces = self._interfaces
        missing = [
            name for name in wanted if name not in row and name in interfaces
        ]
        if missing:
            qualities = self.link_budget.quality_batch(
                interfaces[src].position,
                [interfaces[name].position for name in missing],
                self.visibility,
            )
            row.update(zip(missing, qualities))
        return row

    def _candidate_names(self, center: Vec2) -> List[str]:
        """Attached interface names within the spatial query radius.

        Callers must have called :meth:`_refresh` first.  Substrate-bound
        environments query the shared grid (dropping substrate entries with
        no radio interface, e.g. tracked pedestrians) plus the overlay;
        otherwise the private mirror is authoritative.
        """
        substrate = self._substrate
        if substrate is None:
            return self._grid.query_range(center, self._query_radius)
        names = [
            name
            for name in substrate.query_range(center, self._query_radius)
            if name in self._interfaces
        ]
        if self._overlay_names:
            names.extend(self._grid.query_range(center, self._query_radius))
        return names

    def nodes_in_range(self, node_name: str) -> List[str]:
        """Other nodes whose link from ``node_name`` is currently usable.

        The usable receivers of the node's sender plan, name-sorted; the
        plan is memoised per position epoch.  On the statistical tier the
        plan comes from the fused kernel, not the link rows, so for a link
        right at the SNR threshold this may disagree with
        :meth:`link_quality` — within that tier's aggregate contract.
        """
        self._refresh()
        plan = self._sender_plan(self._interfaces[node_name])
        return [receiver.node_name for receiver in plan.receivers]

    # ------------------------------------------------------------ sender plans

    def _sender_plan(self, sender: RadioInterface) -> _SenderPlan:
        """The sender's plan for this position epoch, built on first use.

        Callers must have called :meth:`_refresh` first.
        """
        plan = self._plans.get(sender.node_name)
        if plan is None:
            if self.fast_math:
                plan = self._build_fast_plan(sender.node_name, sender.position)
            else:
                plan = self._build_plan(sender.node_name, sender.position)
            self._plans[sender.node_name] = plan
        return plan

    def _build_plan(self, sender_name: str, position: Vec2) -> _SenderPlan:
        """Exact-tier plan: the sender's link row, filtered to usable links.

        Candidates are the attached interfaces within the spatial query
        radius (every other interface when range pruning is off, see
        :attr:`use_spatial_index`), and their qualities come from
        :meth:`_ensure_row`.  The spatially pruned
        interfaces are counted into ``out_of_range`` wholesale — the link
        budget is monotone in distance, so none of them could have been
        usable.
        """
        interfaces = self._interfaces
        if self.use_spatial_index:
            candidates = sorted(
                name
                for name in self._candidate_names(position)
                if name != sender_name
            )
            others = len(interfaces) - (1 if sender_name in interfaces else 0)
            pruned = others - len(candidates)
        else:
            candidates = sorted(name for name in interfaces if name != sender_name)
            pruned = 0
        row = self._ensure_row(sender_name, candidates)
        names = [name for name in candidates if row[name].usable]
        qualities = [row[name] for name in names]
        count = len(names)
        return _SenderPlan(
            [interfaces[name] for name in names],
            qualities,
            np.fromiter(map(_PER, qualities), np.float64, count),
            np.fromiter(map(_RATE, qualities), np.float64, count),
            np.fromiter(map(_DISTANCE, qualities), np.float64, count),
            pruned + len(candidates) - count,
            self.contention_factor,
        )

    def _ensure_fast_universe(self) -> "_FastUniverse":
        """The per-epoch position snapshot, built on first fast broadcast.

        One position-provider call per attached interface per epoch; every
        sender plan of the epoch reuses the arrays.  Name-sorted so the
        candidate order derived from it matches the exact tier's sorted
        receiver lists.
        """
        universe = self._fast_universe
        if universe is None:
            universe = _FastUniverse()
            interfaces = [
                self._interfaces[name] for name in sorted(self._interfaces)
            ]
            positions = [interface.position for interface in interfaces]
            count = len(positions)
            universe.interfaces = interfaces
            universe.positions = positions
            universe.xs = np.fromiter(
                (position.x for position in positions), np.float64, count
            )
            universe.ys = np.fromiter(
                (position.y for position in positions), np.float64, count
            )
            universe.index_of = {
                interface.node_name: index
                for index, interface in enumerate(interfaces)
            }
            self._fast_universe = universe
        return universe

    def _build_fast_plan(self, sender_name: str, position: Vec2) -> _SenderPlan:
        """Statistical-tier plan: one vectorised pass over the epoch universe.

        Candidates come from one distance mask over the epoch's
        :class:`_FastUniverse` (the same exact ``<= query radius`` test the
        spatial grid applies, minus the grid walk — live positions instead
        of the substrate's committed ones, which the statistical tier's
        aggregate contract permits); one
        :meth:`~repro.radio.link.LinkBudget.quality_arrays_xy` call fills
        the columns in array form, and the qualities stay column-major
        (:class:`_QualityColumns`) until a receive callback observes one.
        """
        universe = self._ensure_fast_universe()
        sender_index = universe.index_of.get(sender_name)
        dx = universe.xs - position.x
        dy = universe.ys - position.y
        squared = dx * dx + dy * dy
        if self.use_spatial_index:
            # Same exact criterion as the spatial grid's range query, on
            # squared distances so the sqrt only runs over the survivors.
            in_range = squared <= self._query_radius * self._query_radius
        else:
            in_range = np.ones(len(universe.interfaces), dtype=bool)
        if sender_index is not None:
            in_range[sender_index] = False
        candidate_indices = np.flatnonzero(in_range)
        others = len(universe.interfaces) - (1 if sender_index is not None else 0)
        pruned = others - int(candidate_indices.size)
        candidate_positions = None
        if self.visibility is not None:
            positions = universe.positions
            candidate_positions = [
                positions[index] for index in candidate_indices.tolist()
            ]
        snrs, rates, pers, usable, distances = self.link_budget.quality_arrays_xy(
            position,
            universe.xs[candidate_indices],
            universe.ys[candidate_indices],
            self.visibility,
            rxs=candidate_positions,
            distances=np.sqrt(squared[candidate_indices]),
        )
        usable_indices = np.flatnonzero(usable)
        unusable = int(candidate_indices.size) - int(usable_indices.size)
        all_interfaces = universe.interfaces
        receivers = [
            all_interfaces[index]
            for index in candidate_indices[usable_indices].tolist()
        ]
        usable_distances = distances[usable_indices]
        qualities = _QualityColumns(
            snrs[usable_indices].tolist(),
            rates[usable_indices].tolist(),
            pers[usable_indices].tolist(),
            usable_distances.tolist(),
        )
        return _SenderPlan(
            receivers,
            qualities,
            pers[usable_indices],
            rates[usable_indices],
            usable_distances,
            pruned + unusable,
            self.contention_factor,
        )

    # --------------------------------------------------------- transmission

    def _kind_counter(self, kind: str) -> Counter:
        counter = self._kind_bytes.get(kind)
        if counter is None:
            counter = self.sim.monitor.counter(f"radio.bytes.{kind}")
            self._kind_bytes[kind] = counter
        return counter

    def _deliver_name(self, kind: str) -> str:
        name = self._deliver_names.get(kind)
        if name is None:
            name = f"deliver-{kind}"
            self._deliver_names[kind] = name
        return name

    def transmit(self, sender: RadioInterface, frame: Frame) -> None:
        """Deliver ``frame`` to its destination(s) with latency and loss."""
        self._refresh()
        if frame.destination is None:
            self._broadcast(sender, frame)
        else:
            self._unicast(sender, frame)

    def _unicast(self, sender: RadioInterface, frame: Frame) -> None:
        """One receiver, evaluated scalar on both tiers.

        The contention scale counts the sender's usable neighbours (its
        plan), exactly as a broadcast from the sender would.
        """
        receiver = self._interfaces.get(frame.destination)
        if receiver is None or receiver is sender:
            return
        quality = self._ensure_row(sender.node_name, (receiver.node_name,))[
            receiver.node_name
        ]
        if not quality.usable:
            self._frames_out_of_range.add()
            return
        rng = self.sim.streams.get(self.rng_stream)
        extra = self.extra_loss_probability
        if rng.random() < quality.packet_error_rate or (
            extra > 0.0 and rng.random() < extra
        ):
            self._frames_lost.add()
            return
        concurrent = max(0, len(self._sender_plan(sender).receivers) - 1)
        rate = quality.rate_bps * (1.0 / (1.0 + self.contention_factor * concurrent))
        # The broadcast's rule, scalar: a usable link has a positive rate.
        delay = frame.size_bytes * 8 / rate + quality.distance / 3e8
        self._frames_delivered.add()
        self._bytes_delivered.add(frame.size_bytes)
        self._kind_counter(frame.kind).add(frame.size_bytes)
        self._link_delay.add(delay)
        self.sim._queue.push(
            self.sim.now + delay,
            _FrameDelivery(receiver, frame, quality),
            0,
            self._deliver_name(frame.kind),
        )

    def _broadcast(self, sender: RadioInterface, frame: Frame) -> None:
        """One broadcast as a few whole-array steps over the sender plan.

        Counters are bumped once per broadcast with integer totals (the
        float sums are exact), and the PER losses are one ``rng.random(k)``
        draw over the usable receivers in name order — numpy's ``Generator``
        yields the same doubles, and leaves the stream at the same point, as
        ``k`` scalar ``random()`` calls.  While the fault injector holds
        ``extra_loss_probability`` nonzero, the exact tier keeps the scalar
        interleaving instead: a PER draw per receiver, then an extra draw for
        that receiver only if it survived.  The statistical tier draws the
        extra losses as a second vector over the PER survivors.
        Arrivals go straight into the event queue at ``now + delay``, in
        receiver order, so each keeps the sequence number a per-receiver
        push would have given it.
        """
        plan = self._sender_plan(sender)
        if plan.out_of_range:
            self._frames_out_of_range.add(plan.out_of_range)
        count = len(plan.receivers)
        if count == 0:
            return
        rng = self.sim.streams.get(self.rng_stream)
        extra = self.extra_loss_probability
        fast = self.fast_math
        if extra > 0.0 and not fast:
            random = rng.random
            kept = np.fromiter(
                (
                    random() >= per and random() >= extra
                    for per in plan.pers.tolist()
                ),
                bool,
                count,
            )
        else:
            kept = rng.random(count) >= plan.pers
            if extra > 0.0:
                survivors = np.flatnonzero(kept)
                if survivors.size:
                    kept[survivors[rng.random(survivors.size) < extra]] = False
        delivered = int(np.count_nonzero(kept))
        lost = count - delivered
        if lost:
            self._frames_lost.add(lost)
        if not delivered:
            return
        self._frames_delivered.add(delivered)
        total_bytes = frame.size_bytes * delivered
        self._bytes_delivered.add(total_bytes)
        self._kind_counter(frame.kind).add(total_bytes)
        size_bits = frame.size_bytes * 8
        deliver_name = self._deliver_name(frame.kind)
        if fast:
            times, callbacks = self._coalesced_arrivals(plan, kept, size_bits, frame)
        else:
            delays = size_bits / plan.scaled_rates + plan.prop_delays
            receivers = plan.receivers
            qualities = plan.qualities
            if lost:
                delays = delays[kept]
                mask = kept.tolist()
                receivers = compress(receivers, mask)
                qualities = compress(qualities, mask)
            self._link_delay.add_many(delays)
            times = (delays + self.sim.now).tolist()
            callbacks = map(_FrameDelivery, receivers, repeat(frame), qualities)
        # Absolute times straight into the queue (the delays are positive by
        # construction), which numbers the entries in this order.
        self.sim._queue.push_batch(
            zip(times, callbacks, repeat(0), repeat(deliver_name))
        )

    def _coalesced_arrivals(
        self, plan: _SenderPlan, kept: np.ndarray, size_bits: int, frame: Frame
    ) -> Tuple[List[float], List[Callable[[], Any]]]:
        """Statistical-tier arrival times and callbacks, one per delay group.

        The delivered receivers sharing an identical delay are coalesced into
        one :class:`_BatchFrameDelivery` (a lone receiver gets a
        :class:`_FrameDelivery`), so a broadcast costs one heap entry per
        delay group instead of one per receiver.
        """
        # Bucket receivers by identical delay in C: `np.unique` sorts the
        # delays, the stable argsort of the inverse mapping lays the member
        # indices out group by group (ascending within each group, preserving
        # name order).  Group order is delay-ascending rather than
        # first-occurrence — observationally equivalent, since distinct
        # delays fire at distinct times regardless of push order.
        indices = np.flatnonzero(kept)
        delays = size_bits / plan.scaled_rates[indices] + plan.prop_delays[indices]
        unique_delays, inverse, counts = np.unique(
            delays, return_inverse=True, return_counts=True
        )
        members = indices[np.argsort(inverse, kind="stable")].tolist()
        self._link_delay.add_many(delays)
        now = self.sim.now
        receivers = plan.receivers
        qualities = plan.qualities
        times: List[float] = []
        callbacks: List[Callable[[], Any]] = []
        start = 0
        for delay, size in zip(unique_delays.tolist(), counts.tolist()):
            if size == 1:
                index = members[start]
                callback: Callable[[], Any] = _FrameDelivery(
                    receivers[index], frame, qualities[index]
                )
            else:
                callback = _BatchFrameDelivery(
                    receivers, qualities, members[start : start + size], frame
                )
            start += size
            times.append(now + delay)
            callbacks.append(callback)
        return times, callbacks
