"""Radio interfaces and the range-pruned shared radio environment.

A :class:`RadioInterface` is attached to each node (vehicle, roadside unit,
generic edge device).  All interfaces share a single :class:`RadioEnvironment`
which, on every transmission, evaluates the link budget to each *candidate*
receiver, applies random frame loss, models serialization/propagation delay
and a simple contention factor, and schedules the delivery callbacks on the
simulator.

Broadcast used to be the fleet-wide hot path: every beacon evaluated the link
budget against every attached interface — O(N²) work per beacon interval.
The environment now reads every interface's position once per position
epoch into one name-sorted *universe* of coordinate columns, and each sender
gets one broadcast *plan* per epoch: its candidates from one squared-distance
mask against the universe (the link budget's effective range plus a slack),
their link qualities from one column-kernel call, and the usable receivers
kept with their PER, contention-scaled rate and propagation-delay columns —
so a broadcast is a few whole-array steps and
:meth:`RadioEnvironment.nodes_in_range` is a lookup.  Both equivalence tiers
build their plans this way; they differ only in the kernel
(:meth:`~repro.radio.link.LinkBudget.exact_arrays_xy` or the statistical
:meth:`~repro.radio.link.LinkBudget.quality_arrays_xy`).  Unicast and
:meth:`RadioEnvironment.link_quality` read *per-sender link rows*, filled
pair by pair through :meth:`~repro.radio.link.LinkBudget.quality_batch` (the
same kernel).  When a :class:`~repro.mobility.manager.MobilityManager` is
bound, the position epoch of the manager's shared
:class:`~repro.geometry.substrate.SpatialSubstrate` drives the caches (see
:class:`RadioEnvironment` for the full freshness contract); unbound
environments flush them whenever the virtual clock advances.  Either way each
position provider runs once per epoch.  A position changed manually
*between* events at the same timestamp is invisible until the epoch
advances; call :meth:`RadioInterface.notify_moved` (or
:meth:`RadioEnvironment.notify_positions_changed`) after such writes to make
them visible immediately.  Substrate-tracked nodes are the mobility
manager's to move: its per-tick substrate commit is their dirty-mark.

Arrivals
--------

A unicast frame arrives as one :class:`_FrameDelivery` event.  A broadcast,
on either tier, makes no events: it reserves the k sequence numbers k
pushes would have taken, hands the simulator one block of arrival keys
``(time, 0, sequence)`` to count
(:meth:`~repro.simcore.simulator.Simulator.defer_arrivals`), and appends
one pending entry — the frame and, sorted by key, its arrivals' times,
sequence numbers, receiver slots, SNRs and rates as arrays — to the
environment.  One
environment-wide :meth:`RadioEnvironment.commit` applies every arrival
keyed at or below the simulator's ``last_key``, for all receivers at once:
it drops arrivals at disabled interfaces, counts the rest into the
receivers' and the ``radio.*`` delivered counters, hands them to the
neighbour store (:mod:`repro.mesh.neighbor`) in one batch, and calls the
:meth:`RadioInterface.on_broadcast` handlers of the receivers that have
them, in key order, with the arrival time.  Handlers and the store run
with the simulator sealed (no scheduling, transmitting or random draws).
Readers of what they write commit first, changing an interface's
``enabled`` commits first, and the environment commits at the end of each
simulator step.

Receivers are always iterated in name-sorted order, so the frame-loss RNG
draws — and therefore the delivered-frame sequence — do not depend on how
candidates were found.  The reference implementations these paths are
checked against (plans from scalar range-scan candidates and scalar
per-pair link rows, the full-scan candidate set, the per-receiver broadcast
loop) live in the test suite's oracle module, ``tests/oracle.py``.

Frames carry opaque payload objects plus a byte size; higher layers (the mesh
transport and the AirDnD offloading protocol) decide what goes inside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.los import VisibilityMap
from repro.geometry.vector import Vec2
from repro.radio.link import LinkBudget, LinkQuality
from repro.simcore.monitor import Counter
from repro.simcore.simulator import Simulator

#: ``LinkBudget.effective_range`` walks outward in 5 m steps, so the true
#: usable boundary lies at most one step beyond the reported range.  The
#: candidate query radius adds this slack so range pruning can never drop a
#: receiver that the full link-budget evaluation would have reached.
_RANGE_STEP_SLACK_M = 5.0

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


#: ``handler(frame, time, sequence, snr_db, rate_bps)``, see
#: :meth:`RadioInterface.on_broadcast`.
BroadcastHandler = Callable[[Frame, float, int, float, float], None]


class _FrameDelivery:
    """One scheduled unicast arrival, as a compact preallocated callable.

    Replaces the per-delivery ``lambda`` closure (a function object plus
    three cell objects per scheduled frame) with a single ``__slots__``
    instance.
    """

    __slots__ = ("receiver", "frame", "quality")

    def __init__(
        self, receiver: "RadioInterface", frame: "Frame", quality: LinkQuality
    ) -> None:
        self.receiver = receiver
        self.frame = frame
        self.quality = quality

    def __call__(self) -> None:
        receiver = self.receiver
        frame = self.frame
        if receiver.deliver(frame, self.quality):
            receiver.environment._count_delivered(frame.kind, 1, frame.size_bytes)


class _BatchFrameDelivery:
    # Never constructed: only perfbench/tracing.py's TARGETS still wraps its __call__.
    __slots__ = ()

    def __call__(self) -> None:
        pass


class _SenderPlan:
    """One sender's broadcast state, valid for one position epoch.

    Both equivalence tiers broadcast from this one structure, built by
    :meth:`RadioEnvironment._build_plan` with the tier's column kernel; the
    kernel is the only thing the tiers differ in.

    ``receivers`` are the *usable* receivers, name-sorted — their names are
    the answer to :meth:`RadioEnvironment.nodes_in_range`.  ``slots``,
    ``snr_db``, ``rate_bps``, ``pers``, ``scaled_rates`` (rate times the
    contention scale) and ``prop_delays`` are numpy columns over the same
    receivers: building a :class:`~repro.radio.link.LinkQuality` per
    receiver used to dominate plan construction while most were never
    observed.
    ``out_of_range`` folds the spatially pruned and the link-unusable
    candidates into one per-broadcast counter increment.  Delays depend on
    the frame size, so they are computed per broadcast.  Nothing mutates a
    plan after it is built.
    ``RadioEnvironment._refresh`` discards plans with the other per-epoch
    caches.
    """

    __slots__ = (
        "receivers",
        "slots",
        "snr_db",
        "rate_bps",
        "pers",
        "scaled_rates",
        "prop_delays",
        "out_of_range",
    )

    def __init__(
        self,
        receivers: List["RadioInterface"],
        slots: np.ndarray,
        snrs: np.ndarray,
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
        self.slots = slots
        self.snr_db = snrs
        self.rate_bps = rates
        self.pers = pers
        self.scaled_rates = rates * (1.0 / (1.0 + contention_factor * concurrent))
        self.prop_delays = distances / 3e8
        self.out_of_range = out_of_range


class _EpochUniverse:
    """Per-epoch position snapshot of every attached interface, name-sorted.

    Each interface's live position is read exactly once per epoch into
    parallel coordinate arrays; every sender plan of either tier then finds
    its broadcast candidates with one vectorised squared-distance mask
    against the environment's query radius (``dx*dx + dy*dy <= radius²``),
    without per-candidate position-provider calls.
    ``RadioEnvironment._refresh`` discards it with the other per-epoch
    caches, and it is never pickled.

    On the exact tier the plans stay bit-identical to plans built from a
    scalar range scan and per-pair link rows (the oracle in
    ``tests/oracle.py``).
    The query radius is the effective range plus the 5 m step slack, and
    the link budget is monotone in distance (an NLOS penalty only lowers
    SNR), so every usable receiver is a candidate of either method, and
    ``out_of_range`` — the others minus the usable — cannot differ.  The
    positions are the same live positions the link rows read, and the
    receivers are name-sorted either way, so the RNG draws line up.
    """

    __slots__ = ("interfaces", "positions", "xs", "ys", "slots", "index_of")


class RadioInterface:
    """A node's attachment point to the shared radio environment.

    Two hooks observe arriving frames (see the module docstring):
    :meth:`on_unicast` callbacks get frames addressed to this interface
    inside their arrival events, and :meth:`on_broadcast` handlers get
    broadcast frames when they are committed.  ``slot`` is the interface's
    row in the environment's per-receiver columns, fixed at attachment and
    never reused.
    """

    def __init__(
        self,
        environment: "RadioEnvironment",
        node_name: str,
        position_provider: Callable[[], Vec2],
        slot: int,
    ) -> None:
        self.environment = environment
        self.node_name = node_name
        self.position_provider = position_provider
        self.slot = slot
        self._unicast_callbacks: List[Callable[[Frame, LinkQuality], None]] = []
        self._broadcast_handlers: List[BroadcastHandler] = []
        self.bytes_sent = 0
        self.frames_sent = 0
        #: Unicast frames delivered by their events; committed broadcasts
        #: are counted in the environment's per-slot columns.
        self._event_bytes = 0
        self._event_frames = 0
        self._enabled = True

    @property
    def bytes_received(self) -> int:
        """Bytes of every frame delivered to this interface."""
        return self._event_bytes + int(self.environment._slot_bytes[self.slot])

    @bytes_received.setter
    def bytes_received(self, value: int) -> None:
        self._event_bytes = value - int(self.environment._slot_bytes[self.slot])

    @property
    def frames_received(self) -> int:
        """Number of frames delivered to this interface."""
        return self._event_frames + int(self.environment._slot_frames[self.slot])

    @frames_received.setter
    def frames_received(self, value: int) -> None:
        self._event_frames = value - int(self.environment._slot_frames[self.slot])

    @property
    def enabled(self) -> bool:
        """Whether the interface sends and receives.

        Setting it commits first, so every arrival keyed before the change
        is judged by the old state: on a crash, arrivals keyed before the
        crash are applied and later ones are dropped.
        """
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        environment = self.environment
        environment.commit()
        value = bool(value)
        if value != self._enabled:
            environment._disabled += -1 if value else 1
            environment._slot_enabled[self.slot] = self._enabled = value

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
        environment: the next distinct event time).  Calling this advances
        the environment's own epoch, so the very next transmission or range
        query re-reads every position.  A node registered with a *bound
        mobility manager* is that manager's to move: the manager's
        per-tick substrate commit is its own dirty-mark.
        """
        self.environment.notify_positions_changed()

    def on_unicast(self, callback: Callable[[Frame, LinkQuality], None]) -> None:
        """Register a callback for frames addressed to this interface."""
        self._unicast_callbacks.append(callback)

    def on_broadcast(self, handler: "BroadcastHandler") -> None:
        """Register ``handler(frame, time, sequence, snr_db, rate_bps)`` for
        broadcast frames.

        It is called when the arrival is committed, with the arrival's time
        and sequence number, in key order, with the simulator sealed: a
        handler must not schedule, transmit or draw randomness.
        """
        self._broadcast_handlers.append(handler)
        self.environment._slot_tapped[self.slot] = True
        self.environment._taps = True

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
        if self._enabled:
            self.bytes_sent += size_bytes
            self.frames_sent += 1
            self.environment.transmit(self, frame)
        return frame

    def deliver(self, frame: Frame, quality: LinkQuality) -> bool:
        """A unicast frame arrives inside its event (``sim.now`` is its
        arrival), with its link ``quality`` for the unicast callbacks.

        Returns whether the frame was delivered: an arrival at a disabled
        interface is dropped.  The arrival event counts a delivered frame
        into the ``radio.*`` counters.  Broadcasts never come here: the
        environment's :meth:`RadioEnvironment.commit` applies them.
        """
        environment = self.environment
        if environment._pending:
            environment.commit()
        if not self._enabled:
            return False
        self._event_bytes += frame.size_bytes
        self._event_frames += 1
        for callback in self._unicast_callbacks:
            callback(frame, quality)
        return True


class RadioEnvironment:
    """The shared medium connecting every :class:`RadioInterface`.

    Position freshness contract
    ---------------------------

    The environment never polls positions; it trusts an epoch counter and
    flushes its derived state (the per-epoch position universe, link rows
    and sender plans) when that counter advances.  The next plan then reads
    every attached interface's position once, into a new universe.  Two
    regimes:

    * **Substrate-bound** (a :class:`~repro.mobility.manager.MobilityManager`
      passed as ``mobility=`` or via :meth:`bind_mobility`): the manager's
      shared :class:`~repro.geometry.substrate.SpatialSubstrate`'s
      ``position_epoch`` — bumped once per mobility tick and on membership
      changes — is the single invalidation source.  Interfaces the
      substrate does not track (a roadside unit attached to the radio but
      never registered as a mobile node) are read into the same universe.
    * **Unbound**: the caches are also flushed whenever the virtual clock
      advances, so positions are read once per distinct transmitting event
      time.

    In both regimes :meth:`notify_positions_changed` advances the
    environment's own epoch: manual position writes at the *current*
    timestamp need that explicit dirty-mark (or
    :meth:`RadioInterface.notify_moved`) to be seen before the epoch next
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
        flushes its caches whenever the clock advances.

    The equivalence tier follows the link budget: a ``fast_math`` budget
    selects the *statistical* tier, whose sender plans come from the fused
    numpy link kernel.  That kernel choice in :meth:`_build_plan` is the
    only difference: loss draws and deferred arrivals are shared.  The
    statistical tier promises distribution-level metric agreement with the
    exact tier, not byte-identical frame sequences.

    Broadcasts only evaluate receivers within the query radius of the
    sender (the effective range plus a 5 m slack).  :attr:`use_spatial_index`
    turns ``False`` — every attached interface becomes a candidate — only
    when the link budget is still usable past
    :meth:`~repro.radio.link.LinkBudget.effective_range`'s scan cap, where
    range pruning would drop reachable receivers.
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
        self._position_epoch = 0
        self._synced_epoch = -1
        self._synced_time: Optional[float] = None
        self._mobility: Optional[Any] = None
        self._substrate: Optional[Any] = None
        #: Per-sender link rows, valid for one position epoch: sender name →
        #: {receiver name → LinkQuality}, read by unicast and
        #: :meth:`link_quality` (broadcasts read the plans).
        self._quality_rows: Dict[str, Dict[str, LinkQuality]] = {}
        #: Broadcast plans (both tiers), memoised per sender per epoch.
        self._plans: Dict[str, _SenderPlan] = {}
        #: The epoch's :class:`_EpochUniverse` (both tiers).
        self._universe: Optional[_EpochUniverse] = None
        # Hot-path counters, resolved once instead of per frame.
        monitor = sim.monitor
        self._frames_out_of_range = monitor.counter("radio.frames_out_of_range")
        self._frames_lost = monitor.counter("radio.frames_lost")
        self._frames_delivered = monitor.counter("radio.frames_delivered")
        self._bytes_delivered = monitor.counter("radio.bytes_delivered")
        self._link_delay = monitor.sample("radio.link_delay")
        self._kind_bytes: Dict[str, Counter] = {}
        self._deliver_names: Dict[str, str] = {}
        #: Every interface ever attached, by slot, and the per-slot columns:
        #: enabled, has broadcast handlers, committed broadcast frames and
        #: bytes.
        self._slot_interfaces: List[RadioInterface] = []
        self._slot_enabled = np.zeros(0, np.bool_)
        self._slot_tapped = np.zeros(0, np.bool_)
        self._slot_frames = np.zeros(0, np.int64)
        self._slot_bytes = np.zeros(0, np.int64)
        #: Broadcasts with arrivals not yet committed, in send order, each
        #: ``[frame, times, sequences, slots, snrs, rates]`` with the columns
        #: sorted by arrival key, and the earliest arrival time.
        self._pending: List[list] = []
        self._due_time = float("inf")
        #: Disabled interfaces, and whether any has broadcast handlers.
        self._disabled = 0
        self._taps = False
        #: The mesh layer's :class:`~repro.mesh.neighbor.NeighborStore`,
        #: installed by the first beacon agent; the commit hands it every
        #: committed broadcast arrival.
        self.neighbor_store: Optional[Any] = None
        sim.on_step_end(self.commit)
        if mobility is not None:
            self.bind_mobility(mobility)

    # ------------------------------------------------------------- snapshot

    def __getstate__(self) -> dict:
        """Pickle without per-epoch caches; force a refresh on first use.

        Link rows, sender plans and the universe are pure functions of
        positions and the link budget — rebuilding them after restore is
        cheap and keeps the snapshot free of numpy scratch arrays and
        hash-ordered intermediates.  The sync sentinels are reset so the first
        :meth:`_refresh` after restore flushes.
        """
        state = self.__dict__.copy()
        state["_quality_rows"] = {}
        state["_plans"] = {}
        state["_universe"] = None
        state["_synced_epoch"] = -1
        state["_synced_time"] = None
        count = len(self._slot_interfaces)
        for name in ("_slot_enabled", "_slot_tapped", "_slot_frames", "_slot_bytes"):
            state[name] = state[name][:count]
        return state

    # ----------------------------------------------------------- arrivals

    def commit(self) -> None:
        """Apply every fired broadcast arrival, fleet-wide.

        The fired arrivals are those keyed at or below the simulator's
        :attr:`~repro.simcore.simulator.Simulator.last_key`.  Arrivals at
        disabled interfaces are dropped; the rest are counted into the
        per-slot and ``radio.*`` delivered counters, handed to the neighbour
        store as one batch, and passed to the broadcast handlers of the
        receivers that have them, in key order — the store and the handlers
        run sealed.
        """
        if self._due_time > self.sim.last_key[0]:
            return
        time, priority, sequence = self.sim.last_key
        waiting = []
        pieces = []
        head = float("inf")
        for pending in self._pending:
            times = pending[1]
            if times[-1] < time:
                stop = len(times)
            else:
                # Arrivals at ``time`` itself are keyed (time, 0, sequence).
                stop = times.searchsorted(time)
                end = times.searchsorted(time, "right")
                if priority > 0:
                    stop = end
                elif priority == 0:
                    stop += pending[2][stop:end].searchsorted(sequence, "right")
            if stop == len(times):
                pieces.append(pending)
                continue
            if stop:
                pieces.append([pending[0]] + [column[:stop] for column in pending[1:]])
                pending = [pending[0]] + [column[stop:] for column in pending[1:]]
            waiting.append(pending)
            head = min(head, float(pending[1][0]))
        self._pending = waiting
        self._due_time = head
        if pieces:
            self._commit_pieces(pieces)

    def _commit_pieces(self, pieces: List[list]) -> None:
        """Count and hand over the committed parts of pending broadcasts."""
        frames = [piece[0] for piece in pieces]
        lengths = [len(piece[1]) for piece in pieces]
        if len(pieces) == 1:
            times, sequences, slots, snrs, rates = pieces[0][1:]
        else:
            times, sequences, slots, snrs, rates = [
                np.concatenate([piece[column] for piece in pieces])
                for column in range(1, 6)
            ]
        if self._disabled:
            kept = self._slot_enabled[slots]
            lengths = np.bincount(
                np.repeat(np.arange(len(pieces)), lengths)[kept],
                minlength=len(pieces),
            ).tolist()
            times, sequences, slots = times[kept], sequences[kept], slots[kept]
            snrs, rates = snrs[kept], rates[kept]
        counts = np.bincount(slots)
        self._slot_frames[: len(counts)] += counts
        sizes = [frame.size_bytes for frame in frames]
        if min(sizes) == max(sizes):
            self._slot_bytes[: len(counts)] += counts * sizes[0]
        else:
            per_slot = np.bincount(slots, np.repeat(sizes, lengths))
            self._slot_bytes[: len(per_slot)] += per_slot.astype(np.int64)
        for frame, length in zip(frames, lengths):
            if length:
                self._count_delivered(frame.kind, length, frame.size_bytes * length)
        store = self.neighbor_store
        if not len(slots) or (store is None and not self._taps):
            return
        sim = self.sim
        token = sim.seal()
        try:
            if store is not None:
                store.commit_arrivals(
                    len(self._slot_interfaces),
                    frames, lengths, counts, slots, times, sequences, snrs, rates,
                )
            if self._taps:
                self._call_handlers(
                    frames, lengths, self._slot_tapped[slots],
                    slots, times, sequences, snrs, rates,
                )
        finally:
            sim.unseal(token)

    def _call_handlers(
        self,
        frames: List[Frame],
        lengths: List[int],
        tapped: np.ndarray,
        slots: np.ndarray,
        times: np.ndarray,
        sequences: np.ndarray,
        snrs: np.ndarray,
        rates: np.ndarray,
    ) -> None:
        """Call the broadcast handlers of the tapped arrivals, in key order."""
        chosen = np.flatnonzero(tapped)
        chosen = chosen[np.lexsort((sequences[chosen], times[chosen]))]
        pieces = np.repeat(np.arange(len(frames)), lengths)[chosen].tolist()
        interfaces = self._slot_interfaces
        for piece, slot, time, sequence, snr_db, rate_bps in zip(
            pieces,
            slots[chosen].tolist(),
            times[chosen].tolist(),
            sequences[chosen].tolist(),
            snrs[chosen].tolist(),
            rates[chosen].tolist(),
        ):
            frame = frames[piece]
            for handler in interfaces[slot]._broadcast_handlers:
                handler(frame, time, sequence, snr_db, rate_bps)

    def _count_delivered(self, kind: str, frames: int, size: int) -> None:
        """Count ``frames`` delivered frames of ``size`` bytes in total."""
        self._frames_delivered.add(frames)
        self._bytes_delivered.add(size)
        self._kind_counter(kind).add(size)

    # ----------------------------------------------------------- attachment

    def attach(
        self, node_name: str, position_provider: Callable[[], Vec2]
    ) -> RadioInterface:
        """Create and register an interface for ``node_name``."""
        if node_name in self._interfaces:
            raise ValueError(f"node {node_name!r} already has a radio interface")
        slot = len(self._slot_interfaces)
        interface = RadioInterface(self, node_name, position_provider, slot)
        self._interfaces[node_name] = interface
        self._slot_interfaces.append(interface)
        if slot == len(self._slot_enabled):
            capacity = max(16, 2 * slot)
            for name in ("_slot_enabled", "_slot_tapped", "_slot_frames", "_slot_bytes"):
                column = getattr(self, name)
                grown = np.zeros(capacity, column.dtype)
                grown[:slot] = column
                setattr(self, name, grown)
        self._slot_enabled[slot] = True
        self.notify_positions_changed()
        return interface

    def detach(self, node_name: str) -> None:
        """Remove a node's interface (e.g. the node left the area)."""
        if self._interfaces.pop(node_name, None) is not None:
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
        Once bound, the environment trusts that positions only change when
        the manager's :class:`~repro.geometry.substrate.SpatialSubstrate`
        ``position_epoch`` advances (once per tick and on membership
        changes), so one position commit per tick serves both the mobility
        and radio layers (see the class docstring's freshness contract).
        """
        self._mobility = mobility
        self._substrate = mobility.substrate
        self._synced_epoch = -1

    def notify_positions_changed(self) -> None:
        """Advance the position epoch (positions may have moved)."""
        self._position_epoch += 1

    def _obstacle_epoch(self) -> int:
        """The visibility map's occluder epoch (0 for open terrain)."""
        visibility = self.visibility
        return 0 if visibility is None else visibility.obstacle_epoch

    def _refresh(self) -> None:
        """Flush the per-epoch caches when the position epoch has moved on.

        The key is the environment's own epoch plus, when bound, the
        substrate's ``position_epoch``; unbound, the virtual time joins the
        key, so the caches go stale whenever the clock advances.  The
        obstacle epoch is folded into the environment's own epoch: link rows
        embed NLOS penalties, so a mutated occluder set (moving buses/trucks
        via :meth:`~repro.geometry.los.VisibilityMap.set_obstacles`) must
        flush them even though no node moved.  All counters are monotonic,
        so their sum is a valid single invalidation key.
        """
        epoch = self._position_epoch + self._obstacle_epoch()
        substrate = self._substrate
        if substrate is None:
            now = self.sim.now
        else:
            epoch += substrate.position_epoch
            now = None
        if epoch == self._synced_epoch and now == self._synced_time:
            return
        self._quality_rows.clear()
        self._plans.clear()
        self._universe = None
        self._synced_epoch = epoch
        self._synced_time = now

    # ------------------------------------------------------------- queries

    def link_quality(self, src: str, dst: str) -> LinkQuality:
        """Current link quality between two attached nodes."""
        self._refresh()
        return self._ensure_row(src, (dst,))[dst]

    def _ensure_row(
        self, src: str, wanted: "Sequence[str]"
    ) -> Dict[str, LinkQuality]:
        """The sender's link row, guaranteed to cover ``wanted`` receivers.

        Rows live for one position epoch (:meth:`_refresh` flushes them) and
        serve unicast and :meth:`link_quality`.  Missing entries are
        computed in one :meth:`~repro.radio.link.LinkBudget.quality_batch`
        call, bit-identical to scalar
        :meth:`~repro.radio.link.LinkBudget.quality` per pair on the exact
        tier.  Names without an attached interface are skipped (callers
        guard their lookups the same way).
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

    def nodes_in_range(self, node_name: str) -> List[str]:
        """Other nodes whose link from ``node_name`` is currently usable.

        The usable receivers of the node's sender plan, name-sorted; the
        plan is memoised per position epoch.  On the statistical tier the
        plan comes from the fused kernel with ``np.sqrt`` distances, so for
        a link right at the SNR threshold this may disagree with
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
            plan = self._build_plan(sender)
            self._plans[sender.node_name] = plan
        return plan

    def _ensure_universe(self) -> _EpochUniverse:
        """The per-epoch position snapshot, built on the epoch's first plan.

        One position-provider call per attached interface per epoch; every
        sender plan of the epoch reuses the arrays.  Name-sorted, so the
        candidates derived from it come out in receiver order.
        """
        universe = self._universe
        if universe is None:
            universe = _EpochUniverse()
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
            universe.slots = np.fromiter(
                (interface.slot for interface in interfaces), np.int64, count
            )
            universe.index_of = {
                interface.node_name: index
                for index, interface in enumerate(interfaces)
            }
            self._universe = universe
        return universe

    def _build_plan(self, sender: RadioInterface) -> _SenderPlan:
        """The sender's plan: one vectorised pass over the epoch universe.

        Candidates come from one squared-distance mask over the epoch's
        :class:`_EpochUniverse` (every other interface when range pruning is
        off, see :attr:`use_spatial_index`).  The tier's column kernel —
        :meth:`~repro.radio.link.LinkBudget.exact_arrays_xy` or the
        statistical :meth:`~repro.radio.link.LinkBudget.quality_arrays_xy`,
        which reuses the mask's squared distances — evaluates them in one
        call, and the usable receivers' qualities stay column-major.  Every
        other interface that is not a usable receiver counts into
        ``out_of_range``.
        """
        universe = self._ensure_universe()
        sender_index = universe.index_of.get(sender.node_name)
        if sender_index is None:
            position = sender.position
        else:
            position = universe.positions[sender_index]
        dx = universe.xs - position.x
        dy = universe.ys - position.y
        squared = dx * dx + dy * dy
        if self.use_spatial_index:
            # On squared distances, so no sqrt runs over the pruned
            # interfaces.
            in_range = squared <= self._query_radius * self._query_radius
        else:
            in_range = np.ones(len(universe.interfaces), dtype=bool)
        if sender_index is not None:
            in_range[sender_index] = False
        candidates = np.flatnonzero(in_range)
        others = len(universe.interfaces) - (1 if sender_index is not None else 0)
        positions = universe.positions
        rxs = [positions[index] for index in candidates.tolist()]
        xs = universe.xs[candidates]
        ys = universe.ys[candidates]
        if self.fast_math:
            columns = self.link_budget.quality_arrays_xy(
                position,
                xs,
                ys,
                self.visibility,
                rxs=rxs,
                distances=np.sqrt(squared[candidates]),
            )
        else:
            columns = self.link_budget.exact_arrays_xy(
                position, xs, ys, self.visibility, rxs=rxs
            )
        snrs, rates, pers, usable, distances = columns
        usable_indices = np.flatnonzero(usable)
        all_interfaces = universe.interfaces
        receivers = [
            all_interfaces[index] for index in candidates[usable_indices].tolist()
        ]
        return _SenderPlan(
            receivers,
            universe.slots[candidates[usable_indices]],
            snrs[usable_indices],
            pers[usable_indices],
            rates[usable_indices],
            distances[usable_indices],
            others - len(receivers),
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
        # The kind's byte counter exists from the first send on, so the
        # monitor's counter order does not depend on when arrivals commit.
        self._kind_counter(frame.kind)
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
        ``extra_loss_probability`` nonzero, the draws keep the scalar
        interleaving instead: a PER draw per receiver, then an extra draw for
        that receiver only if it survived.  The delivered arrivals are
        deferred (:meth:`_defer_arrivals`).
        """
        plan = self._sender_plan(sender)
        if plan.out_of_range:
            self._frames_out_of_range.add(plan.out_of_range)
        count = len(plan.receivers)
        if count == 0:
            return
        rng = self.sim.streams.get(self.rng_stream)
        extra = self.extra_loss_probability
        if extra > 0.0:
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
        delivered = int(np.count_nonzero(kept))
        lost = count - delivered
        if lost:
            self._frames_lost.add(lost)
        if not delivered:
            return
        delays = frame.size_bytes * 8 / plan.scaled_rates + plan.prop_delays
        indices = None
        if lost:
            indices = np.flatnonzero(kept)
            delays = delays[indices]
        self._link_delay.add_many(delays)
        self._defer_arrivals(plan, indices, delays + self.sim.now, frame)

    def _defer_arrivals(
        self,
        plan: _SenderPlan,
        indices: Optional[np.ndarray],
        times: np.ndarray,
        frame: Frame,
    ) -> None:
        """Hand one broadcast's arrivals over without events.

        ``indices`` are the delivered receivers' plan indices, name-sorted
        (``None``: every receiver), and ``times`` their arrival times.
        Arrival i takes the i-th of the reserved sequence numbers, as the
        i-th push would have.  The keys go to the simulator, and the
        arrivals to the pending list as one entry of columns, both sorted by
        key.
        """
        sim = self.sim
        first = sim._queue.reserve(len(times))
        order = np.argsort(times, kind="stable")
        times = times[order]
        sequences = order + first
        sim.defer_arrivals(times.tolist(), sequences.tolist())
        receivers = order if indices is None else indices[order]
        self._pending.append([
            frame,
            times,
            sequences,
            plan.slots[receivers],
            plan.snr_db[receivers],
            plan.rate_bps[receivers],
        ])
        self._due_time = min(self._due_time, float(times[0]))
