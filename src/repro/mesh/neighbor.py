"""Per-node neighbour tables, kept as per-pair columns.

Each node keeps a table of the beacons it has recently heard.  An entry
expires when no beacon has arrived for ``lifetime`` seconds; expiry is the
*only* way a node learns that a neighbour left — there is no goodbye message,
matching the asynchronous, failure-prone reality of vehicular meshes.

Every table of one radio environment is a view of that environment's
:class:`NeighborStore`: one row per (receiver, sender) pair ever in range,
with the columns ``last_seen``, ``snr_db``, ``rate_bps``,
``beacons_received``, ``first_seen`` and the latest
:class:`~repro.mesh.messages.Beacon` (an object column); a pair is present
in its receiver's table while ``beacons_received`` is positive.  Per
receiver slot (the receiving interface's
:attr:`~repro.radio.interfaces.RadioInterface.slot`) the store keeps the join-plus-eviction count (the beacon agent's epoch), the
beacons heard and the present rows in join order, which is the order a
table lists its entries in.  An evicted pair keeps its row, with a zero
count, and a rejoin reuses it.  :class:`NeighborEntry` objects are built only when
a caller asks for entries.

The radio writes the columns through one path:
:meth:`NeighborStore.commit_arrivals`, the radio environment's bulk commit
of the fired beacon arrivals, fleet-wide, in a few whole-array steps.
:meth:`NeighborTable.observe` writes one arrival at a time and gives the
same state; stand-alone tables use it, and so does the test suite's
per-arrival reference path.

Beacon arrivals are applied lazily (see :mod:`repro.radio.interfaces`), so
every public read of a table first calls its ``commit`` hook (the
environment's :meth:`~repro.radio.interfaces.RadioEnvironment.commit`) and
reads what the store holds once every arrival fired so far is in.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.mesh.messages import Beacon
from repro.simcore.monitor import Counter

#: A pair's index key is ``receiver slot * _PAIR_KEY + sender name id``.
_PAIR_KEY = 1 << 32

#: ``callback(peer, beacon, time, sequence)`` for a newly joined neighbour;
#: ``time`` and ``sequence`` are the key of the arrival that joined it.
NeighborUpCallback = Callable[[str, Beacon, float, int], None]


@dataclass(slots=True)
class NeighborEntry:
    """Everything a node knows about one neighbour (a copy of its row)."""

    beacon: Beacon
    last_seen: float
    #: Signal-to-noise ratio and link rate of the frame that carried the
    #: latest beacon.
    snr_db: float = 0.0
    rate_bps: float = 0.0
    beacons_received: int = 1
    first_seen: float = 0.0

    def age(self, now: float) -> float:
        """Seconds since the last beacon from this neighbour."""
        return max(0.0, now - self.last_seen)


#: Row columns, with their dtypes.
_ROW_COLUMNS = (
    ("sender", np.int64),
    ("last_seen", np.float64),
    ("snr_db", np.float64),
    ("rate_bps", np.float64),
    ("beacons_received", np.int64),
    ("first_seen", np.float64),
    ("beacon", object),
)

#: Per-slot columns, with the value of a slot that has no table yet.
_SLOT_COLUMNS = (("owner", -1), ("epoch", 0), ("heard", 0))

#: The columns the one-arrival path writes, through memoryviews: an item
#: access costs about half of a numpy scalar index.
_SCALAR_COLUMNS = ("beacons_received", "last_seen", "snr_db", "rate_bps", "first_seen")


class NeighborStore:
    """Every neighbour table of one radio environment, as per-pair columns.

    ``joins`` is the ``mesh.joins`` counter (``None`` for a store that
    backs stand-alone tables).  Rows are capacity-padded; only the present
    rows are pickled, and the pair index and per-slot row lists are rebuilt
    on restore.
    """

    def __init__(self, joins: Optional[Counter] = None) -> None:
        self.joins = joins
        #: Sender names by id, and the ids by name.
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: Per slot: its table, neighbour-up callbacks and present rows in
        #: join order; owner name id (-1 without a table), epoch and beacons
        #: heard are the ``_SLOT_COLUMNS`` arrays.
        self.tables: List[Optional[NeighborTable]] = []
        self.watchers: List[List[NeighborUpCallback]] = []
        self._slot_rows: List[List[int]] = []
        for name, _ in _SLOT_COLUMNS:
            setattr(self, name, np.zeros(0, np.int64))
        self._untabled = 0
        self._watched = 0
        self._count = 0
        self._index: Dict[int, int] = {}
        self._allocate(64)

    @classmethod
    def of(cls, environment: Any) -> "NeighborStore":
        """The radio environment's store, created on first use."""
        if environment.neighbor_store is None:
            environment.neighbor_store = cls(environment.sim.monitor.counter("mesh.joins"))
        return environment.neighbor_store

    # ------------------------------------------------------------- layout

    def _allocate(self, capacity: int) -> None:
        count = self._count
        for name, dtype in _ROW_COLUMNS:
            column = np.zeros(capacity, dtype)
            if count:
                column[:count] = getattr(self, name)[:count]
            setattr(self, name, column)
        self._views()

    def _views(self) -> None:
        self._scalar = tuple(memoryview(getattr(self, name)) for name in _SCALAR_COLUMNS)

    def _grow_slots(self, count: int) -> None:
        extra = count - len(self.tables)
        if extra > 0:
            if count > len(self.owner):
                # Capacity-padded; a padding slot reads as one with no table.
                for name, fill in _SLOT_COLUMNS:
                    column = getattr(self, name)
                    grown = np.full(max(count, 2 * len(column)), fill)
                    grown[: len(column)] = column
                    setattr(self, name, grown)
                self._views()
            self.tables.extend(repeat(None, extra))
            self.watchers.extend([] for _ in range(extra))
            self._slot_rows.extend([] for _ in range(extra))
            self._untabled += extra

    def register(self, table: "NeighborTable", slot: Optional[int]) -> int:
        """Give ``table`` its slot (the next free one when ``None``)."""
        slot = len(self.tables) if slot is None else slot
        self._grow_slots(slot + 1)
        if self.tables[slot] is not None:
            raise ValueError(f"slot {slot} already has a neighbour table")
        self.tables[slot] = table
        self.owner[slot] = self._name_id(table.owner)
        self._untabled -= 1
        return slot

    def watch(self, slot: int, callback: NeighborUpCallback) -> None:
        """Call ``callback`` whenever the slot's table gains a neighbour."""
        self.watchers[slot].append(callback)
        self._watched += 1

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def _add_rows(self, keys: np.ndarray, distinct: bool) -> np.ndarray:
        """New absent rows for the pairs ``keys``; the row of each key."""
        inverse = None
        if not distinct:
            keys, inverse = np.unique(keys, return_inverse=True)
        start = self._count
        stop = start + len(keys)
        if stop > len(self.sender):
            self._allocate(2 * stop)
        self._count = stop
        self.sender[start:stop] = keys % _PAIR_KEY
        self._index.update(zip(keys.tolist(), range(start, stop)))
        rows = np.arange(start, stop)
        return rows if inverse is None else rows[inverse]

    def row(self, slot: int, name: str) -> Optional[int]:
        """The present row of ``slot``'s neighbour ``name``, or ``None``."""
        ident = self._name_ids.get(name)
        row = None if ident is None else self._index.get(slot * _PAIR_KEY + ident)
        return row if row is not None and self.beacons_received[row] else None

    # ------------------------------------------------------------- writers

    def write(
        self, slot: int, beacon: Beacon, now: float, snr_db: float, rate_bps: float
    ) -> bool:
        """One arrival into the columns; ``True`` when the sender joined."""
        ident = self._name_ids.get(beacon.sender)
        if ident is None:
            ident = self._name_id(beacon.sender)
        key = slot * _PAIR_KEY + ident
        row = self._index.get(key)
        if row is None:
            row = int(self._add_rows(np.array([key]), True)[0])
        received, last_seen, snrs, rates, first_seen = self._scalar
        count = received[row]
        received[row] = count + 1
        last_seen[row] = now
        snrs[row] = snr_db
        rates[row] = rate_bps
        self.beacon[row] = beacon
        if count:
            return False
        first_seen[row] = now
        self._slot_rows[slot].append(row)
        return True

    def commit_arrivals(
        self,
        slot_count: int,
        frames: List[Any],
        lengths: List[int],
        counts: np.ndarray,
        slots: np.ndarray,
        times: np.ndarray,
        sequences: np.ndarray,
        snrs: np.ndarray,
        rates: np.ndarray,
    ) -> None:
        """Apply a batch of delivered broadcast arrivals, as if they were
        heard one at a time in key order.

        A beacon counts as heard; a new sender is a join, which advances the
        slot's epoch and ``mesh.joins`` and calls the slot's neighbour-up
        callbacks.  Frames to slots without a table, and a table's own
        beacons, are ignored.

        ``frames[i]`` carried the next ``lengths[i]`` arrivals of the
        columns, and ``counts`` is ``np.bincount(slots)``.  The batch needs no sorting unless one pair has two
        arrivals in it, which only two frames with one beacon sender can
        give; then the pair's last arrival sets its row and its first one
        joins it.  Joins and their callbacks go in arrival-key order.
        """
        self._grow_slots(slot_count)
        ids = []
        beacons = []
        foreign = False
        for frame in frames:
            beacon = frame.payload
            if frame.kind == "beacon" and isinstance(beacon, Beacon):
                ids.append(self._name_id(beacon.sender))
                foreign = foreign or beacon.sender != frame.sender
            else:
                ids.append(-1)
                beacon = None
            beacons.append(beacon)
        # One frame's sender and beacon broadcast as scalars over its arrivals.
        if len(frames) == 1:
            senders, carried = ids[0], beacons[0]
        else:
            senders = np.repeat(ids, lengths)
            carried = np.empty(len(beacons), object)
            carried[:] = beacons
            carried = np.repeat(carried, lengths)
        if self._untabled or foreign or min(ids) < 0:
            owners = self.owner[slots]
            heard = (owners >= 0) & (senders >= 0)
            counts = np.bincount(slots[heard], minlength=len(counts))
            # A table ignores its owner's own beacons.
            keep = np.flatnonzero(heard & (owners != senders))
            slots, times, sequences = slots[keep], times[keep], sequences[keep]
            snrs, rates = snrs[keep], rates[keep]
            if len(frames) > 1:
                senders, carried = senders[keep], carried[keep]
        self.heard[: len(counts)] += counts
        if not len(slots):
            return
        keys = slots * _PAIR_KEY + senders
        found = list(map(self._index.get, keys.tolist(), repeat(-1)))
        beacon_ids = [ident for ident in ids if ident >= 0]
        single = len(set(beacon_ids)) == len(beacon_ids)
        rows = np.array(found, np.int64)
        if -1 in found:
            fresh = np.flatnonzero(rows < 0)
            rows[fresh] = self._add_rows(keys[fresh], single)
        if single:
            before = self.beacons_received[rows]
            self.beacons_received[rows] = before + 1
            self.last_seen[rows] = times
            self.snr_db[rows] = snrs
            self.rate_bps[rows] = rates
            self.beacon[rows] = carried
            if before.all():
                return
            joined = np.flatnonzero(before == 0)
            joined = joined[np.lexsort((sequences[joined], times[joined]))]
        else:
            order = np.lexsort((sequences, times))
            rows, slots, times, sequences, snrs, rates, carried = (
                column[order]
                for column in (rows, slots, times, sequences, snrs, rates, carried)
            )
            unique, first, counts = np.unique(rows, return_index=True, return_counts=True)
            last = len(rows) - 1 - np.unique(rows[::-1], return_index=True)[1]
            before = self.beacons_received[unique]
            self.beacons_received[unique] = before + counts
            self.last_seen[unique] = times[last]
            self.snr_db[unique] = snrs[last]
            self.rate_bps[unique] = rates[last]
            self.beacon[unique] = carried[last]
            if before.all():
                return
            joined = np.sort(first[before == 0])
        joined_rows = rows[joined]
        self.first_seen[joined_rows] = times[joined]
        joined_slots = slots[joined]
        counts = np.bincount(joined_slots)
        self.epoch[: len(counts)] += counts
        joined_slots = joined_slots.tolist()
        for slot, row in zip(joined_slots, joined_rows.tolist()):
            self._slot_rows[slot].append(row)
        if self.joins is not None:
            self.joins.add(len(joined_slots))
        if self._watched:
            joiners = carried[joined].tolist() if len(frames) > 1 else repeat(carried)
            for slot, beacon, time, sequence in zip(
                joined_slots, joiners, times[joined].tolist(), sequences[joined].tolist()
            ):
                for callback in self.watchers[slot]:
                    callback(beacon.sender, beacon, time, sequence)

    # --------------------------------------------------------------- views

    def rows_of(self, slot: int) -> np.ndarray:
        """The slot's present rows, in join order."""
        return np.array(self._slot_rows[slot], np.int64)

    def names_of(self, rows: np.ndarray) -> List[str]:
        """Sender names of ``rows``, in order."""
        return [self._names[ident] for ident in self.sender[rows].tolist()]

    def entries(self, rows: np.ndarray) -> List[NeighborEntry]:
        """Fresh :class:`NeighborEntry` copies of ``rows``, in order."""
        columns = ("beacon", "last_seen", "snr_db", "rate_bps", "beacons_received")
        return list(
            map(
                NeighborEntry,
                *[getattr(self, name)[rows].tolist() for name in columns],
                self.first_seen[rows].tolist(),
            )
        )

    def expire(self, slot: int, now: float, lifetime: float) -> List[str]:
        """Evict the slot's rows aged past ``lifetime``; their names."""
        rows = self.rows_of(slot)
        gone = now - self.last_seen[rows] > lifetime
        if not gone.any():
            return []
        self._slot_rows[slot] = rows[~gone].tolist()
        return self.drop(rows[gone])

    def drop(self, rows: np.ndarray) -> List[str]:
        """Mark ``rows`` absent (they must be present); their names."""
        self.beacons_received[rows] = 0
        self.beacon[rows] = None
        return self.names_of(rows)

    def active_pairs(
        self, tables: List["NeighborTable"], now: float
    ) -> Tuple[np.ndarray, np.ndarray, List[str]]:
        """Every listed table's active neighbours in one pass.

        An active row's beacon has not aged past its table's lifetime.
        Returns ``(position, sender, names)``: for each active row, the
        position of its table in ``tables`` and the sender's name id, in
        table order and each table's entry order, and the names by id.
        """
        lists = [self._slot_rows[table.slot] for table in tables]
        rows = np.array([row for rows in lists for row in rows], np.int64)
        lengths = list(map(len, lists))
        lifetimes = np.repeat([table.lifetime for table in tables], lengths)
        active = now - self.last_seen[rows] <= lifetimes
        position = np.repeat(np.arange(len(tables)), lengths)[active]
        return position, self.sender[rows[active]], self._names

    # ------------------------------------------------------------ snapshot

    def __getstate__(self) -> dict:
        """Only the present rows, slot by slot in entry order."""
        state = self.__dict__.copy()
        rows = np.array([row for rows in self._slot_rows for row in rows], np.int64)
        for name, _ in _ROW_COLUMNS:
            state[name] = state[name][rows]
        for name, _ in _SLOT_COLUMNS:
            state[name] = state[name][: len(self.tables)]
        # The row lists pickle as their lengths: the rows are renumbered.
        state["_slot_rows"] = list(map(len, self._slot_rows))
        for name in ("_index", "_count", "_name_ids", "_scalar"):
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        lengths = self._slot_rows
        self._count = count = sum(lengths)
        self._name_ids = {name: ident for ident, name in enumerate(self._names)}
        starts = np.cumsum([0] + lengths).tolist()
        self._slot_rows = [list(range(a, b)) for a, b in zip(starts, starts[1:])]
        self._allocate(max(64, count))

    def __getattr__(self, name: str) -> Any:
        # A restored store builds its pair index on first use, so the copy
        # a snapshot's canonical round makes never builds one.
        if name != "_index":
            raise AttributeError(name)
        self._index = {
            slot * _PAIR_KEY + ident: row
            for slot, rows in enumerate(self._slot_rows)
            for row, ident in zip(rows, self.sender[rows].tolist())
        }
        return self._index


class NeighborTable:
    """Recently heard neighbours, with age-based expiry: one receiver's view
    of a :class:`NeighborStore`.

    Parameters
    ----------
    owner:
        Name of the node owning the table.
    lifetime:
        Seconds after which a silent neighbour is evicted (typically a small
        multiple of the beacon period).
    commit:
        Called before every read and by :meth:`expire`, :meth:`remove` and
        :meth:`clear` to apply deferred writes.  :meth:`observe` is the
        write those apply, so it does not call it.
    store / slot:
        The store the table views and its receiver slot there; by default a
        private store, and the store's next free slot.
    """

    def __init__(
        self,
        owner: str,
        lifetime: float = 3.0,
        *,
        commit: Callable[[], None],
        store: Optional[NeighborStore] = None,
        slot: Optional[int] = None,
    ) -> None:
        if lifetime <= 0:
            raise ValueError("lifetime must be positive")
        self.owner = owner
        self.lifetime = lifetime
        self._commit = commit
        self.store = NeighborStore() if store is None else store
        self.slot = self.store.register(self, slot)

    def __len__(self) -> int:
        self._commit()
        return len(self.store._slot_rows[self.slot])

    def __contains__(self, name: str) -> bool:
        self._commit()
        return self.store.row(self.slot, name) is not None

    def observe(
        self, beacon: Beacon, now: float, snr_db: float = 0.0, rate_bps: float = 0.0
    ) -> bool:
        """Record a received beacon.

        Returns ``True`` when the sender is a *new* neighbour (not currently
        in the table), which is the join trigger used by
        :class:`~repro.mesh.discovery.BeaconAgent`.
        """
        if beacon.sender == self.owner:
            return False
        return self.store.write(self.slot, beacon, now, snr_db, rate_bps)

    def expire(self, now: float) -> List[str]:
        """Remove silent neighbours; returns the names that were evicted."""
        self._commit()
        return self.store.expire(self.slot, now, self.lifetime)

    def entry(self, name: str) -> Optional[NeighborEntry]:
        """The entry for ``name``, or ``None``."""
        self._commit()
        row = self.store.row(self.slot, name)
        return None if row is None else self.store.entries(np.array([row]))[0]

    def names(self) -> List[str]:
        """Names of all current neighbours."""
        self._commit()
        return self.store.names_of(self.store.rows_of(self.slot))

    def entries(self) -> List[NeighborEntry]:
        """All current entries."""
        self._commit()
        return self.store.entries(self.store.rows_of(self.slot))

    def active_names(self, now: float) -> List[str]:
        """Names of neighbours whose entry has not aged past the lifetime.

        :meth:`expire` only runs on the owner's periodic sweep (every half
        lifetime), so between sweeps the table can hold entries that are
        already overdue.  View-style queries — "who is in my mesh right
        now?" — must not report those: a crashed peer has to leave every
        live node's view within the beacon timeout, not within timeout plus
        sweep phase (regression-tested by the fault-injection suite).  This
        is a non-mutating filter; eviction (and the leave count) still
        happen on the sweep.
        """
        self._commit()
        rows = self.store.rows_of(self.slot)
        return self.store.names_of(rows[now - self.store.last_seen[rows] <= self.lifetime])

    def remove(self, name: str) -> None:
        """Explicitly drop a neighbour (used when a link is blacklisted)."""
        self._commit()
        row = self.store.row(self.slot, name)
        if row is not None:
            self.store._slot_rows[self.slot].remove(row)
            self.store.drop(np.array([row]))

    def clear(self) -> None:
        """Drop every neighbour."""
        self._commit()
        rows = self.store.rows_of(self.slot)
        self.store._slot_rows[self.slot] = []
        self.store.drop(rows)
