"""Property: deferred broadcast arrivals are the per-receiver events they replace.

On the exact tier a broadcast's arrivals leave the event queue: the
simulator counts them as events and each receiver applies them when it
commits.  The oracle is the per-receiver event path kept in
``tests/oracle.py`` (:func:`~tests.oracle.use_reference_transmit`), where
every arrival is an event that delivers the frame when it fires.  Both run
the same random fleet of mesh nodes: twin nodes at one spot (so arrivals
tie in time), extra broadcasts at shared instants, crashes and recoveries,
extra-loss bursts, unicast transfers, and views read inside events.  The
slice sizes 1, 7 and 2000 put slice ends everywhere.

Everything observable must agree: every ``StepOutcome`` and
``pending_events``, each node's neighbour view (entries, beacon epochs),
agent epoch and beacon count after every slice and inside events, the
interface counters, ``mesh.joins``/``mesh.leaves``, the neighbour-up
callbacks with their arrival keys, frame taps with sequence numbers, and
the :class:`~repro.snapshot.DeliveredFrameLog` records in the order it
reads them out.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geometry.vector import Vec2
from repro.mesh.messages import BEACON_SIZE_BYTES
from repro.mesh.node import MeshNode
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from repro.snapshot import DeliveredFrameLog
from tests.oracle import use_reference_transmit

DURATION = 4.0
#: Extra broadcasts fire on this grid, so co-located senders share instants.
GRID_S = 0.125


class World:
    """One random fleet, on the deferred path or the oracle's event path."""

    def __init__(self, params, reference, budget=None):
        self.sim = sim = Simulator(seed=params["seed"])
        self.env = env = RadioEnvironment(sim, budget or LinkBudget())
        if reference:
            use_reference_transmit(env)
        self.frames = []
        self.ups = []
        self.probes = []
        self.crashed = set()
        self.nodes = {}
        for index, (x, y) in enumerate(params["spots"]):
            for twin in range(1 + (index in params["twinned"])):
                name = f"n{index:02d}{'ab'[twin]}"
                node = MeshNode(
                    sim,
                    env,
                    StaticNode(sim, Vec2(x, y), name=name),
                    beacon_period=params["beacon_period"],
                    neighbor_lifetime=params["lifetime"],
                )
                node.on_frame(self._tap(name))
                self._watch(node)
                self.nodes[name] = node
        self.log = DeliveredFrameLog().attach(
            SimpleNamespace(
                nodes=[SimpleNamespace(name=name, mesh=node) for name, node in self.nodes.items()]
            )
        )
        names = sorted(self.nodes)
        for at, node_index, downtime in params["crashes"]:
            name = names[node_index % len(names)]
            sim.schedule_at(at, lambda name=name: self.crash(name))
            sim.schedule_at(at + downtime, lambda name=name: self.recover(name))
        for at, length, probability in params["bursts"]:
            sim.schedule_at(at, lambda p=probability: setattr(env, "extra_loss_probability", p))
            sim.schedule_at(at + length, lambda: setattr(env, "extra_loss_probability", 0.0))
        for tick, senders in params["extra_broadcasts"]:
            for sender in senders:
                name = names[sender % len(names)]
                sim.schedule_at(tick * GRID_S, lambda name=name: self.beacon(name))
        for at, src, dst in params["transfers"]:
            a, b = names[src % len(names)], names[dst % len(names)]
            sim.schedule_at(at, lambda a=a, b=b: self.nodes[a].send_reliable(b, "x", 900))
        for at, node_index in params["probes"]:
            name = names[node_index % len(names)]
            sim.schedule_at(at, lambda name=name: self.probes.append(
                (self.sim.now, self.node_view(name))
            ))

    def _tap(self, receiver):
        def tap(frame, time, sequence, snr_db, rate_bps):
            self.frames.append(
                (time, sequence, frame.sender, receiver, frame.kind, snr_db, rate_bps)
            )
        return tap

    def _watch(self, node):
        owner = node.name
        node.beacon_agent.on_neighbor_up(
            lambda peer, beacon, time, sequence: self.ups.append(
                (time, sequence, owner, peer)
            )
        )

    def crash(self, name):
        if name not in self.crashed:
            self.crashed.add(name)
            self.nodes[name].shutdown()
            self.env.detach(name)

    def recover(self, name):
        if name in self.crashed:
            self.crashed.discard(name)
            node = self.nodes[name]
            node.restart()
            self._watch(node)

    def beacon(self, name):
        if name not in self.crashed:
            agent = self.nodes[name].beacon_agent
            agent.interface.send(agent.build_beacon(), BEACON_SIZE_BYTES, kind="beacon")

    def node_view(self, name):
        node = self.nodes[name]
        agent = node.beacon_agent
        entries = tuple(
            (
                entry.beacon.sender,
                entry.beacon.epoch,
                entry.beacon.timestamp,
                entry.last_seen,
                entry.first_seen,
                entry.snr_db,
                entry.rate_bps,
                entry.beacons_received,
            )
            for entry in node.neighbors.entries()
        )
        return (agent.epoch, agent.beacons_heard, entries)

    def view(self):
        monitor = self.sim.monitor
        return (
            self.sim.pending_events,
            monitor.counter_value("mesh.joins"),
            monitor.counter_value("mesh.leaves"),
            tuple(
                (
                    name,
                    self.node_view(name),
                    node.interface.frames_received,
                    node.interface.bytes_received,
                )
                for name, node in sorted(self.nodes.items())
            ),
        )

    def run(self, slice_size):
        """Step to the end in slices; the outcome and view after each."""
        trace = []
        while True:
            outcome = self.sim.step(max_events=slice_size, until=DURATION)
            trace.append((outcome, self.view()))
            if outcome.exhausted:
                return trace


fleets = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "spots": st.lists(
            st.tuples(st.floats(-260.0, 260.0), st.floats(-260.0, 260.0)),
            min_size=2,
            max_size=6,
        ),
        "twinned": st.sets(st.integers(0, 5), max_size=3),
        "beacon_period": st.sampled_from([0.2, 0.35, 0.5]),
        "lifetime": st.sampled_from([0.6, 1.0, 3.0]),
        "crashes": st.lists(
            st.tuples(st.floats(0.1, 3.5), st.integers(0, 20), st.floats(0.05, 1.5)),
            max_size=3,
        ),
        "bursts": st.lists(
            st.tuples(st.floats(0.0, 3.5), st.floats(0.05, 1.0), st.floats(0.1, 0.9)),
            max_size=2,
        ),
        "extra_broadcasts": st.lists(
            st.tuples(
                st.integers(1, int(DURATION / GRID_S) - 1),
                st.lists(st.integers(0, 20), min_size=1, max_size=3),
            ),
            max_size=6,
        ),
        "transfers": st.lists(
            st.tuples(st.floats(0.5, 3.5), st.integers(0, 20), st.integers(0, 20)),
            max_size=3,
        ),
        "probes": st.lists(
            st.tuples(st.floats(0.0, DURATION), st.integers(0, 20)), max_size=8
        ),
    }
)


def _observed(params, reference, slice_size):
    world = World(params, reference)
    trace = world.run(slice_size)
    return {
        "trace": trace,
        "probes": world.probes,
        "frames": sorted(world.frames),
        "ups": sorted(world.ups),
        "log": world.log.records,
    }


@pytest.mark.parametrize("slice_size", [1, 7, 2000])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(params=fleets)
def test_deferred_arrivals_match_the_per_receiver_event_path(slice_size, params):
    deferred = _observed(params, reference=False, slice_size=slice_size)
    oracle = _observed(params, reference=True, slice_size=slice_size)
    for key in ("trace", "probes", "frames", "ups", "log"):
        assert deferred[key] == oracle[key], key


def test_twin_fleet_exercises_ties_crashes_and_joins():
    # A fixed example, so the suite is known to reach what it quantifies
    # over: same-time arrivals, commits on the crash path, neighbour-up.
    params = {
        "seed": 5,
        "spots": [(0.0, 0.0), (60.0, 10.0), (-40.0, 80.0)],
        "twinned": {0, 1},
        "beacon_period": 0.35,
        "lifetime": 1.0,
        "crashes": [(1.2, 0, 0.8), (2.0, 3, 0.4)],
        "bursts": [(0.5, 0.5, 0.5)],
        "extra_broadcasts": [(4, [0, 1]), (12, [2, 3, 4])],
        "transfers": [(1.0, 0, 4)],
        "probes": [(0.9, 1), (1.7, 2), (3.1, 0)],
    }
    deferred = _observed(params, reference=False, slice_size=7)
    oracle = _observed(params, reference=True, slice_size=7)
    assert deferred == oracle
    times = [frame[0] for frame in deferred["frames"]]
    assert len(set(times)) < len(times)  # some arrivals tie in time
    assert deferred["ups"] and deferred["probes"]
