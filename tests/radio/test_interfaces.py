"""Tests for the radio environment and interfaces."""

import pytest

from repro.geometry.vector import Vec2
from repro.mesh.messages import BEACON_SIZE_BYTES
from repro.mesh.node import MeshNode
from repro.mobility.waypoints import StaticNode
from repro.radio.interfaces import RadioEnvironment
from repro.radio.link import LinkBudget
from repro.simcore.simulator import Simulator
from tests.oracle import ReferenceRadioEnvironment, in_fire_order


def make_env(positions, **kwargs):
    sim = Simulator(seed=1)
    env = RadioEnvironment(sim, LinkBudget(), **kwargs)
    interfaces = {}
    for name, pos in positions.items():
        interfaces[name] = env.attach(name, lambda p=pos: p)
    return sim, env, interfaces


def link(env, src, dst):
    """Scalar link quality between two attached nodes' current positions."""
    return env.link_budget.quality(
        env.interface_of(src).position, env.interface_of(dst).position, env.visibility
    )


def test_unicast_delivery_in_range():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    received = []
    ifaces["b"].on_unicast(lambda frame, *arrival: received.append(frame.payload))
    ifaces["a"].send("hello", size_bytes=100, destination="b")
    sim.run(until=1.0)
    assert received == ["hello"]
    assert ifaces["a"].bytes_sent == 100
    assert ifaces["b"].bytes_received == 100


def test_broadcast_reaches_all_in_range_only():
    sim, env, ifaces = make_env(
        {"a": Vec2(0, 0), "near": Vec2(40, 0), "far": Vec2(5000, 0)}
    )
    got = {"near": [], "far": []}
    ifaces["near"].on_broadcast(lambda f, *arrival: got["near"].append(f.payload))
    ifaces["far"].on_broadcast(lambda f, *arrival: got["far"].append(f.payload))
    ifaces["a"].send("ping", size_bytes=50, destination=None)
    sim.run(until=1.0)
    assert got["near"] == ["ping"]
    assert got["far"] == []
    assert sim.monitor.counter_value("radio.frames_out_of_range") >= 1


def test_delivery_has_positive_latency_scaling_with_size():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    times = []
    ifaces["b"].on_unicast(lambda f, *arrival: times.append(sim.now))
    ifaces["a"].send("small", size_bytes=100, destination="b")
    ifaces["a"].send("large", size_bytes=1_000_000, destination="b")
    sim.run(until=10.0)
    assert len(times) == 2
    small_time, large_time = times[0], times[1]
    assert small_time > 0.0
    assert large_time > small_time


def test_disabled_interface_neither_sends_nor_receives():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(30, 0)})
    received = []
    ifaces["b"].on_unicast(lambda f, *arrival: received.append(f))
    ifaces["b"].enabled = False
    ifaces["a"].send("x", 10, destination="b")
    sim.run(until=1.0)
    assert received == []
    ifaces["a"].enabled = False
    before = ifaces["a"].bytes_sent
    ifaces["a"].send("y", 10, destination="b")
    assert ifaces["a"].bytes_sent == before


def test_broadcast_handlers_run_at_commit_with_the_arrival_time():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    seen = []
    ifaces["b"].on_broadcast(
        lambda frame, time, sequence, snr_db, rate_bps: seen.append(
            (frame.payload, time, sim.now, snr_db)
        )
    )
    sim.schedule_at(1.0, lambda: ifaces["a"].send("x", 300))
    sim.schedule_at(1.5, lambda: None)
    sim.run(until=2.0)
    [(payload, time, committed_at, snr_db)] = seen
    # Applied at the end of the step (the clock stood at the last event),
    # with the time the frame arrived.
    assert payload == "x" and 1.0 < time < committed_at == 1.5
    assert snr_db == link(env, "a", "b").snr_db
    assert ifaces["b"].frames_received == 1 and ifaces["b"].bytes_received == 300


def test_broadcast_handlers_run_sealed():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    ifaces["b"].on_broadcast(lambda *arrival: sim.schedule(0.1, lambda: None))
    sim.schedule_at(1.0, lambda: ifaces["a"].send("x", 300))
    with pytest.raises(RuntimeError, match="sealed"):
        sim.run(until=2.0)
    sim.schedule(0.1, lambda: None)  # the seal is lifted again


def test_disable_applies_earlier_arrivals_and_drops_later_ones():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(50, 0)})
    seen = []
    ifaces["b"].on_broadcast(lambda frame, *rest: seen.append(frame.payload))
    sim.schedule_at(1.0, lambda: ifaces["a"].send("before", 300))
    sim.schedule_at(2.0, lambda: ifaces["a"].send("after", 300))
    # Between the second frame's send and its arrival.
    sim.schedule_at(2.0 + 1e-6, lambda: setattr(ifaces["b"], "enabled", False))
    sim.run(until=3.0)
    assert seen == ["before"] and ifaces["b"].frames_received == 1
    # Frames are counted delivered on arrival, so the dropped one is not.
    assert sim.monitor.counter_value("radio.frames_delivered") == 1


@pytest.mark.parametrize("fast_math", [False, True], ids=["exact", "statistical"])
def test_delivered_counter_skips_a_beacon_whose_receiver_crashed_in_flight(fast_math):
    sim = Simulator(seed=4)
    env = RadioEnvironment(sim, LinkBudget(fast_math=fast_math))
    nodes = {
        name: MeshNode(sim, env, StaticNode(sim, Vec2(x, 0.0), name=name))
        for name, x in (("a", 0.0), ("b", 80.0), ("c", 40.0))
    }
    taps = []
    for name, node in nodes.items():
        node.on_frame(lambda frame, *arrival, name=name: taps.append((name, frame.frame_id)))
    sent = []

    def beacon_then_crash():
        agent = nodes["a"].beacon_agent
        sent.append(agent.interface.send(agent.build_beacon(), BEACON_SIZE_BYTES, kind="beacon"))
        nodes["b"].shutdown()  # the beacon is still in flight to b

    sim.schedule_at(1.0, beacon_then_crash)
    sim.run(until=3.0)
    assert ("c", sent[0].frame_id) in taps and ("b", sent[0].frame_id) not in taps
    assert sim.monitor.counter_value("radio.frames_delivered") == len(taps)
    assert sim.monitor.counter_value("radio.bytes.beacon") == len(taps) * BEACON_SIZE_BYTES


def test_nodes_in_range_and_link_quality():
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(60, 0), "c": Vec2(4000, 0)})
    assert set(env.nodes_in_range("a")) == {"b"}
    assert link(env, "a", "b").usable
    assert not link(env, "a", "c").usable


def test_duplicate_attach_rejected_and_detach():
    sim, env, ifaces = make_env({"a": Vec2(0, 0)})
    with pytest.raises(ValueError):
        env.attach("a", lambda: Vec2(0, 0))
    env.detach("a")
    assert env.node_names == []


def test_unbound_environment_tracks_manually_moved_nodes():
    # Without a bound MobilityManager the environment flushes its per-epoch
    # caches whenever the clock advances, so position changes between
    # events are still observed.
    sim = Simulator(seed=3)
    env = RadioEnvironment(sim, LinkBudget())
    position = {"b": Vec2(5000, 0)}
    env.attach("a", lambda: Vec2(0, 0))
    b = env.attach("b", lambda: position["b"])
    received = []
    b.on_broadcast(lambda f, *arrival: received.append(f.payload))
    env.interface_of("a").send("one", 50, destination=None)
    sim.run(until=1.0)
    assert received == []  # out of range
    position["b"] = Vec2(50, 0)  # node "moves" into range
    env.interface_of("a").send("two", 50, destination=None)
    sim.run(until=2.0)
    assert received == ["two"]
    assert env.nodes_in_range("a") == ["b"]


def test_manual_move_at_same_timestamp_visible_after_notify_moved():
    # Regression: the unbound environment refreshes per event *time*, so a
    # manual position write at the current timestamp used to be seen one
    # event late.  notify_moved() is the explicit dirty-mark that makes it
    # visible immediately.
    sim = Simulator(seed=3)
    env = RadioEnvironment(sim, LinkBudget())
    position = {"b": Vec2(5000, 0)}
    env.attach("a", lambda: Vec2(0, 0))
    b = env.attach("b", lambda: position["b"])
    assert env.nodes_in_range("a") == []   # primes the per-epoch caches at t=0
    position["b"] = Vec2(50, 0)            # manual move, clock has not advanced
    assert env.nodes_in_range("a") == []   # stale without a dirty-mark (old bug)
    b.notify_moved()
    assert env.nodes_in_range("a") == ["b"]
    assert link(env, "a", "b").usable
    received = []
    b.on_broadcast(lambda f, *arrival: received.append(f.payload))
    env.interface_of("a").send("now", 50, destination=None)
    sim.run(until=1.0)
    assert received == ["now"]


def test_same_timestamp_move_matches_substrate_bound_path():
    # The substrate-bound regime sees a committed same-timestamp move
    # immediately (the substrate's epoch bump is the dirty-mark); after
    # notify_moved() the unbound regime must agree with it.
    from repro.mobility.manager import MobilityManager
    from repro.mobility.waypoints import StaticNode

    def in_range_after_move(bound: bool):
        sim = Simulator(seed=17)
        if bound:
            mobility = MobilityManager(sim, tick=0.1)
            env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
            mover = StaticNode(sim, Vec2(5000, 0), name="b")
            mobility.add_node(mover)
            env.attach("a", lambda: Vec2(0, 0))
            env.attach("b", lambda: mover.position)
            assert env.nodes_in_range("a") == []
            mover.position = Vec2(50, 0)
            mobility.substrate.commit()
        else:
            env = RadioEnvironment(sim, LinkBudget())
            position = {"b": Vec2(5000, 0)}
            env.attach("a", lambda: Vec2(0, 0))
            b = env.attach("b", lambda: position["b"])
            assert env.nodes_in_range("a") == []
            position["b"] = Vec2(50, 0)
            b.notify_moved()
        return env.nodes_in_range("a")

    assert in_range_after_move(bound=True) == in_range_after_move(bound=False) == ["b"]


def test_spatial_and_bruteforce_paths_agree():
    positions = {
        "a": Vec2(0, 0),
        "b": Vec2(40, 0),
        "c": Vec2(150, 100),
        "d": Vec2(4000, 0),
        "e": Vec2(260, 10),
    }
    logs = []
    for full_scan in (False, True):
        sim = Simulator(seed=11)
        if full_scan:
            env = ReferenceRadioEnvironment(sim, LinkBudget(), full_scan=True)
        else:
            env = RadioEnvironment(sim, LinkBudget())
        assert env.use_spatial_index is not full_scan
        ifaces = {n: env.attach(n, lambda p=p: p) for n, p in positions.items()}
        log = []
        for name, iface in ifaces.items():
            iface.on_broadcast(
                lambda f, time, sequence, snr, rate, name=name: log.append(
                    (time, sequence, f.sender, name)
                )
            )
        for _ in range(20):
            ifaces["a"].send("x", 200, destination=None)
            ifaces["e"].send("y", 200, destination=None)
        sim.run(until=5.0)
        log = in_fire_order(log)
        log.append(
            tuple(
                sim.monitor.counter_value(c)
                for c in (
                    "radio.frames_delivered",
                    "radio.frames_lost",
                    "radio.frames_out_of_range",
                )
            )
        )
        logs.append(log)
    assert logs[0] == logs[1]


def test_mobility_bound_environment_invalidates_on_tick():
    from repro.mobility.manager import MobilityManager
    from repro.mobility.vehicle import Vehicle

    sim = Simulator(seed=5)
    mobility = MobilityManager(sim, tick=0.1)
    env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    # Vehicle drives away from a static node and out of range.
    vehicle = Vehicle(
        sim, [Vec2(0, 0), Vec2(10000, 0)], name="veh", initial_speed=100.0
    )
    mobility.add_node(vehicle)
    env.attach("veh", lambda: vehicle.position)
    env.attach("rsu", lambda: Vec2(0, 0))
    sim.run(until=0.5)
    assert env.nodes_in_range("rsu") == ["veh"]
    sim.run(until=60.0)
    # Mobility ticks advanced the substrate's position epoch, so the
    # per-epoch caches did not go stale.
    assert env.nodes_in_range("rsu") == []
    assert not link(env, "rsu", "veh").usable


def test_substrate_bound_environment_keeps_no_mirror():
    from repro.mobility.manager import MobilityManager
    from repro.mobility.waypoints import StaticNode

    sim = Simulator(seed=9)
    mobility = MobilityManager(sim, tick=0.1)
    env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    for index, x in enumerate((0.0, 40.0, 9000.0)):
        node = StaticNode(sim, Vec2(x, 0), name=f"s{index}")
        mobility.add_node(node)
        env.attach(node.name, lambda node=node: node.position)
    received = []
    env.interface_of("s1").on_broadcast(lambda f, *arrival: received.append(f.payload))
    env.interface_of("s0").send("hi", 50, destination=None)
    sim.run(until=1.0)
    assert received == ["hi"]
    assert env.nodes_in_range("s0") == ["s1"]


def test_substrate_bound_environment_still_reaches_overlay_interfaces():
    # An RSU attached to the radio but never registered with the mobility
    # manager is read into the epoch universe like every other interface,
    # so it is reachable both ways exactly like a substrate-tracked node.
    from repro.mobility.manager import MobilityManager
    from repro.mobility.vehicle import Vehicle

    sim = Simulator(seed=13)
    mobility = MobilityManager(sim, tick=0.1)
    env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    vehicle = Vehicle(sim, [Vec2(0, 0), Vec2(10000, 0)], name="veh", initial_speed=50.0)
    mobility.add_node(vehicle)
    env.attach("veh", lambda: vehicle.position)
    env.attach("rsu", lambda: Vec2(30, 0))  # radio-only, no mobility entry
    got = []
    env.interface_of("rsu").on_broadcast(lambda f, *arrival: got.append(f.payload))
    env.interface_of("veh").send("to-rsu", 50, destination=None)
    sim.run(until=0.5)
    assert got == ["to-rsu"]
    assert "veh" in env.nodes_in_range("rsu")
    assert env.nodes_in_range("veh") == ["rsu"]
    # The vehicle drives away; the RSU drops out of its range view.
    sim.run(until=60.0)
    assert env.nodes_in_range("rsu") == []


def test_mobility_nodes_without_radio_are_not_candidates():
    # A tracked pedestrian has no radio interface: it is in the substrate
    # but must be neither a candidate nor a receiver.
    from repro.mobility.manager import MobilityManager
    from repro.mobility.waypoints import StaticNode

    sim = Simulator(seed=21)
    mobility = MobilityManager(sim, tick=0.1)
    env = RadioEnvironment(sim, LinkBudget(), mobility=mobility)
    for index, x in enumerate((0.0, 50.0)):
        node = StaticNode(sim, Vec2(x, 0), name=f"s{index}")
        mobility.add_node(node)
        env.attach(node.name, lambda node=node: node.position)
    mobility.add_node(StaticNode(sim, Vec2(10, 0), name="pedestrian"))
    env.interface_of("s0").send("hello", 50, destination=None)
    sim.run(until=1.0)
    assert env.nodes_in_range("s0") == ["s1"]
    assert sim.monitor.counter_value("radio.frames_delivered") == 1


def test_broadcast_prunes_far_receivers_but_counts_them():
    sim, env, ifaces = make_env(
        {"a": Vec2(0, 0), "n1": Vec2(30, 0), "f1": Vec2(9000, 0), "f2": Vec2(0, 9000)}
    )
    ifaces["a"].send("ping", 50, destination=None)
    sim.run(until=1.0)
    # Both pruned receivers are accounted exactly as the full scan would.
    assert sim.monitor.counter_value("radio.frames_out_of_range") == 2
    assert sim.monitor.counter_value("radio.frames_delivered") == 1


@pytest.mark.parametrize("fast_math", [False, True], ids=["exact", "statistical"])
def test_unbounded_link_budget_disables_unsound_range_pruning(fast_math):
    # With min_snr_db this low the link is usable far past effective_range's
    # 10 km scan cap, so range pruning could silently drop reachable
    # receivers; the environment must fall back to the full scan.  This is
    # the only way into both plan builders' full-scan branches.
    sim = Simulator(seed=2)
    env = RadioEnvironment(sim, LinkBudget(min_snr_db=-500.0, fast_math=fast_math))
    assert env.fast_math is fast_math
    assert env.use_spatial_index is False
    env.attach("a", lambda: Vec2(0, 0))
    env.attach("b", lambda: Vec2(20_000, 0))  # beyond the scan cap
    assert link(env, "a", "b").usable
    assert env.nodes_in_range("a") == ["b"]
    env.interface_of("a").send("far", 50, destination=None)
    sim.run(until=1.0)
    # The near-zero Shannon rate at 20 km means the frame is still in
    # flight at t=1 (delivered frames are counted on arrival), but it was
    # *not* pruned: it is in flight, not out-of-range or lost.
    assert sim.pending_events == 1
    assert sim.monitor.counter_value("radio.frames_delivered") == 0
    assert sim.monitor.counter_value("radio.frames_out_of_range") == 0
    assert sim.monitor.counter_value("radio.frames_lost") == 0


def test_lossy_link_drops_some_frames():
    # Near the edge of the usable range the PER is substantial; with many
    # frames some must be lost (and some must get through).
    sim, env, ifaces = make_env({"a": Vec2(0, 0), "b": Vec2(265, 0)})
    received = []
    ifaces["b"].on_unicast(lambda f, *arrival: received.append(f))
    for _ in range(60):
        ifaces["a"].send("x", 100, destination="b")
    sim.run(until=5.0)
    lost = sim.monitor.counter_value("radio.frames_lost")
    assert lost > 0
    assert len(received) + lost == 60
