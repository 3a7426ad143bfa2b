"""The fabric hop path: links, cluster forwarders and shard boundaries.

Links and cluster forwarders run as event callbacks, not generator
processes.  These tests pin what that must not change and what it must
still report:

* a fault golden on hypercube/64 covering every ``Link`` fault branch
  (NIC stall, crash drop, drop, corrupt, delay, duplicate, brownout),
  recorded with generator-process links, so it pins the callbacks'
  equivalence to them;
* errors raised inside a hop (a route over an unwired port, a delivery
  without reservation) still surface from ``Simulator.run()``;
* a ``NO_ROUTE`` byte in a route table reads as no route to every
  reader (``reachable``, ``route_hops``, ``route_port``, a sent
  packet), and a cluster has no more ports than a route byte can name;
* ``run()`` and repeated ``step()`` reach callbacks by different code
  and must give the same schedule;
* finished processes leave no reference cycles behind;
* the standing handles of links and forwarders share a port's credit
  pool and queue with generator code in FIFO order, a duplicated
  message notifies its sender once, and a hop builds no event but the
  sender's ``done``.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import FaultPlan, create_fabric, run_all_pairs
from repro.fabric.partition import (
    TopologySpec,
    build_shard_fabric,
    partition_spec,
)
from repro.hpc import (
    BufferedInput, Cluster, Fabric, Link, MessageKind, Packet,
)
from repro.hpc.cluster import NO_ROUTE
from repro.model.costs import CostModel
from repro.sim import Event, Handle, Process, Simulator
from repro.sim.engine import EmptySchedule

from tests.test_determinism import fingerprint

#: :func:`fingerprint` of :func:`run_link_faults`, recorded with
#: generator-process links: the callback hop path must reproduce it.
GOLDEN_LINK_FAULTS = (
    "dc678ad13aaf2b83aac9a2fad15e030d345d316827a4b18d0d489ff0c9096ed0"
)

#: The plan behind :data:`GOLDEN_LINK_FAULTS`: every fault branch of
#: ``Link`` fires at least once on hypercube/64.
LINK_FAULT_PLAN = dict(
    seed=15,
    drop=0.04,
    corrupt=0.04,
    delay=0.08,
    duplicate=0.04,
    delay_us=(5.0, 40.0),
    kinds=("user-object",),
    nic_stalls=[("c0.p*", 20.0, 60.0), ("node5.*", 0.0, 45.0)],
    link_brownouts=[("c1.*", 10.0, 300.0, 3.0)],
    node_crashes={13: 40.0},
)


def make_fabric(n_endpoints=64):
    sim = Simulator()
    fabric = create_fabric(
        "hypercube", sim, CostModel(), n_endpoints=n_endpoints
    )
    return sim, fabric


def run_link_faults():
    sim, fabric = make_fabric()
    FaultPlan(**LINK_FAULT_PLAN).attach(fabric)
    result = run_all_pairs(fabric, size=64, partners=8)
    return sim, result


def test_link_fault_plan_hits_every_branch():
    sim, result = run_link_faults()
    counters = sim.vstat.registry("faults").snapshot()["counters"]
    for name in (
        "faults.nic_stalls", "faults.crash_drops", "faults.brownouts",
    ):
        assert counters[name] > 0, name
    by_kind = {
        key: value for key, value in counters.items()
        if key.startswith("faults.injected_by_kind")
    }
    for kind in ("drop", "corrupt", "delay", "duplicate"):
        assert any(kind in key for key in by_kind), (kind, by_kind)
    assert result.delivered < result.sent


def test_link_fault_golden():
    sim, _result = run_link_faults()
    assert fingerprint(sim) == GOLDEN_LINK_FAULTS


def test_fabric_hop_path_spawns_no_processes():
    sim, fabric = make_fabric()
    spec = TopologySpec.of(fabric)
    shard = build_shard_fabric(
        sim, fabric.costs, spec, partition_spec(spec, 4, fabric.costs), 1
    )
    shard.inject(3.0, shard.local_clusters[0], 0, Packet(
        src=0, dst=9, size=64, kind=MessageKind.USER_OBJECT,
    ))
    assert shard.boundary_out
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, Process) and obj.sim is sim
    ]


# ---------------------------------------------------------------------------
# errors raised inside a hop surface from run()
# ---------------------------------------------------------------------------
def send_one(sim, fabric, src, dst):
    def sender():
        yield from fabric.send(src, Packet(
            src=src, dst=dst, size=64, kind=MessageKind.USER_OBJECT,
        ))

    sim.process(sender())


def unwired_route():
    """A fabric whose first-hop cluster routes ``0 -> 9`` over a port
    with no link attached."""
    sim, fabric = make_fabric()
    cluster = fabric.home_cluster(0)
    unwired = [
        port for port, link in enumerate(cluster.out_links) if link is None
    ]
    cluster.routing[9] = unwired[0]
    send_one(sim, fabric, 0, 9)
    return sim


def unreserved_delivery():
    """A fabric whose endpoint 9 has every rx buffer filled behind the
    credits' back, so the last hop's delivery finds no room."""
    sim, fabric = make_fabric()
    rx = fabric.iface(9).rx
    for _ in range(rx.capacity):
        rx.deliver(Packet(src=1, dst=9, size=8, kind=MessageKind.USER_OBJECT))
    send_one(sim, fabric, 0, 9)
    return sim


def run_by_steps(sim):
    while True:
        try:
            sim.step()
        except EmptySchedule:
            return


@pytest.mark.parametrize("drive", [Simulator.run, run_by_steps])
def test_route_over_unwired_port_raises(drive):
    with pytest.raises(RuntimeError, match="unwired port"):
        drive(unwired_route())


@pytest.mark.parametrize("drive", [Simulator.run, run_by_steps])
def test_delivery_without_reservation_raises(drive):
    with pytest.raises(RuntimeError, match="delivery without reservation"):
        drive(unreserved_delivery())


def test_route_to_unknown_address_raises():
    sim, fabric = make_fabric()
    fabric.home_cluster(0).routing[9] = NO_ROUTE
    send_one(sim, fabric, 0, 9)
    with pytest.raises(KeyError, match="no route to address 9"):
        sim.run()


@pytest.mark.parametrize("dst", [-1, -3, 10**6])
def test_route_to_out_of_range_address_raises(dst):
    # The dense route table is a byte array: a negative address must not
    # wrap round to the last entries, nor a large one escape as
    # IndexError.
    sim, fabric = make_fabric()
    cluster = fabric.home_cluster(0)
    message = f"cluster {cluster.cluster_id} has no route to address {dst}"
    with pytest.raises(KeyError, match=message):
        cluster.route_port(dst)
    send_one(sim, fabric, 0, dst)
    with pytest.raises(KeyError, match=message):
        sim.run()


def disconnected_fabric():
    """Two clusters with one endpoint each and no wire between them."""
    sim = Simulator()
    fabric = Fabric(sim, CostModel())
    for _ in range(2):
        cluster = fabric.add_cluster()
        fabric.attach(cluster, 0, fabric.new_interface())
    fabric.build_routes()
    return sim, fabric


def test_disconnected_clusters_have_no_route():
    sim, fabric = disconnected_fabric()
    cluster = fabric.home_cluster(0)
    assert bytes(cluster.routing) == bytes([0, NO_ROUTE])
    assert fabric.reachable(0, 0)
    assert not fabric.reachable(0, 1)
    with pytest.raises(ValueError, match="no route from address 0"):
        fabric.route_hops(0, 1)
    message = f"cluster {cluster.cluster_id} has no route to address 1"
    with pytest.raises(KeyError, match=message):
        cluster.route_port(1)
    send_one(sim, fabric, 0, 1)
    with pytest.raises(KeyError, match=message):
        sim.run()


def test_cluster_port_count_fits_a_route_byte():
    assert Cluster(Simulator(), CostModel(), 0, n_ports=NO_ROUTE).n_ports == 255
    with pytest.raises(ValueError, match="at most 255 ports, got 256"):
        Cluster(Simulator(), CostModel(), 0, n_ports=256)


# ---------------------------------------------------------------------------
# run() and step() reach callbacks by different code: same schedule
# ---------------------------------------------------------------------------
class SteppedSimulator(Simulator):
    """A simulator whose ``run()`` is a loop of ``step()`` calls."""

    def run(self, until=None):
        assert until is None
        run_by_steps(self)


@pytest.mark.parametrize("faults", [False, True])
def test_step_and_run_give_the_same_schedule(faults):
    prints = []
    for sim in (Simulator(), SteppedSimulator()):
        fabric = create_fabric("hypercube", sim, CostModel(), n_endpoints=32)
        if faults:
            FaultPlan(**LINK_FAULT_PLAN).attach(fabric)
        result = run_all_pairs(fabric, size=64, partners=4)
        prints.append((fingerprint(sim), sim.processed, result.fingerprint()))
    assert prints[0] == prints[1]


@pytest.mark.parametrize("drive", [Simulator.run, run_by_steps])
def test_undefused_failure_raises_from_both_drivers(drive):
    sim = Simulator()
    sim.event().fail(ValueError("nobody waits for this"))
    with pytest.raises(ValueError, match="nobody waits"):
        drive(sim)


# ---------------------------------------------------------------------------
# finished processes are freed by reference counting
# ---------------------------------------------------------------------------
def test_fabric_workload_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    # Hold every object that already exists, so only the workload's own
    # objects can turn into garbage (other tests' leftovers may lose
    # their last reference on a background thread meanwhile).
    existing = gc.get_objects()
    try:
        sim, fabric = make_fabric()
        result = run_all_pairs(fabric, size=64, partners=8)
        found = gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        del existing
        gc.enable()
    assert result.delivered == result.sent == 512
    assert found == 0, sorted(set(garbage))


# ---------------------------------------------------------------------------
# standing handles and generator waiters share one port
# ---------------------------------------------------------------------------
def user_packet(src, dst=1, size=64):
    return Packet(src=src, dst=dst, size=size, kind=MessageKind.USER_OBJECT)


def test_mixed_credit_waiters_are_granted_in_fifo_order():
    """Two links' parked handles and two ``reserve()`` events wait on
    one credit pool, interleaved; each free grants the oldest waiter."""
    sim = Simulator()
    costs = CostModel()
    port = BufferedInput(sim, 1, "port")
    links = {name: Link(sim, costs, port, name) for name in ("a", "b")}
    log = []
    port.on_deliver = lambda packet: log.append(("link", packet.src))

    def claimant(name):
        yield port.reserve()
        log.append(("reserve", name))

    sim.run()
    port.reserve()  # hold the only buffer
    links["a"].send(user_packet(src=0))
    sim.run()
    sim.process(claimant("p"))
    sim.run()
    links["b"].send(user_packet(src=2))
    sim.run()
    sim.process(claimant("q"))
    sim.run()
    waiters = port._credits._waiters
    assert [type(w) for w in waiters] == [Handle, Event, Handle, Event]

    for _ in range(4):
        ok, _packet = port.try_get()
        port.free()
        sim.run()
    assert log == [
        ("link", 0), ("reserve", "p"), ("link", 2), ("reserve", "q"),
    ]
    assert not waiters


def test_mixed_queue_getters_are_granted_in_fifo_order():
    """A forwarder's parked handle and a ``recv()``-style event wait on
    one input queue; deliveries go to them in the order they parked."""
    sim = Simulator()
    costs = CostModel()
    cluster = Cluster(sim, costs, 0, n_ports=2)
    sink = BufferedInput(sim, 4, "sink")
    forwarded = []
    sink.on_deliver = lambda packet: forwarded.append(packet.src)
    cluster.out_links[1] = Link(sim, costs, sink, "c0.p1")
    cluster.routing = [1, 1]
    source = cluster.inputs[0]
    received = []

    def reader():
        packet = yield source.get()
        received.append(packet.src)

    sim.run()  # the forwarder parks first
    sim.process(reader())
    sim.run()
    getters = source._queue._getters
    assert [type(g) for g in getters] == [Handle, Event]
    for src in (5, 6, 7):
        source.reserve()
        source.deliver(user_packet(src=src))
    sim.run()
    # The forwarder took the first message, the reader the second, and
    # the forwarder, parked again, the third.
    assert forwarded == [5, 7]
    assert received == [6]


def test_duplicated_message_notifies_its_sender_once():
    sim = Simulator()
    costs = CostModel()
    FaultPlan(seed=1, duplicate=1.0, kinds=("user-object",)).attach(
        SimpleNamespace(sim=sim, fabric=None)
    )
    port = BufferedInput(sim, 1, "port")
    link = Link(sim, costs, port, "wire")
    arrived = []
    notices = []

    def consumer():
        while True:
            arrived.append((yield port.get()))
            port.free()

    sim.process(consumer())
    sent = user_packet(src=0)
    link.send(sent).callbacks.append(lambda _event: notices.append(sim.now))
    sim.run()
    assert len(notices) == 1
    assert len(arrived) == 2
    assert arrived[0] is sent and arrived[1] is not sent
    assert {packet.seq for packet in arrived} == {sent.seq}
    assert [packet.hops for packet in arrived] == [1, 1]
    assert link.messages_carried == 2


#: Sends one message 0 -> 15 across idle hypercube/16 with
#: ``Event.__new__`` patched to count, and prints the count and the hops.
#: It runs in a fresh interpreter: CPython cannot put back a type's
#: inherited ``__new__`` slot once it has been assigned.
COUNT_HOP_EVENTS = """
import json
from repro import create_fabric
from repro.hpc import MessageKind, Packet
from repro.model.costs import CostModel
from repro.sim import Event, Simulator
from repro.sim import resources

sim = Simulator()
fabric = create_fabric("hypercube", sim, CostModel(), n_endpoints=16)
sim.run()  # every link and forwarder parked
created = []

def counting_new(cls, *args, **kwargs):
    created.append(cls.__name__)
    return object.__new__(cls)

Event.__new__ = counting_new
resources._new_event = counting_new
packet = Packet(src=0, dst=15, size=64, kind=MessageKind.USER_OBJECT)
fabric.iface(0).send(packet)
sim.run()
print(json.dumps({"created": created, "hops": packet.hops,
                  "pending": fabric.iface(15).rx_pending}))
"""


def test_a_hop_builds_no_event_but_the_senders_done():
    """Across k idle hops a message builds at most k events: the
    ``done`` each hop's sender waits on.  The request, credit, wire and
    forwarder waits ride standing handles."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", COUNT_HOP_EVENTS], env=env,
        capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["pending"] == 1
    assert result["hops"] >= 3
    assert 0 < len(result["created"]) <= result["hops"]
