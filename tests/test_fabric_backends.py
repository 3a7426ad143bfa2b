"""Tests for the fabric abstraction: backend parity, topology builders,
routing edge cases, and the system-level topology selection.

The load-bearing property is *backend parity*: the same application
traffic driven over any :class:`FabricBackend` delivers the identical
payload set (same :attr:`TrafficResult.digest`), so an experiment can
swap interconnects without changing its observable results -- only the
schedule-sensitive outcomes (latency, hops, contention) may differ.
"""

import pytest

from repro import (
    MeglosSystem,
    VorxSystem,
    available_topologies,
    create_fabric,
    run_all_pairs,
    run_hot_spot,
)
from repro.fabric.base import FabricBackend
from repro.fabric.traffic import _partner_offsets
from repro.hpc.topology import (
    build_hypercube,
    build_hyperx,
    build_mesh2d,
    build_single_cluster,
)
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.snet.fabric import SNetFabric

#: Topology-independent payload digest of full all-pairs traffic
#: (64-byte messages) on the 64-endpoint incomplete hypercube
#: (16 clusters x 4 node ports).  Every backend driving the same plan
#: must reproduce it; see test_backend_parity_*.
GOLDEN_64_ALL_PAIRS_DIGEST = (
    "cfc449bbbbe3063fca4c86cc1b845b89c558c80508e980a3dde8b378c24198ed"
)

#: Schedule-sensitive fingerprint of the same run (duration, hops) --
#: the routing/arbitration golden for the 64-node hypercube.
GOLDEN_64_ALL_PAIRS_FINGERPRINT = (
    "44f12676f1a1f12c5afb41d67d3a08a2ddb11f240ec28908659757800a9f1dd3"
)


def make_fabric(topology: str, n_endpoints: int, **options) -> FabricBackend:
    sim = Simulator()
    sim.vstat.events.disable()
    return create_fabric(
        topology, sim, CostModel(), n_endpoints=n_endpoints, **options
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_available_topologies():
    assert available_topologies() == [
        "hypercube", "hyperx", "mesh", "snet", "star",
    ]


def test_create_fabric_unknown_name_lists_choices():
    with pytest.raises(ValueError, match="hypercube.*star"):
        make_fabric("torus", 8)


def test_create_fabric_returns_backends():
    for topology in available_topologies():
        backend = make_fabric(topology, 8)
        assert isinstance(backend, FabricBackend)
        assert backend.topology_name == topology
        assert len(backend.addresses) == 8


# ---------------------------------------------------------------------------
# backend parity: identical delivered payloads on every topology
# ---------------------------------------------------------------------------
def test_backend_parity_hpc_topologies():
    """Star, hypercube, HyperX and mesh deliver the same payload set."""
    results = {
        topology: run_all_pairs(make_fabric(topology, 12), size=64, partners=3)
        for topology in ("star", "hypercube", "hyperx", "mesh")
    }
    digests = {r.digest for r in results.values()}
    assert len(digests) == 1
    for result in results.values():
        assert result.delivered == result.sent == 12 * 3
        assert result.payload_bytes == 12 * 3 * 64


def test_backend_parity_star_vs_snet():
    """The bus delivers what the star delivers (within the bus's 13-
    endpoint reach) -- software recovery loses nothing."""
    star = run_all_pairs(make_fabric("star", 8), size=64, partners=3)
    snet = run_all_pairs(make_fabric("snet", 8), size=64, partners=3)
    assert star.digest == snet.digest
    assert star.delivered == snet.delivered == 8 * 3
    # Schedules differ: a bus serialises, the star does not.
    assert snet.duration_us > star.duration_us


def test_all_pairs_golden_64_node_hypercube():
    result = run_all_pairs(make_fabric("hypercube", 64), size=64)
    assert result.delivered == result.sent == 64 * 63
    assert result.digest == GOLDEN_64_ALL_PAIRS_DIGEST
    assert result.fingerprint() == GOLDEN_64_ALL_PAIRS_FINGERPRINT
    # 16 clusters, 4-dim incomplete hypercube: 2 interface hops + at
    # most 4 cluster-to-cluster hops.
    assert result.max_hops == 6


@pytest.mark.parametrize("topology, avg_hops, max_hops, stalls, stall_us", [
    ("hyperx", 3.004, 4, 784, 7920.0),
    ("mesh", 7.482, 32, 2126, 140040.0),
], ids=["hyperx", "mesh"])
def test_1024_endpoint_topology_comparison(
    topology, avg_hops, max_hops, stalls, stall_us
):
    """The README's 1024-endpoint comparison (4 partners, 64-byte
    messages); the hypercube side is test_determinism's golden."""
    fabric = make_fabric(topology, 1024)
    result = run_all_pairs(fabric, size=64, partners=4)
    assert result.delivered == result.sent == 4096
    assert round(result.avg_hops, 3) == avg_hops
    assert result.max_hops == max_hops
    contention = fabric.contention()
    assert contention["reserve_stalls"] == stalls
    assert contention["reserve_stall_us"] == stall_us


# ---------------------------------------------------------------------------
# incomplete hypercube edge cases
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n_clusters", [1, 2, 3, 5, 6, 7, 9, 11, 13, 17])
def test_incomplete_hypercube_fully_connected(n_clusters):
    """Non-power-of-two cluster counts stay fully connected: every
    endpoint pair routes (contiguous vertex sets of a hypercube are
    connected through the cleared-top-bit parent)."""
    sim = Simulator()
    fabric = build_hypercube(sim, CostModel(), n_clusters, nodes_per_cluster=2)
    addresses = fabric.addresses
    assert len(addresses) == 2 * n_clusters
    for src in addresses:
        for dst in addresses:
            assert fabric.reachable(src, dst)
            hops = fabric.route_hops(src, dst)
            assert (hops == 0) == (src == dst)


def test_incomplete_hypercube_traffic_delivers():
    for n_clusters in (5, 11):
        fabric = make_fabric(
            "hypercube", 2 * n_clusters, nodes_per_cluster=2
        )
        result = run_all_pairs(fabric, size=32)
        assert result.delivered == result.sent


def test_endpoint_capacity_error_is_actionable():
    sim = Simulator()
    with pytest.raises(ValueError, match=r"8 endpoint slots"):
        build_hypercube(
            sim, CostModel(), n_clusters=4, nodes_per_cluster=2, n_endpoints=9
        )


def test_create_fabric_hypercube_sizes_cluster_count():
    fabric = make_fabric("hypercube", 1024)
    assert len(fabric.clusters) == 256
    assert len(fabric.addresses) == 1024
    stats = fabric.stats()
    assert stats["endpoints"] == 1024
    assert stats["unattached_interfaces"] == 0


# ---------------------------------------------------------------------------
# unattached-interface diagnostics (the new_interface drift fix)
# ---------------------------------------------------------------------------
def test_unattached_interface_diagnostic():
    sim = Simulator()
    fabric = build_single_cluster(sim, CostModel(), 4)
    stray = fabric.new_interface("stray")
    with pytest.raises(ValueError, match="never attached"):
        fabric.reachable(stray.address, 0)
    with pytest.raises(ValueError, match="never attached"):
        fabric.route_hops(0, stray.address)
    assert fabric.stats()["unattached_interfaces"] == 1
    # Attached endpoints are untouched by the stray interface.
    assert stray.address not in fabric.addresses
    assert fabric.reachable(0, 1)


def test_unknown_address_diagnostic():
    fabric = make_fabric("star", 4)
    with pytest.raises(ValueError, match="no interface at address 99"):
        fabric.route_hops(0, 99)


# ---------------------------------------------------------------------------
# HyperX and mesh specifics
# ---------------------------------------------------------------------------
def test_hyperx_diameter_is_two_cluster_hops():
    """HyperX: every dimension fully connected, so any pair of clusters
    is at most 2 cluster hops apart (one per dimension)."""
    sim = Simulator()
    fabric = build_hyperx(sim, CostModel(), (3, 3), nodes_per_cluster=2)
    for src in fabric.addresses:
        for dst in fabric.addresses:
            if src != dst:
                assert fabric.route_hops(src, dst) <= 2 + 2


def test_hyperx_radix_may_exceed_twelve_ports():
    """Deliberate what-if: HyperX models high-radix switches, so a big
    lattice is allowed to exceed the paper's 12-port cluster."""
    sim = Simulator()
    fabric = build_hyperx(sim, CostModel(), (6, 6), nodes_per_cluster=4)
    assert fabric.clusters[0].n_ports == 5 + 5 + 4
    assert len(fabric.addresses) == 144


def test_mesh_route_hops_are_manhattan():
    sim = Simulator()
    fabric = build_mesh2d(sim, CostModel(), (4, 4), nodes_per_cluster=2)
    # Endpoints are attached cluster-major: addresses 0,1 on cluster 0
    # (corner (0,0)) and the last two on cluster 15 (corner (3,3)).
    corner_a, corner_b = fabric.addresses[0], fabric.addresses[-1]
    assert fabric.route_hops(corner_a, corner_b) == 2 + 6  # iface + 3+3
    same_cluster = fabric.addresses[1]
    assert fabric.route_hops(corner_a, same_cluster) == 2


def test_mesh_rejects_too_many_node_ports():
    sim = Simulator()
    with pytest.raises(ValueError, match="node ports exceed"):
        build_mesh2d(sim, CostModel(), (2, 2), nodes_per_cluster=9)


# ---------------------------------------------------------------------------
# contention surfaces: hardware credits vs software recovery
# ---------------------------------------------------------------------------
def test_hot_spot_hardware_credits_stall_senders():
    hpc = make_fabric("hypercube", 16)
    hpc_result = run_hot_spot(hpc, size=256, messages_per_sender=4)
    hpc_contention = hpc.contention()
    assert hpc_contention["mode"] == "hardware-credits"
    assert hpc_contention["reserve_stalls"] > 0
    assert hpc_contention["rejections"] == 0
    assert hpc_result.delivered == hpc_result.sent


def test_snet_software_recovery_retransmits_after_overflow():
    """Fifo overflows turn into busy-retransmission, not lost messages.

    The idealised receive drain frees fifo space at the delivery
    instant, so overflow needs the fault injector's forced-overflow
    hook (the fifo full "at the instant of arrival", Section 2); the
    send loop must then recover every message by retransmitting, and
    the drain must read-and-discard every retained partial prefix.
    """
    from repro.faults import FaultPlan
    from repro.faults.injector import FaultInjector

    snet = make_fabric("snet", 8)
    snet.sim.faults = FaultInjector(
        snet.sim, FaultPlan(seed=3, force_fifo_overflow=0.2)
    )
    result = run_hot_spot(snet, size=256, messages_per_sender=4)
    contention = snet.contention()
    assert contention["mode"] == "software-recovery"
    assert contention["reserve_stalls"] == 0
    assert contention["rejections"] > 0
    assert contention["retries"] >= contention["rejections"]
    assert contention["partials_discarded"] > 0
    assert result.delivered == result.sent == 7 * 4


def test_contention_keys_are_uniform():
    required = {
        "mode", "reserve_stalls", "reserve_stall_us", "rejections", "retries",
    }
    for topology in available_topologies():
        assert required <= set(make_fabric(topology, 4).contention())


# ---------------------------------------------------------------------------
# S/NET backend specifics
# ---------------------------------------------------------------------------
def test_snet_fabric_endpoint_bounds():
    sim = Simulator()
    with pytest.raises(ValueError, match="2..13"):
        SNetFabric(sim, CostModel(), n_endpoints=14)
    with pytest.raises(ValueError, match="2..13"):
        SNetFabric(sim, CostModel(), n_endpoints=1)


def test_snet_route_hops_is_one_bus_tenure():
    fabric = make_fabric("snet", 4)
    assert fabric.route_hops(0, 3) == 1
    assert fabric.route_hops(2, 2) == 0


def test_snet_oversized_message_refused_not_livelocked():
    """A message larger than the whole fifo would be rejected on every
    retransmission forever; send() must refuse it up front."""
    from repro.hpc.message import MessageKind, Packet

    fabric = make_fabric("snet", 2)
    big = Packet(src=0, dst=1, size=2048, kind=MessageKind.USER_OBJECT)
    with pytest.raises(ValueError, match="never fit"):
        fabric.sim.process(fabric.send(0, big))
        fabric.sim.run()


# ---------------------------------------------------------------------------
# traffic drivers
# ---------------------------------------------------------------------------
def test_partner_offsets_spread_and_bound():
    offsets = _partner_offsets(1024, 4)
    assert len(offsets) == 4
    assert len(set(offsets)) == 4
    assert 0 not in offsets
    # Small n degenerates to full all-pairs.
    assert _partner_offsets(4, 10) == [1, 2, 3]


def test_all_pairs_needs_two_endpoints():
    fabric = make_fabric("star", 2)
    run_all_pairs(fabric, size=8)  # fine
    with pytest.raises(ValueError, match="at least 2"):
        run_all_pairs(make_single_endpoint_stub(), size=8)


def make_single_endpoint_stub():
    class Stub(FabricBackend):
        sim = None
        costs = None
        addresses = [0]

        def iface(self, address):  # pragma: no cover - never called
            raise NotImplementedError

        def reachable(self, src, dst):  # pragma: no cover
            return True

        def route_hops(self, src, dst):  # pragma: no cover
            return 0

        def send(self, src, packet):  # pragma: no cover
            yield

        def recv(self, address):  # pragma: no cover
            yield

        def stats(self):  # pragma: no cover
            return {}

        def contention(self):  # pragma: no cover
            return {}

    return Stub()


# ---------------------------------------------------------------------------
# system-level topology selection
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topology", ["star", "hypercube", "hyperx", "mesh"])
def test_vorx_system_selects_topology(topology):
    system = VorxSystem(n_nodes=4, topology=topology)
    assert system.topology == topology

    def sender(env):
        with (yield from env.channel("t")) as ch:
            yield from env.write(ch, 64, payload="ping")

    def receiver(env):
        with (yield from env.channel("t")) as ch:
            _, payload = yield from env.read(ch)
        return payload

    system.spawn(0, sender)
    rx = system.spawn(3, receiver)
    system.run()
    assert rx.result == "ping"


def test_vorx_system_default_topology_unchanged():
    system = VorxSystem(n_nodes=4)
    assert system.topology in ("star", "hypercube")


def test_vorx_system_rejects_snet():
    with pytest.raises(ValueError, match="MeglosSystem"):
        VorxSystem(n_nodes=4, topology="snet")


def test_meglos_system_rejects_hpc_fabrics():
    with pytest.raises(ValueError, match="VorxSystem"):
        MeglosSystem(4, fabric="hypercube")


def test_meglos_system_runs_on_snet_backend():
    system = MeglosSystem(4)
    assert system.bus is system.fabric.bus
    assert system.fabric.topology_name == "snet"
