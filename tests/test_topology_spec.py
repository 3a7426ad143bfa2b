"""The topology spec is the one source every fabric is wired from.

Each cluster builder is a pure function returning a
:class:`~repro.hpc.topology.TopologySpec`; ``create_fabric`` and the
``build_*`` helpers wire that spec with :meth:`Fabric.wire`, and a
sharded run partitions the spec without wiring anything.  These tests
pin that the live fabric reads back as the spec it was wired from,
that a hand-wired fabric routes exactly like the spec-wired one, and
that the sharded orchestrator builds no simulator and no link.
"""

import gc
import tracemalloc

import pytest

from repro import DEFAULT_COSTS, ShardedSimulator, Simulator, create_fabric
from repro.fabric.partition import TopologySpec
from repro.fabric.registry import topology_spec
from repro.hpc.link import Link
from repro.hpc.topology import (
    Fabric,
    build_hypercube,
    build_lam_system,
    hypercube_dimensions,
    hypercube_spec,
    lam_system_spec,
)

CASES = [
    pytest.param("hypercube", 44, {}, id="hypercube-incomplete"),
    pytest.param("hyperx", 36, {}, id="hyperx"),
    pytest.param("mesh", 40, {"shape": (3, 4)}, id="mesh"),
    pytest.param("star", 9, {}, id="star"),
]


@pytest.mark.parametrize("topology,n_endpoints,options", CASES)
def test_wired_fabric_reads_back_as_its_spec(topology, n_endpoints, options):
    spec = topology_spec(topology, n_endpoints, **options)
    fabric = create_fabric(
        topology, Simulator(), DEFAULT_COSTS, n_endpoints, **options
    )
    assert TopologySpec.of(fabric) == spec
    assert fabric.fault_sites() == spec.fault_sites()
    assert fabric.addresses == spec.addresses


def test_lam_system_reads_back_as_its_spec():
    spec = lam_system_spec(70, 10)
    fabric, nodes, workstations = build_lam_system(Simulator(), DEFAULT_COSTS)
    assert TopologySpec.of(fabric) == spec
    assert fabric.fault_sites() == spec.fault_sites()
    assert [fabric.iface(a).name for a in nodes] == [
        f"node{k}" for k in range(70)
    ]
    assert [fabric.iface(a).name for a in workstations] == [
        f"ws{k}" for k in range(10)
    ]


def test_hand_wired_fabric_routes_like_the_spec():
    """A fabric wired call by call (``add_cluster``,
    ``connect_clusters``, ``attach``, then ``build_routes``) reads back
    as the builder's spec and routes identically."""
    n_clusters, per_cluster = 11, 3  # an incomplete hypercube
    dims = hypercube_dimensions(n_clusters)
    hand = Fabric(Simulator(), DEFAULT_COSTS)
    hand.topology_name = "hypercube"
    for _ in range(n_clusters):
        hand.add_cluster()
    for cid in range(n_clusters):
        for dim in range(dims):
            peer = cid ^ (1 << dim)
            if cid < peer < n_clusters:
                hand.connect_clusters(
                    hand.clusters[cid], dim, hand.clusters[peer], dim
                )
    for k in range(n_clusters * per_cluster):
        cid, slot = divmod(k, per_cluster)
        iface = hand.new_interface(f"node{cid}.{slot}")
        hand.attach(hand.clusters[cid], dims + slot, iface)
    hand.build_routes()

    built = build_hypercube(Simulator(), DEFAULT_COSTS, n_clusters, per_cluster)
    assert TopologySpec.of(hand) == hypercube_spec(n_clusters, per_cluster)
    assert [c.routing for c in hand.clusters] == [
        c.routing for c in built.clusters
    ]
    assert hand.fault_sites() == built.fault_sites()


def test_spec_errors_match_the_builders():
    with pytest.raises(ValueError, match="endpoint slots"):
        topology_spec("hypercube", 70, nodes_per_cluster=4, n_clusters=16)
    with pytest.raises(ValueError, match="at least 2 ports, got 1"):
        topology_spec("hyperx", 1, nodes_per_cluster=1)
    with pytest.raises(ValueError, match="sharding needs a cluster fabric"):
        topology_spec("snet", 8)
    with pytest.raises(ValueError, match="unknown fabric topology"):
        topology_spec("torus", 8)


def test_sharded_construction_builds_no_simulator_and_no_link(monkeypatch):
    made = []

    def refuse(kind):
        def init(self, *args, **kwargs):
            made.append(kind)
            raise AssertionError(f"ShardedSimulator built a {kind}")
        return init

    monkeypatch.setattr(Link, "__init__", refuse("Link"))
    monkeypatch.setattr(Simulator, "__init__", refuse("Simulator"))
    for topology in ("hypercube", "hyperx", "mesh"):
        sharded = ShardedSimulator(topology, n_endpoints=64, shards=4)
        assert len(sharded.spec.addresses) == 64
    assert made == []


def test_sharded_construction_footprint_at_1024_endpoints():
    ShardedSimulator("hypercube", n_endpoints=64, shards=4)  # warm imports
    gc.collect()
    tracemalloc.start()
    try:
        sharded = ShardedSimulator("hypercube", n_endpoints=1024, shards=8)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sharded.partition.n_shards == 8
    assert peak < 1 << 20, f"{peak / 2**20:.2f} MiB"
