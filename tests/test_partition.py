"""Property tests for the fabric partitioner (repro.fabric.partition).

The conservative-parallel engine's safety rests on three partition
invariants: every endpoint belongs to exactly one shard, the boundary
link set is symmetric (both directions of every cross-shard fibre are
present), and the lookahead equals the true minimum latency of any
cross-shard link.  These are checked as properties over the three
cluster topologies at several sizes and shard counts.
"""

import pytest

from repro.fabric import create_fabric, partition_fabric, partition_spec
from repro.fabric.partition import TopologySpec, _link_latency_us
from repro.model import DEFAULT_COSTS
from repro.sim import Simulator

CASES = [
    ("hypercube", 64), ("hypercube", 256), ("hypercube", 1024),
    ("hyperx", 64), ("hyperx", 256),
    ("mesh", 64), ("mesh", 256),
]
SHARD_COUNTS = [1, 2, 3, 4, 8]


def build(topology, n_endpoints):
    sim = Simulator()
    return create_fabric(topology, sim, DEFAULT_COSTS, n_endpoints=n_endpoints)


@pytest.mark.parametrize("topology,n_endpoints", CASES)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_every_endpoint_in_exactly_one_shard(topology, n_endpoints, n_shards):
    fabric = build(topology, n_endpoints)
    spec = TopologySpec.of(fabric)
    if n_shards > spec.n_clusters:
        pytest.skip("more shards than clusters")
    partition = partition_fabric(fabric, n_shards)

    assert len(partition.shard_of_cluster) == spec.n_clusters
    assert set(partition.shard_of_cluster) == set(range(n_shards))

    shard_of = partition.shard_of_address(spec)
    # Every endpoint address appears exactly once with a valid shard id.
    assert sorted(shard_of) == spec.addresses
    assert len(spec.addresses) == n_endpoints
    assert all(0 <= s < n_shards for s in shard_of.values())
    # An endpoint's shard is its cluster's shard -- no endpoint can be
    # claimed by two shards because the address -> cluster map is a dict.
    for address, cid, _port, _name in spec.attachments:
        assert shard_of[address] == partition.shard_of_cluster[cid]


@pytest.mark.parametrize("topology,n_endpoints", CASES)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_boundary_link_set_is_symmetric(topology, n_endpoints, n_shards):
    fabric = build(topology, n_endpoints)
    spec = TopologySpec.of(fabric)
    if n_shards > spec.n_clusters:
        pytest.skip("more shards than clusters")
    partition = partition_fabric(fabric, n_shards)

    shard_of = partition.shard_of_cluster
    for a, a_port, b, b_port in partition.boundary_links:
        # Reverse direction always present.
        assert (b, b_port, a, a_port) in partition.boundary_links
        # Every boundary link genuinely crosses shards.
        assert shard_of[a] != shard_of[b]
    # Completeness: every cross-shard wire of the topology is a
    # boundary link (both directions), every intra-shard wire is not.
    for a, a_port, b, b_port in spec.links:
        crossing = shard_of[a] != shard_of[b]
        assert ((a, a_port, b, b_port) in partition.boundary_links) is crossing
        assert ((b, b_port, a, a_port) in partition.boundary_links) is crossing


@pytest.mark.parametrize("topology,n_endpoints", CASES)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_lookahead_is_true_min_cross_shard_latency(
    topology, n_endpoints, n_shards
):
    fabric = build(topology, n_endpoints)
    spec = TopologySpec.of(fabric)
    if n_shards > spec.n_clusters:
        pytest.skip("more shards than clusters")
    partition = partition_fabric(fabric, n_shards)

    link_latency = _link_latency_us(DEFAULT_COSTS)
    if n_shards == 1:
        assert partition.boundary_links == frozenset()
        assert partition.lookahead_us == float("inf")
        assert partition.pair_lookahead == ()
        return
    # Homogeneous links: the minimum over every cross-shard wire is the
    # single-link in-flight latency, globally and per neighbour pair.
    assert partition.lookahead_us == pytest.approx(link_latency)
    assert partition.pair_lookahead
    lookahead = partition.pair_lookahead_map()
    shard_of = partition.shard_of_cluster
    crossing_pairs = {
        tuple(sorted((shard_of[a], shard_of[b])))
        for a, _ap, b, _bp in spec.links
        if shard_of[a] != shard_of[b]
    }
    recorded_pairs = {(a, b) for a, b, _latency in partition.pair_lookahead}
    assert recorded_pairs == crossing_pairs
    for pair in crossing_pairs:
        assert lookahead[pair] == pytest.approx(link_latency)
        assert lookahead[pair[::-1]] == pytest.approx(link_latency)


def test_partition_balanced_contiguous_blocks():
    fabric = build("hypercube", 256)  # 64 clusters
    partition = partition_fabric(fabric, 5)
    sizes = [partition.shard_of_cluster.count(s) for s in range(5)]
    assert sum(sizes) == 64
    assert max(sizes) - min(sizes) <= 1
    # Contiguous: shard ids are non-decreasing over cluster ids.
    assert list(partition.shard_of_cluster) == sorted(
        partition.shard_of_cluster
    )


def test_partition_rejects_bad_shard_counts():
    fabric = build("hypercube", 64)  # 16 clusters
    with pytest.raises(ValueError, match="shards"):
        partition_fabric(fabric, 0)
    with pytest.raises(ValueError, match="shards"):
        partition_fabric(fabric, 17)


def test_partition_rejects_bus_backends():
    sim = Simulator()
    snet = create_fabric("snet", sim, DEFAULT_COSTS, n_endpoints=8)
    with pytest.raises(ValueError, match="cluster"):
        partition_fabric(snet, 2)


def test_partition_spec_round_trips_through_pickle():
    import pickle

    fabric = build("hypercube", 64)
    spec = TopologySpec.of(fabric)
    partition = partition_spec(spec, 4, DEFAULT_COSTS)
    for obj in (spec, partition):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_create_fabric_has_no_shards_option():
    # Sharding is ShardedSimulator's job; create_fabric must reject the
    # option rather than ignore it.
    with pytest.raises(TypeError, match="shards"):
        create_fabric(
            "hypercube", Simulator(), DEFAULT_COSTS, n_endpoints=64, shards=4
        )
