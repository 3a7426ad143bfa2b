"""Determinism and parity tests for the sharded conservative-parallel
engine (repro.sim.parallel).

Two guarantees are pinned:

* **Digest parity** -- the delivered-message digest (src, dst, size,
  payload multiset) of a sharded run is identical to the unsharded
  single-:class:`Simulator` run of the same plan, for every worker
  count.  Sharding relaxes only remote-credit timing, never traffic.
* **Bounded-skew golden** -- at ``workers=1`` the full result
  fingerprint (digest + schedule statistics + round count) is
  deterministic and pinned, and every other worker count reproduces it
  bit-for-bit: worker assignment must not influence the simulation.
"""

import pytest

from repro import (
    DEFAULT_COSTS,
    ShardedSimulator,
    Simulator,
    create_fabric,
    run_all_pairs,
    run_plan,
)
from repro.sim.parallel import _ShardRuntime

#: workers=1, shards=4, 64-endpoint hypercube, all-pairs partners=2.
#: Changing the engine, the sync protocol, the partitioner, or the
#: traffic driver legitimately moves this -- re-pin deliberately.
GOLDEN_FINGERPRINT = (
    "f38ea10a3b7359418cf953900bb24ca73f49cee4f5d3df4d45884aed69e8ca5b"
)


def sharded_run(workers, *, shards=4, n_endpoints=64, partners=2):
    sim = ShardedSimulator(
        "hypercube", n_endpoints=n_endpoints, shards=shards, workers=workers
    )
    return sim.run_all_pairs(size=64, partners=partners)


def unsharded_run(*, n_endpoints=64, partners=2):
    sim = Simulator()
    fabric = create_fabric(
        "hypercube", sim, DEFAULT_COSTS, n_endpoints=n_endpoints
    )
    return run_all_pairs(fabric, size=64, partners=partners)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_digest_parity_with_unsharded_run(workers):
    reference = unsharded_run()
    result = sharded_run(workers)
    assert result.digest == reference.digest
    assert result.delivered == reference.delivered == result.sent
    assert result.payload_bytes == reference.payload_bytes
    # Routes are computed over the full cluster graph, so hop counts
    # match the unsharded fabric exactly (not just the digest).
    assert result.avg_hops == reference.avg_hops
    assert result.max_hops == reference.max_hops


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_fingerprint_is_worker_count_independent(workers):
    result = sharded_run(workers)
    assert result.workers == workers
    assert result.fingerprint() == GOLDEN_FINGERPRINT


def test_golden_fingerprint_details():
    result = sharded_run(1)
    assert result.shards == 4
    assert result.rounds == 9
    assert result.boundary_messages == 70
    assert result.delivered == 128
    assert result.duration_us == pytest.approx(40.0)


def test_a_boundary_crossing_costs_one_event():
    # The arrival must be scheduled on the receiving engine; nothing
    # else is added to the unsharded schedule.
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=64)
    run_all_pairs(fabric, size=64, partners=2)
    result = sharded_run(1)
    assert (result.events, sim.processed) == (2460, 2390)
    assert result.events - sim.processed == result.boundary_messages


def test_shard_count_changes_schedule_but_not_traffic():
    reference = sharded_run(1, shards=4)
    other = sharded_run(1, shards=8)
    assert other.digest == reference.digest
    # The bounded skew: a different boundary set may shift timing, so
    # the fingerprint is pinned per shard count, not across them.
    assert other.shards == 8
    assert other.boundary_messages >= reference.boundary_messages


def test_single_shard_degenerates_to_serial():
    result = sharded_run(1, shards=1)
    reference = unsharded_run()
    assert result.digest == reference.digest
    assert result.rounds == 1
    assert result.boundary_messages == 0


def _sparse_plan(addr):
    return {
        addr[0]: [addr[9], addr[33]],
        addr[9]: [addr[0]],
        addr[3]: [addr[60]],
        addr[17]: [addr[42], addr[1], addr[63]],
    }


def _hot_spot_plan(addr):
    # Every shard's endpoints converge on one destination, four messages
    # each: the many-to-one load that backs up boundary credits.
    return {a: [addr[5]] * 4 for a in addr if a != addr[5]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "make_plan,delivered",
    [
        pytest.param(_sparse_plan, 7, id="sparse"),
        pytest.param(_hot_spot_plan, 252, id="hot_spot"),
    ],
)
def test_run_plan_parity(make_plan, delivered, workers):
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=64)
    plan = make_plan(fabric.addresses)
    reference = run_plan(fabric, plan, 64)
    sharded = ShardedSimulator(
        "hypercube", n_endpoints=64, shards=4, workers=workers
    ).run_plan(plan, size=64)
    assert sharded.digest == reference.digest
    assert sharded.sent == reference.sent == delivered
    assert sharded.delivered == reference.delivered == delivered


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "plan",
    [
        pytest.param({9999: [1]}, id="bad_source"),
        pytest.param({1: [9999]}, id="bad_destination"),
    ],
)
def test_run_plan_rejects_addresses_on_no_shard(workers, plan):
    # The unsharded driver fails on the unknown endpoint; the sharded
    # one must too, not drop a source no shard hosts.
    with pytest.raises(ValueError, match="no interface at address 9999"):
        run_plan(create_fabric(
            "hypercube", Simulator(), DEFAULT_COSTS, n_endpoints=64
        ), plan)
    sharded = ShardedSimulator(
        "hypercube", n_endpoints=64, shards=4, workers=workers
    )
    with pytest.raises(ValueError, match="no interface at address 9999"):
        sharded.run_plan(plan)


def test_worker_exception_reaches_the_caller(monkeypatch):
    original = _ShardRuntime.run_round

    def run_round(self, bound, incoming):
        if self.shard_id == 1:
            raise ZeroDivisionError("shard 1 broke mid-round")
        return original(self, bound, incoming)

    # Forked workers inherit the patched class.
    monkeypatch.setattr(_ShardRuntime, "run_round", run_round)
    sharded = ShardedSimulator(
        "hypercube", n_endpoints=64, shards=4, workers=2
    )
    with pytest.raises(RuntimeError, match="shard 1 broke mid-round"):
        sharded.run_all_pairs(partners=2)


def test_larger_scale_parity_smoke():
    reference = unsharded_run(n_endpoints=256, partners=3)
    result = sharded_run(1, shards=8, n_endpoints=256, partners=3)
    assert result.digest == reference.digest
    assert result.delivered == 768


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("topology", ["hyperx", "mesh"])
def test_lattice_digest_and_hop_parity(topology, workers):
    # 64 endpoints, 4 per cluster: a 4x4 lattice cut into 4 bands.
    reference = run_all_pairs(
        create_fabric(topology, Simulator(), DEFAULT_COSTS, n_endpoints=64),
        size=64, partners=3,
    )
    result = ShardedSimulator(
        topology, n_endpoints=64, shards=4, workers=workers
    ).run_all_pairs(size=64, partners=3)
    assert result.boundary_messages > 0
    assert result.digest == reference.digest
    assert result.delivered == reference.delivered == result.sent == 192
    assert (result.avg_hops, result.max_hops) == (
        reference.avg_hops, reference.max_hops
    )


def test_rejects_invalid_worker_and_shard_counts():
    with pytest.raises(ValueError):
        ShardedSimulator("hypercube", n_endpoints=64, shards=0)
    with pytest.raises(ValueError):
        ShardedSimulator("hypercube", n_endpoints=64, shards=4, workers=0)
    with pytest.raises(ValueError):
        ShardedSimulator("snet", n_endpoints=8, shards=2)
