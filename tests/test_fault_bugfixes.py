"""Regression tests for the fault-subsystem bugfix sweep.

Three bugs are pinned here:

* crash addresses on fabric-backed systems silently resolved to nothing
  (``FaultPlan._kernel_for`` returned ``None``) -- now they resolve
  through the fabric attach table and unknown addresses raise;
* link-fault site patterns were only checked against star/S-NET naming
  -- now every backend enumerates its injection sites via
  ``FabricBackend.fault_sites()`` and ``attach()`` validates patterns;
* attaching a plan to a sharded fabric installed the injector only on
  the orchestrator simulator -- now every shard gets one, with
  shard-stable per-site RNG streams, and a wire that crosses the shard
  boundary carries the same site name and fault path as unsharded.
"""

from types import SimpleNamespace

import pytest

from repro import (
    DEFAULT_COSTS,
    Experiment,
    FaultPlan,
    PoissonArrivals,
    ShardedSimulator,
    Simulator,
    VorxSystem,
    Workload,
    create_fabric,
    run_all_pairs,
)
from repro.fabric.partition import boundary_cut_sites, partition_fabric
from repro.hpc import MessageKind, Packet


def raw_fabric(topology="hypercube", n_endpoints=16, **options):
    sim = Simulator()
    fabric = create_fabric(
        topology, sim, DEFAULT_COSTS, n_endpoints=n_endpoints, **options
    )
    return sim, fabric


def attach(plan, sim, fabric):
    plan.attach(SimpleNamespace(sim=sim, fabric=fabric))


# ----------------------------------------------------------------------
# bugfix 1: crash addresses resolve through the fabric attach table
# ----------------------------------------------------------------------
def test_crash_on_raw_fabric_endpoint_fires():
    sim, fabric = raw_fabric()
    victim = fabric.addresses[3]
    plan = FaultPlan(node_crashes={victim: 50.0}, seed=7)
    attach(plan, sim, fabric)
    sim.run(until=200.0)
    assert sim.faults.is_crashed(victim)
    assert sim.faults.metrics.counter("faults.node_crashes").value == 1


def test_crash_isolates_raw_fabric_traffic():
    sim, fabric = raw_fabric(n_endpoints=8)
    victim = fabric.addresses[0]
    plan = FaultPlan(node_crashes={victim: 0.0}, seed=7)
    attach(plan, sim, fabric)
    result = run_all_pairs(fabric, size=64, partners=2)
    # Every leg touching the crashed endpoint is silently dropped.
    assert result.delivered < result.sent
    assert sim.faults.metrics.counter("faults.crash_drops").value > 0


def test_crash_address_matching_nothing_raises():
    sim, fabric = raw_fabric(n_endpoints=8)
    bogus = max(fabric.addresses) + 1000
    plan = FaultPlan(node_crashes={bogus: 10.0})
    with pytest.raises(ValueError, match="matches no endpoint"):
        attach(plan, sim, fabric)


def test_crash_still_resolves_kernels_first():
    system = VorxSystem(n_nodes=2)
    victim = system.all_kernels[1].iface.address
    plan = FaultPlan(node_crashes={victim: 25.0})
    plan.attach(system)
    system.sim.run(until=100.0)
    assert system.sim.faults.is_crashed(victim)


# ----------------------------------------------------------------------
# bugfix 2: per-backend site enumeration + attach-time validation
# ----------------------------------------------------------------------
def test_cluster_fabric_enumerates_link_sites():
    _, fabric = raw_fabric(n_endpoints=8)
    sites = fabric.fault_sites()
    assert sites == sorted(sites)
    # Attach links run both directions; trunks are cluster-to-cluster.
    assert any("->c0" in site for site in sites)
    assert any(site.startswith("c0.p") for site in sites)


def test_snet_fabric_enumerates_bus_and_nics():
    from repro.snet.fabric import SNetFabric

    sim = Simulator()
    fabric = SNetFabric(sim, DEFAULT_COSTS, 3)
    sites = fabric.fault_sites()
    assert "snet.bus" in sites
    assert sum(site.startswith("snet") for site in sites) == len(sites)


def test_unmatchable_site_pattern_raises_at_attach():
    sim, fabric = raw_fabric()
    plan = FaultPlan(links={"snet.bus": {"drop": 0.5}})
    with pytest.raises(ValueError, match="matches none of the"):
        attach(plan, sim, fabric)


def test_unmatchable_nic_stall_pattern_raises_at_attach():
    sim, fabric = raw_fabric()
    plan = FaultPlan(nic_stalls=[("wrong-nic*", 0.0, 100.0)])
    with pytest.raises(ValueError, match="fault_sites"):
        attach(plan, sim, fabric)


def test_matching_pattern_attaches_and_fires_per_site():
    sim, fabric = raw_fabric(n_endpoints=16)
    plan = FaultPlan(
        links={"c0.p*->*": {"drop": 0.8}}, seed=11,
        kinds=("user-object",),
    )
    attach(plan, sim, fabric)
    result = run_all_pairs(fabric, size=64, partners=3)
    assert result.delivered < result.sent
    assert sim.faults.injections > 0


def test_mesh_sites_validate_mesh_patterns():
    sim, fabric = raw_fabric("mesh", n_endpoints=16, shape=(2, 2))
    plan = FaultPlan(links={"c1.p*->*": {"drop": 0.1}})
    attach(plan, sim, fabric)  # must not raise
    assert sim.faults is not None


# ----------------------------------------------------------------------
# bugfix 3: sharded fabrics get per-shard injectors
# ----------------------------------------------------------------------
def shard_run(workers, plan):
    sim = ShardedSimulator(
        "hypercube", n_endpoints=32, shards=4, workers=workers,
        faults=plan,
    )
    return sim.run_all_pairs(size=64, partners=2)


def drop_plan():
    return FaultPlan(drop=0.2, seed=9, kinds=("user-object",))


def test_sharded_run_injects_faults():
    result = shard_run(1, drop_plan())
    assert result.injections > 0
    assert result.delivered < result.sent


@pytest.mark.parametrize("workers", [2, 4])
def test_sharded_fault_schedule_is_worker_count_stable(workers):
    reference = shard_run(1, drop_plan())
    result = shard_run(workers, drop_plan())
    assert result.fingerprint() == reference.fingerprint()
    assert result.injections == reference.injections


def test_sharded_crash_validated_and_isolates():
    sim = ShardedSimulator(
        "hypercube", n_endpoints=32, shards=4, workers=1,
        faults=FaultPlan(node_crashes={0: 0.0}, seed=5),
    )
    result = sim.run_all_pairs(size=64, partners=2)
    clean = ShardedSimulator(
        "hypercube", n_endpoints=32, shards=4, workers=1,
    ).run_all_pairs(size=64, partners=2)
    assert result.delivered < clean.delivered


def test_sharded_rejects_unknown_crash_address():
    with pytest.raises(ValueError, match="match no endpoint"):
        ShardedSimulator(
            "hypercube", n_endpoints=32, shards=4, workers=1,
            faults=FaultPlan(node_crashes={99_999: 1.0}),
        )


def test_sharded_rejects_unmatchable_site_pattern():
    with pytest.raises(ValueError, match="matches none of the"):
        ShardedSimulator(
            "hypercube", n_endpoints=32, shards=4, workers=1,
            faults=FaultPlan(links={"snet.bus": {"drop": 1.0}}),
        )


def boundary_cut_plan(fault):
    """Every user-object message on the wires between the two halves of
    hypercube/64 suffers ``fault`` (``"drop"`` or ``"delay"``)."""
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=64)
    shard_of = partition_fabric(fabric, 2).shard_of_cluster
    block = [cid for cid, shard in enumerate(shard_of) if shard == 0]
    return FaultPlan(
        kinds=("user-object",), delay_us=(50.0, 50.0),
        links={site: {fault: 1.0}
               for site in boundary_cut_sites(fabric, block)},
    )


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "fault, delivered, duration_us",
    [("drop", 236, 180.0), ("delay", 512, 1790.0)],
)
def test_faults_on_cross_shard_wires_fire_as_unsharded(
    workers, fault, delivered, duration_us
):
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=64)
    attach(boundary_cut_plan(fault), sim, fabric)
    reference = run_all_pairs(fabric, size=64, partners=8)
    result = ShardedSimulator(
        "hypercube", n_endpoints=64, shards=2, workers=workers,
        faults=boundary_cut_plan(fault),
    ).run_all_pairs(size=64, partners=8)
    assert (reference.delivered, reference.duration_us) == (
        delivered, duration_us
    )
    assert sim.faults.injections == 276
    assert result.delivered == reference.delivered
    assert result.injections == sim.faults.injections
    assert result.duration_us == reference.duration_us


def test_injected_duplicate_crosses_as_its_own_copy():
    """Every link duplicates every user-object message, so one 0 -> 15
    message on hypercube/16 arrives 16 times.  Each arrival is its own
    ``Packet`` (the same message ``seq``) and has crossed the 4 hops of
    its own path; a shared object kept counting hops past delivery."""
    sim, fabric = raw_fabric()
    attach(FaultPlan(seed=1, duplicate=1.0, kinds=("user-object",)),
           sim, fabric)
    sent = Packet(src=0, dst=15, size=64, kind=MessageKind.USER_OBJECT)
    arrived = []

    def sender():
        yield from fabric.send(0, sent)

    def receiver():
        while True:
            arrived.append((yield from fabric.recv(15)))

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert len(arrived) == 16
    assert len({id(packet) for packet in arrived}) == 16
    assert [packet.hops for packet in arrived] == [4] * 16
    assert {packet.seq for packet in arrived} == {sent.seq}


# ----------------------------------------------------------------------
# crash-of-endpoint + timeout accounting: failures, not hangs
# ----------------------------------------------------------------------
def test_crashed_backend_fails_requests_instead_of_hanging():
    workload = Workload(
        arrivals=PoissonArrivals(rate_per_s=4000.0), n_requests=40,
        fanout=2, timeout_us=5_000.0, name="crashprobe",
    )
    sim, fabric = raw_fabric(n_endpoints=16)
    # Crash several backends up front: fan-out legs to them never
    # complete, and the timeout converts those requests into failures.
    victims = {addr: 0.0 for addr in fabric.addresses[8:12]}
    attach(FaultPlan(node_crashes=victims, seed=3), sim, fabric)
    result = workload.run(fabric, seed="crash:0", arm="crash")
    assert result.offered == 40
    assert result.failed > 0
    assert result.completed + result.failed == result.offered
    assert result.completed == len(result.latencies_us)


def test_retries_with_reroute_recover_crashed_backends():
    base = dict(
        arrivals=PoissonArrivals(rate_per_s=4000.0), n_requests=40,
        fanout=2, timeout_us=15_000.0, name="crashprobe",
    )
    plain = Workload(**base)
    retrying = Workload(
        retries=2, retry_timeout_us=2_000.0, retry_reroute=True, **base
    )
    outcomes = {}
    for label, workload in (("plain", plain), ("retry", retrying)):
        sim, fabric = raw_fabric(n_endpoints=16)
        victims = {addr: 0.0 for addr in fabric.addresses[8:12]}
        attach(FaultPlan(node_crashes=victims, seed=3), sim, fabric)
        outcomes[label] = workload.run(fabric, seed="crash:0", arm=label)
    assert outcomes["retry"].retries > 0
    assert outcomes["retry"].failed < outcomes["plain"].failed


def test_experiment_records_injections_per_rep():
    workload = Workload(
        arrivals=PoissonArrivals(rate_per_s=4000.0), n_requests=30,
        fanout=2, timeout_us=10_000.0, name="injprobe",
    )
    plan = FaultPlan(drop=0.3, seed=2, kinds=("user-object",))
    result = Experiment(
        topology="hypercube", n_nodes=16, workload=workload,
        faults=plan, reps=2, seed=5,
    ).run()
    assert len(result.injections) == 2
    assert result.injected > 0
    assert all(row["injected"] >= 0 for row in result.rows())
