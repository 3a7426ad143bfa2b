"""Tests for the fault-injection subsystem (repro.faults)."""

import os
import sys
from fnmatch import fnmatchcase
from types import SimpleNamespace

import pytest

import repro.faults
from repro import (
    FaultPlan, MeglosSystem, Simulator, VorxSystem, create_fabric,
    fault_summary, run_all_pairs,
)
from repro.fabric.traffic import run_plan
from repro.hpc.message import MessageKind
from repro.model import DEFAULT_COSTS


def stream(system, n_messages=20, nbytes=256):
    """Send ``n_messages`` node0 -> node1; returns the receiver subprocess."""
    payloads = [f"msg-{i}" for i in range(n_messages)]

    def sender(env):
        with (yield from env.channel("data")) as ch:
            for p in payloads:
                yield from env.write(ch, nbytes, payload=p)

    def receiver(env):
        got = []
        with (yield from env.channel("data")) as ch:
            for _ in payloads:
                _, payload = yield from env.read(ch)
                got.append(payload)
        return got

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    return rx, payloads


def chan_counter(system, name):
    return sum(
        int(k.metrics.counter(f"chan.{name}").value)
        for k in system.all_kernels
    )


# ----------------------------------------------------------------------
# the no-plan invariant
# ----------------------------------------------------------------------
def test_no_plan_and_zero_probability_plan_time_identical():
    baseline = VorxSystem(n_nodes=2)
    rx0, payloads = stream(baseline)
    baseline.run()

    nulled = VorxSystem(n_nodes=2, faults=FaultPlan())
    rx1, _ = stream(nulled)
    nulled.run()

    assert rx0.result == rx1.result == payloads
    assert baseline.sim.now == nulled.sim.now
    assert fault_summary(baseline.sim) == {}
    assert fault_summary(nulled.sim) == {}


def test_only_one_plan_per_simulator():
    system = VorxSystem(n_nodes=2, faults=FaultPlan())
    with pytest.raises(RuntimeError):
        FaultPlan().attach(system)


def test_unknown_kind_rejected():
    """A misspelt kind would never match a packet: refuse it up front."""
    with pytest.raises(ValueError, match="chanel-data.*'channel-data'"):
        FaultPlan(drop=0.5, kinds=("chanel-data",))
    with pytest.raises(ValueError, match="channel-nak"):
        FaultPlan(drop=0.5, kinds=("channel-data", "channel-nak"))
    plan = FaultPlan(kinds=(MessageKind.USER_OBJECT, "manager"))
    assert plan.kinds == {"user-object", "manager"}


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def run_lossy(seed):
    system = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=seed, drop=0.1, corrupt=0.1, duplicate=0.1,
                         channel_retry_timeout_us=2_000.0),
    )
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads
    return system.sim.now, fault_summary(system.sim)


def test_identical_seeds_give_identical_fault_schedules():
    assert run_lossy(42) == run_lossy(42)


def test_different_seeds_give_different_schedules():
    assert run_lossy(42) != run_lossy(43)


# ----------------------------------------------------------------------
# VORX stop-and-wait recovery per fault kind
# ----------------------------------------------------------------------
def test_drops_recovered_by_ack_watchdog():
    system = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=7, drop=0.2, channel_retry_timeout_us=1_000.0),
    )
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads
    assert fault_summary(system.sim)["drop"] > 0
    assert chan_counter(system, "timeout_retransmits") > 0


def test_corruption_recovered_by_ctrl_retry():
    system = VorxSystem(n_nodes=2, faults=FaultPlan(seed=7, corrupt=0.3))
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads
    assert fault_summary(system.sim)["corrupt"] > 0
    assert chan_counter(system, "corrupt_drops") > 0


def test_duplicates_suppressed_by_transfer_id():
    system = VorxSystem(n_nodes=2, faults=FaultPlan(seed=7, duplicate=0.5))
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads  # exactly once, in order
    assert fault_summary(system.sim)["duplicate"] > 0
    assert chan_counter(system, "duplicate_drops") > 0


def test_injected_delay_slows_but_delivers():
    plain = VorxSystem(n_nodes=2)
    rx0, _ = stream(plain)
    plain.run()

    delayed = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=7, delay=0.5, delay_us=(200.0, 400.0)),
    )
    rx1, payloads = stream(delayed)
    delayed.run()
    assert rx1.result == payloads
    assert fault_summary(delayed.sim)["delay"] > 0
    assert delayed.sim.now > plain.sim.now


def test_per_link_override_targets_one_site():
    system = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=7, links={"node0->c0": {"corrupt": 0.5}}),
    )
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads
    summary = fault_summary(system.sim)
    assert summary["corrupt"] > 0
    events = system.sim.vstat.events.select(name="fault-corrupt")
    assert {e.node for e in events} == {"node0->c0"}


def test_max_injections_caps_the_storm():
    system = VorxSystem(
        n_nodes=2, faults=FaultPlan(seed=7, corrupt=0.9, max_injections=3)
    )
    rx, payloads = stream(system)
    system.run()
    assert rx.result == payloads
    assert sum(fault_summary(system.sim).values()) <= 3


def _hypercube256_with_faulty_cluster0():
    """hypercube/256 whose only faulty sites are cluster 0's out-links."""
    sim = Simulator()
    fabric = create_fabric("hypercube", sim, DEFAULT_COSTS, n_endpoints=256)
    injector = FaultPlan(
        seed=5, kinds=("user-object",), links={"c0.*": {"delay": 0.5}},
    ).attach(SimpleNamespace(sim=sim, fabric=fabric))
    return fabric, injector


def test_rng_streams_stay_lazy_on_a_large_fabric():
    """Only sites that draw hold an RNG stream, and only sites the plan
    makes lossy ever draw."""
    fabric, injector = _hypercube256_with_faulty_cluster0()
    result = run_all_pairs(fabric, size=64, partners=4)
    assert result.delivered == result.sent
    assert injector.injections > 0
    drawn = [name for name, site in injector.sites.items()
             if site.stream is not None]
    assert drawn
    assert all(fnmatchcase(name, "c0.*") for name in drawn)
    assert len(injector.sites) > 10 * len(drawn)


def test_quiet_site_makes_no_fault_layer_call_per_message():
    """A link whose record has no loss, windows, stalls or brownouts --
    and a plan that crashes no node -- carries messages without calling
    into ``repro.faults`` once its record is resolved."""
    fabric, injector = _hypercube256_with_faulty_cluster0()
    src, dst = 4, 12  # node1.0 -> node3.0: never routed through c0
    run_plan(fabric, {src: [dst]}, size=64)
    route = sorted(injector.sites)
    assert route and not any(fnmatchcase(name, "c0.*") for name in route)
    for site in injector.sites.values():
        assert not (site.lossy or site.windows or site.stalls
                    or site.brownouts or site.crashes)
    faults_dir = os.path.dirname(repro.faults.__file__)
    calls = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(
            faults_dir
        ):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = run_plan(fabric, {src: [dst] * 20}, size=64)
    finally:
        sys.setprofile(None)
    assert result.delivered == 20
    assert calls == []
    assert sorted(injector.sites) == route


# ----------------------------------------------------------------------
# crashes and stalls
# ----------------------------------------------------------------------
def test_node_crash_isolates_the_node():
    system = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=7, node_crashes={1: 0.0},
                         channel_retry_timeout_us=1_000.0),
    )
    rx, _ = stream(system, n_messages=1)
    system.run(until=20_000.0)
    assert rx.process.is_alive  # receiver never rendezvoused: node is dead
    injector = system.faults
    assert int(injector.metrics.counter("faults.crash_drops").value) > 0


def test_nic_stall_window_delays_traffic():
    stalled = VorxSystem(
        n_nodes=2,
        faults=FaultPlan(seed=7, nic_stalls=[("node0->c0", 0.0, 5_000.0)]),
    )
    rx, payloads = stream(stalled, n_messages=1)
    stalled.run()
    assert rx.result == payloads
    assert int(
        stalled.faults.metrics.counter("faults.nic_stalls").value
    ) > 0
    assert stalled.sim.now > 5_000.0


# ----------------------------------------------------------------------
# S/NET: forced overflow + the recovery-policy spectrum
# ----------------------------------------------------------------------
def snet_burst(recovery, faults=None, n_senders=4, nbytes=400):
    system = MeglosSystem(
        n_senders + 1, recovery=recovery, seed=11, faults=faults
    )
    dst = n_senders
    finished = []

    def sender(env, who):
        yield from env.send(dst, nbytes)
        finished.append(who)

    def receiver(env):
        for _ in range(n_senders):
            yield from env.recv()
        return env.now

    for i in range(n_senders):
        system.spawn(i, lambda env, i=i: sender(env, i))
    rx = system.spawn(dst, receiver)
    return system, rx, finished


def test_forced_overflow_recovered_by_backoff_policy():
    system, rx, finished = snet_burst(
        "random-backoff", faults=FaultPlan(seed=11, force_fifo_overflow=0.3)
    )
    system.run()
    assert not rx.process.is_alive
    assert len(finished) == 4
    assert fault_summary(system.sim).get("forced-overflow", 0) > 0
    retries = sum(
        int(n.metrics.counter("snet.retries").value) for n in system.nodes
    )
    assert retries > 0


def test_forced_overflow_recovered_by_reservation_policy():
    system, rx, finished = snet_burst(
        "reservation", faults=FaultPlan(seed=11, force_fifo_overflow=0.2)
    )
    system.run()
    assert not rx.process.is_alive
    assert len(finished) == 4


def test_naive_policy_locks_out_under_contention():
    system, rx, finished = snet_burst(
        "busy-retransmit", n_senders=6, nbytes=1000
    )
    system.run(until=500_000.0)
    assert rx.process.is_alive  # the Section 2 lockout
    assert len(finished) < 6
    assert system.node(6).partials_discarded > 100


def test_system_recovery_policy_drives_default_sends():
    system, rx, _ = snet_burst("random-backoff", n_senders=6, nbytes=1000)
    system.run()
    assert not rx.process.is_alive  # same workload, policy fixes it
    by_policy = {}
    for node in system.nodes:
        for labels, counter in node.metrics.labelled(
            "snet.retries_by_policy"
        ).items():
            by_policy[labels[0]] = by_policy.get(labels[0], 0) + int(
                counter.value
            )
    assert set(by_policy) <= {"random-backoff"}
