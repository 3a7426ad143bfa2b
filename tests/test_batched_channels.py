"""Batched (windowed) channel writes: equivalence and pipelining tests.

The batched write path (`CostModel.chan_batch_window > 1`) must be a pure
*performance* mode: whatever the stop-and-wait path delivers -- bytes,
payload sequence, cdb fragment counts on both sides -- the batched path
must deliver identically, including under fault-injection drop/corrupt
plans.  These tests pin that equivalence, the determinism of the batched
schedule, and the one-watchdog-per-write bound on timeout retransmission.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, VorxSystem
from repro.model.costs import CostModel
from repro.vorx import ChannelBusyError

FRAG = CostModel().hpc_max_message


def run_stream(costs, sizes, plan=None):
    """Write each size in ``sizes`` down one channel; read every fragment.

    Returns everything observable an equivalence check cares about:
    delivered payload sequence, byte total, and the cdb fragment/byte
    counters of both ends.
    """
    system = VorxSystem(n_nodes=2, costs=costs, faults=plan)
    n_frags = sum(max(1, -(-size // FRAG)) for size in sizes)

    def sender(env):
        ch = yield from env.open("prop")
        for i, size in enumerate(sizes):
            yield from env.write(ch, size, payload=("w", i))
        return ch

    def receiver(env):
        ch = yield from env.open("prop")
        payloads = []
        total = 0
        for _ in range(n_frags):
            size, payload = yield from env.read(ch)
            total += size
            if payload is not None:
                payloads.append(payload)
        return ch, payloads, total

    tx = system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    rx_ch, payloads, total = rx.result
    node0 = system.sim.vstat.registry("node0")
    node1 = system.sim.vstat.registry("node1")
    return {
        "payloads": payloads,
        "bytes": total,
        "tx_frags": tx.result.messages_sent,
        "tx_bytes": tx.result.bytes_sent,
        "rx_frags": rx_ch.messages_received,
        "rx_bytes": rx_ch.bytes_received,
        "vstat_sent": node0.value("chan.fragments_sent"),
        "vstat_received": node1.value("chan.fragments_received"),
        "sim_us": system.sim.now,
        "events": system.sim.processed,
    }


def equivalence_keys(result):
    """The fields that must match between batched and unbatched runs
    (timing and event counts legitimately differ)."""
    return {k: v for k, v in result.items() if k not in ("sim_us", "events")}


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=5 * FRAG),
                   min_size=1, max_size=6),
    window=st.integers(min_value=2, max_value=16),
)
def test_batched_equals_unbatched_fault_free(sizes, window):
    base = run_stream(CostModel().unbatched(), sizes)
    batched = run_stream(CostModel().batched(window=window), sizes)
    assert equivalence_keys(batched) == equivalence_keys(base)
    # Internal consistency: both cdb directions agree in each mode.
    for result in (base, batched):
        assert result["tx_frags"] == result["rx_frags"]
        assert result["tx_bytes"] == result["rx_bytes"] == result["bytes"]


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    window=st.integers(min_value=2, max_value=12),
    drop=st.floats(min_value=0.0, max_value=0.15),
    corrupt=st.floats(min_value=0.0, max_value=0.1),
)
def test_batched_equals_unbatched_under_faults(seed, window, drop, corrupt):
    """Under seeded drop/corrupt plans both modes must still deliver the
    same bytes, the same payload sequence, and matching cdb fragment
    counts on both sides (the seeds see different packet streams, so
    only each mode's *outcome* -- not its schedule -- is compared)."""
    sizes = [4, 3 * FRAG, 2 * FRAG + 17, FRAG]
    plan = lambda: FaultPlan(  # noqa: E731 - fresh injector per run
        seed=seed, drop=drop, corrupt=corrupt,
        channel_retry_timeout_us=2_000.0,
    )
    base = run_stream(CostModel().unbatched(), sizes, plan=plan())
    batched = run_stream(CostModel().batched(window=window), sizes,
                         plan=plan())
    assert equivalence_keys(batched) == equivalence_keys(base)
    for result in (base, batched):
        assert result["vstat_sent"] == result["vstat_received"]


def test_batched_schedule_is_deterministic():
    sizes = [5 * FRAG, 4, 2 * FRAG]
    costs = CostModel().batched(window=8)
    first = run_stream(costs, sizes)
    second = run_stream(costs, sizes)
    assert first == second  # including sim_us and event counts


def test_batched_is_faster_than_stop_and_wait():
    sizes = [64 * FRAG]
    base = run_stream(CostModel().unbatched(), sizes)
    batch_only = run_stream(CostModel().batched(window=8), sizes)
    assert equivalence_keys(batch_only) == equivalence_keys(base)
    # The pipelined window must beat stop-and-wait on simulated time.
    assert batch_only["sim_us"] < base["sim_us"] / 1.3


def test_back_to_back_writes_keep_one_watchdog_alive():
    """Regression: every batched write started a watchdog that stayed
    alive while later writes ran back to back, so several watchdogs
    re-sent the same stale fragment each period.  A write's watchdog
    now exits at its first wake after that write ends: one live
    watchdog re-sends at most once per period."""
    period = 2_000.0
    pairs, writes, fragments = 3, 40, 4
    plan = FaultPlan(seed=1990, drop=0.04, corrupt=0.02,
                     channel_retry_timeout_us=period)
    system = VorxSystem(n_nodes=2 * pairs, faults=plan)
    spans = {}

    def writer(env, pair):
        ch = yield from env.open(f"leak{pair}")
        first = env.now
        for i in range(writes):
            yield from env.write(ch, fragments * FRAG, payload=i)
        spans[pair] = (first, env.now)

    def reader(env, pair):
        ch = yield from env.open(f"leak{pair}")
        for _ in range(writes * fragments):
            yield from env.read(ch)

    for pair in range(pairs):
        system.spawn(pair, lambda env, p=pair: writer(env, p))
        system.spawn(pairs + pair, lambda env, p=pair: reader(env, p))
    system.run()
    assert len(spans) == pairs
    resent = {
        pair: system.nodes[pair].metrics.value("chan.timeout_retransmits")
        for pair in spans
    }
    assert sum(resent.values()) > 0, "the plan should exercise the watchdog"
    for pair, (start, end) in spans.items():
        assert resent[pair] <= (end - start) / period + 1
    # No watchdog outlives the last write by more than one period.
    assert system.sim.now <= max(end for _, end in spans.values()) + period


def test_batched_write_rejects_concurrent_write():
    costs = CostModel().batched(window=8)
    system = VorxSystem(n_nodes=2, costs=costs)
    outcome = {}

    def writer(env):
        ch = yield from env.open("busy")

        def second(env2):
            try:
                yield from env2.write(ch, 4)
            except ChannelBusyError:
                outcome["second"] = "busy"

        env.spawn(second, name="second")
        yield from env.write(ch, 4 * FRAG, payload="bulk")

    def reader(env):
        ch = yield from env.open("busy")
        yield from env.sleep(2_000.0)  # let the batch be mid-flight
        for _ in range(4):
            yield from env.read(ch)

    system.spawn(0, writer)
    system.spawn(1, reader)
    system.run()
    assert outcome.get("second") == "busy"


def test_batched_window_clamped_to_side_buffers():
    """A window wider than the receiver's side buffers would deadlock a
    slow reader (deferred acks could never free the window); the write
    path must clamp to ``chan_side_buffers``."""
    import dataclasses

    costs = dataclasses.replace(
        CostModel().batched(window=64), chan_side_buffers=4)
    sizes = [10 * FRAG]
    result = run_stream(costs, sizes)
    assert result["bytes"] == 10 * FRAG
    assert result["tx_frags"] == result["rx_frags"] == 10


def test_batched_invalid_window_rejected():
    with pytest.raises(ValueError):
        CostModel().batched(window=0)
