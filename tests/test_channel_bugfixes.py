"""Regression tests for the channel-protocol fixes that rode along with
the vstat instrumentation: fragment-consistent cdb counters, safe close of
an unpaired endpoint, duplicate-endpoint read_any, and the stop-and-wait
recovery paths (peer close mid-write, side-buffer-full retransmission)."""

import dataclasses

import pytest

from repro import VorxSystem
from repro.model import DEFAULT_COSTS
from repro.tools.cdb import Cdb
from repro.vorx import ChannelClosedError


def test_fragmented_write_counts_match_both_sides():
    """Regression: a 3000-byte write fragments into three wire messages
    (hpc_max_message=1060); the writer used to count one message while
    the reader counted three.  Both sides now count fragments."""
    system = VorxSystem(n_nodes=2)
    endpoints = {}

    def writer(env):
        ch = yield from env.open("frag")
        endpoints["tx"] = ch
        yield from env.write(ch, 3000, payload="big")

    def reader(env):
        ch = yield from env.open("frag")
        endpoints["rx"] = ch
        total = 0
        while total < 3000:
            size, _ = yield from env.read(ch)
            total += size
        return total

    system.spawn(0, writer)
    rx = system.spawn(1, reader)
    system.run()
    assert rx.result == 3000
    assert endpoints["tx"].messages_sent == 3
    assert endpoints["rx"].messages_received == 3
    assert endpoints["tx"].bytes_sent == 3000
    assert endpoints["rx"].bytes_received == 3000
    # The vstat counters and cdb rows agree with the endpoints.
    assert system.nodes[0].metrics.value("chan.fragments_sent") == 3
    assert system.nodes[1].metrics.value("chan.fragments_received") == 3
    rows = {row.node: row for row in Cdb(system).channels(name="frag")}
    assert rows[system.nodes[0].address].sent == 3
    assert rows[system.nodes[1].address].received == 3


def test_close_of_unpaired_endpoint_is_safe():
    """Regression: closing an endpoint whose rendezvous never completed
    (peer_addr still None) used to raise ChannelStateError; it must just
    mark the endpoint closed."""
    system = VorxSystem(n_nodes=2)
    outcome = {}

    def opener(env):
        # Blocks forever: nobody else opens this name.
        yield from env.open("orphan")

    def closer(env):
        yield from env.sleep(1_000.0)
        kernel = env.kernel
        (endpoint,) = kernel.channels.endpoints.values()
        assert endpoint.peer_addr is None
        yield from env.close(endpoint)
        outcome["closed"] = endpoint.closed
        # Closing again is idempotent.
        yield from env.close(endpoint)
        return "ok"

    system.spawn(0, opener)
    sp = system.spawn(0, closer)
    system.run()
    assert sp.result == "ok"
    assert outcome["closed"] is True


def test_read_any_rejects_duplicate_endpoints():
    system = VorxSystem(n_nodes=2)

    def reader(env):
        ch = yield from env.open("dup")
        with pytest.raises(ValueError, match="duplicate channel"):
            yield from env.read_any([ch, ch])
        return "rejected"

    def peer(env):
        yield from env.open("dup")

    sp = system.spawn(0, reader)
    system.spawn(1, peer)
    system.run()
    assert sp.result == "rejected"


def test_peer_close_during_fragmented_write_clears_window():
    """Recovery: the peer closes while a fragmented write is stalled on a
    dropped fragment.  The writer must see ChannelClosedError with its
    retransmission state cleared: no in-flight window entry, no write
    outstanding, writer not blocked."""
    costs = dataclasses.replace(
        DEFAULT_COSTS, chan_batch_window=1, chan_side_buffers=1
    )
    system = VorxSystem(n_nodes=2, costs=costs)
    endpoints = {}

    def writer(env):
        ch = yield from env.open("fc")
        endpoints["tx"] = ch
        # Two fragments: the first fills the single side buffer, the
        # second is dropped and the writer blocks awaiting a retry.
        with pytest.raises(ChannelClosedError):
            yield from env.write(ch, 2120)
        return "closed-out"

    def closer(env):
        ch = yield from env.open("fc")
        yield from env.sleep(20_000.0)
        yield from env.close(ch)

    tx = system.spawn(0, writer)
    system.spawn(1, closer)
    system.run()
    assert tx.result == "closed-out"
    endpoint = endpoints["tx"]
    assert endpoint.window == {}
    assert not endpoint.writing
    assert endpoint.writer_event is None
    assert system.nodes[1].metrics.value("chan.naks") >= 1


def test_side_buffer_overflow_recovers_via_retry():
    """Recovery: a dropped fragment is NAK-recorded at the receiver and
    retransmitted after a side buffer frees (CTRL_RETRY), and the counters
    still agree on both sides afterwards."""
    costs = dataclasses.replace(
        DEFAULT_COSTS, chan_batch_window=1, chan_side_buffers=1
    )
    system = VorxSystem(n_nodes=2, costs=costs)
    endpoints = {}

    def writer(env):
        ch = yield from env.open("retry")
        endpoints["tx"] = ch
        yield from env.write(ch, 64, payload="first")
        yield from env.write(ch, 64, payload="second")
        return "sent"

    def reader(env):
        ch = yield from env.open("retry")
        endpoints["rx"] = ch
        # Sleep so both writes arrive while nobody is reading: the first
        # buffers, the second overflows the single side buffer.
        yield from env.sleep(20_000.0)
        payloads = []
        for _ in range(2):
            _, payload = yield from env.read(ch)
            payloads.append(payload)
        return payloads

    tx = system.spawn(0, writer)
    rx = system.spawn(1, reader)
    system.run()
    assert tx.result == "sent"
    assert rx.result == ["first", "second"]
    assert system.nodes[1].metrics.value("chan.naks") >= 1
    assert system.nodes[0].metrics.value("chan.retransmits") >= 1
    # Even through the retransmission the two sides count the same two
    # acknowledged fragments.
    assert endpoints["tx"].messages_sent == 2
    assert endpoints["rx"].messages_received == 2


def test_channel_stream_rtt_histogram_matches_table2_anchor():
    """The per-write RTT histogram on a 4-byte stream must report a p50
    and mean consistent with the paper's ~303 us/message Table 2 cell."""
    from repro.vorx.sliding_window import run_channel_stream

    result = run_channel_stream(message_bytes=4, n_messages=300)
    assert result.vstat is not None
    histogram = result.vstat.registry("node0").get("chan.write_rtt_us")
    assert histogram is not None
    assert histogram.count == 300
    assert 280.0 <= histogram.mean <= 330.0
    assert 250.0 <= histogram.percentile(50) <= 360.0
    # Sender's 300 writes plus the receiver's handshake write, summed
    # over every node's registry.
    total = sum(
        reg.get("chan.write_rtt_us").count
        for reg in result.vstat.registries.values()
        if reg.get("chan.write_rtt_us") is not None
    )
    assert total == 301


# ----------------------------------------------------------------------
# batched-write close and crash recovery (adaptive-window PR bugfix sweep)
# ----------------------------------------------------------------------
def test_peer_close_during_batched_write_wakes_blocked_writer():
    """Regression: a peer close() while the batched writer is blocked on
    a full window must wake the writer with ChannelClosedError instead
    of leaving it blocked forever (the reader never consumes, so no
    deferred ack will ever free a window slot)."""
    costs = DEFAULT_COSTS.batched(window=4)
    outcome = {}

    system = VorxSystem(n_nodes=2, costs=costs)

    def writer(env):
        ch = yield from env.open("batch-close")
        try:
            # 20 fragments against a window of 4 and a reader that never
            # reads: the writer fills the window and blocks.
            yield from env.write(ch, 20 * costs.hpc_max_message)
            outcome["write"] = "completed"
        except ChannelClosedError:
            outcome["write"] = "closed"

    def reader(env):
        ch = yield from env.open("batch-close")
        # Give the writer time to fill its window and block, then close
        # without ever reading.
        yield from env.sleep(5_000.0)
        yield from env.close(ch)

    system.spawn(0, writer)
    system.spawn(1, reader)
    system.run()  # unbounded: a stuck writer would hang this forever
    assert outcome["write"] == "closed"


def _crash_mid_write(costs, crash_at=3_000.0):
    """Batched (or stop-and-wait) bulk write whose reader node crashes."""
    from repro import FaultPlan

    plan = FaultPlan(
        seed=5,
        node_crashes={1: crash_at},
        channel_retry_timeout_us=1_000.0,
    )
    system = VorxSystem(n_nodes=2, costs=costs, faults=plan)
    outcome = {}

    def writer(env):
        ch = yield from env.open("crash")
        try:
            yield from env.write(ch, 40 * costs.hpc_max_message)
            outcome["write"] = "completed"
        except ChannelClosedError:
            outcome["write"] = "closed"

    def reader(env):
        ch = yield from env.open("crash")
        while True:
            yield from env.read(ch)

    system.spawn(0, writer)
    system.spawn(1, reader)
    system.run()  # unbounded: must terminate without a watchdog livelock
    return outcome, system


def test_batched_writer_unblocks_when_reader_node_crashes():
    """Regression: a reader node crash (crash-only fault plan, no link
    faults) silently swallows every fragment and ack.  The batch
    watchdog used to retransmit to the dead node forever; it must fail
    the writer with ChannelClosedError instead."""
    outcome, system = _crash_mid_write(DEFAULT_COSTS.batched(window=8))
    assert outcome["write"] == "closed"
    node0 = system.sim.vstat.registry("node0")
    assert node0.value("chan.peer_crash_aborts") >= 1


def test_stop_and_wait_writer_unblocks_when_reader_node_crashes():
    outcome, system = _crash_mid_write(DEFAULT_COSTS.unbatched())
    assert outcome["write"] == "closed"
    node0 = system.sim.vstat.registry("node0")
    assert node0.value("chan.peer_crash_aborts") >= 1


def test_crash_armed_watchdog_keeps_fault_free_timing_bit_identical():
    """A crash plan whose crash never arrives arms the watchdogs for
    every write, but the age gate must keep fault-free timing exactly
    as without any plan: same per-write completion times, and exactly
    zero retransmissions or duplicate drops."""
    from repro import FaultPlan

    def timed_writes(faults):
        system = VorxSystem(n_nodes=2, costs=DEFAULT_COSTS, faults=faults)
        completions = []

        def writer(env):
            ch = yield from env.open("timing")
            for i in range(4):
                yield from env.write(ch, 8 * DEFAULT_COSTS.hpc_max_message,
                                     payload=i)
                completions.append(env.now)

        def reader(env):
            ch = yield from env.open("timing")
            for _ in range(4 * 8):
                yield from env.read(ch)

        system.spawn(0, writer)
        system.spawn(1, reader)
        system.run()
        return completions, system

    clean, _ = timed_writes(None)
    armed_plan = FaultPlan(seed=1, node_crashes={1: 10.0**9})
    armed, system = timed_writes(armed_plan)
    assert armed == clean  # bit-identical write-completion times
    node0 = system.sim.vstat.registry("node0")
    assert node0.value("chan.timeout_retransmits") == 0
    assert node0.value("chan.retransmits") == 0
    node1 = system.sim.vstat.registry("node1")
    assert node1.value("chan.duplicate_drops") == 0
