"""The reader-active sliding-window benchmark protocol (Section 4.1, Table 1).

Paper: *"we benchmarked a sliding-window user-defined protocol that
allowed messages of some fixed length to be sent between two processors.
Both the sender and receiver know the length of the messages.  The
receiver initially sends k buffer-available messages to the sender, where
k is the maximum number of messages that fit in its available buffer
space, and thereafter sends one buffer-available message each time a
message is received.  The sender keeps its own count of the number of
receiver buffers available ...  if the count is greater than zero, the
sender can send a message immediately, otherwise it blocks until the
count becomes greater than zero.  For our benchmark, the sender
transmitted 1000 messages and the resulting communication latency is
computed by dividing the elapsed time by 1000."*

This module implements exactly that protocol on VORX user-defined
communications objects (no supervisor calls; application-level interrupt
handlers) and provides :func:`run_sliding_window` which reproduces one
cell of Table 1, plus :func:`run_channel_stream` for the matching Table 2
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.vorx.system import VorxSystem


@dataclass(frozen=True)
class StreamResult:
    """Outcome of a 1000-message stream benchmark."""

    n_messages: int
    message_bytes: int
    n_buffers: Optional[int]  # None for the channel (stop-and-wait) runs
    elapsed_us: float
    #: The run's metrics/trace hub (``Vstat``), for post-hoc inspection.
    vstat: Optional[object] = None
    #: The run's simulator, for engine-level statistics such as
    #: ``sim.processed``.
    sim: Optional[object] = None

    @property
    def us_per_message(self) -> float:
        """The paper's metric: elapsed time divided by message count."""
        return self.elapsed_us / self.n_messages

    @property
    def kbytes_per_sec(self) -> float:
        """Throughput in kbyte/s (Section 4's bandwidth metric)."""
        total = self.n_messages * self.message_bytes
        return total / (self.elapsed_us / 1e6) / 1024.0


def run_sliding_window(
    n_buffers: int,
    message_bytes: int,
    n_messages: int = 1000,
    costs: CostModel = DEFAULT_COSTS,
    credit_batch: int = 1,
) -> StreamResult:
    """Reproduce one Table 1 cell.

    Two nodes on one cluster; the receiver grants ``n_buffers`` initial
    credits and one credit per message consumed; the sender transmits
    ``n_messages`` fixed-length messages; result is elapsed/n.

    ``credit_batch`` is the Section 4.1 tuning knob: "To obtain improved
    performance, the number of update messages should be kept small, but
    should be sent often enough to maintain concurrency between the
    sender and the receiver."  With ``credit_batch=b`` the receiver sends
    one buffer-available message per ``b`` messages consumed, each worth
    ``b`` credits (``b`` must divide into the window; 1 reproduces
    Table 1's protocol exactly).
    """
    if n_buffers < 1:
        raise ValueError(f"need at least one buffer, got {n_buffers}")
    if credit_batch < 1 or credit_batch > n_buffers:
        raise ValueError(
            f"credit_batch must be in 1..{n_buffers}, got {credit_batch}"
        )
    system = VorxSystem(n_nodes=2, costs=costs)
    done: dict[str, float] = {}

    def sender(env):
        credits = env.semaphore(0, name="credits")

        def on_credit(packet):
            # ISR context: account the credit(s) and wake the sender.
            yield env.kernel.isr_exec(costs.sw_credit_recv)
            for _ in range(packet.payload or 1):
                credits.v()

        obj = yield from env.create_object("sw-bench", handler=on_credit)
        # Wait for the receiver's initial credit burst before timing.
        yield from env.p(credits)
        credits.v()
        start = env.now
        stalls = env.kernel.metrics.counter("sw.credit_stalls")
        stall_time = env.kernel.metrics.counter("sw.credit_stall_us")
        for _ in range(n_messages):
            # The Table 1 stall: window exhausted, sender blocks until a
            # buffer-available message restores credit.
            if credits.value == 0:
                stalls.inc()
                stalled_from = env.now
                yield from env.p(credits)
                stall_time.inc(env.now - stalled_from)
            else:
                yield from env.p(credits)
            # Per-message user-level bookkeeping: window count, buffer
            # management, loop control.
            yield from env.compute(costs.sw_send_user, label="sw-send")
            yield from env.obj_send(obj, message_bytes)
        done["send_elapsed"] = env.now - start

    def receiver(env):
        available = env.semaphore(0, name="arrivals")
        arrivals: list = []

        def on_data(packet):
            # ISR context: note the arrival; consumption happens in the
            # main loop (this is the "simple protocol" of the paper, not
            # the hand-optimised kernel channel path).
            arrivals.append(packet)
            yield env.kernel.isr_exec(costs.semaphore_op)
            available.v()

        obj = yield from env.create_object("sw-bench", handler=on_data)
        # Initial window: k buffer-available messages (batched credits
        # grant the same total window in fewer messages).
        granted = 0
        while granted < n_buffers:
            grant = min(credit_batch, n_buffers - granted)
            yield from env.compute(costs.sw_credit_send, label="sw-credit")
            yield from env.obj_send(obj, costs.sw_credit_bytes, payload=grant)
            granted += grant
        pending_credits = 0
        consumed = 0
        while consumed < n_messages:
            # Block until something arrives, then drain everything
            # available before turning to credit generation -- the
            # natural "process all input, then update the window" loop
            # structure.  One buffer-available message is still sent per
            # message received, but they go out as a clump, which is what
            # sustains the per-window sender stall visible in Table 1.
            yield from env.p(available)
            batch = 1
            arrivals.pop(0)
            yield from env.compute(
                costs.sw_consume_user
                + costs.sw_consume_per_byte * message_bytes,
                label="sw-consume",
            )
            while available.try_p():
                arrivals.pop(0)
                yield from env.compute(
                    costs.sw_consume_user
                    + costs.sw_consume_per_byte * message_bytes,
                    label="sw-consume",
                )
                batch += 1
            consumed += batch
            pending_credits += batch
            # One buffer-available message per `credit_batch` consumed
            # (the remainder is flushed at the end of the stream).
            while pending_credits >= credit_batch or (
                consumed >= n_messages and pending_credits > 0
            ):
                grant = min(credit_batch, pending_credits)
                pending_credits -= grant
                yield from env.compute(costs.sw_credit_send,
                                       label="sw-credit")
                yield from env.obj_send(obj, costs.sw_credit_bytes,
                                        payload=grant)

    tx = system.spawn(0, sender, name="sw-sender")
    rx = system.spawn(1, receiver, name="sw-receiver")
    system.run_until_complete([tx, rx])
    return StreamResult(
        n_messages=n_messages,
        message_bytes=message_bytes,
        n_buffers=n_buffers,
        elapsed_us=done["send_elapsed"],
        vstat=system.sim.vstat,
        sim=system.sim,
    )


def run_large_write(
    total_bytes: int = 1_048_576,
    chunk_bytes: int = 65_536,
    costs: CostModel = DEFAULT_COSTS,
    reader_delay_us: float = 0.0,
    faults=None,
) -> StreamResult:
    """Stream ``total_bytes`` down one channel in large fragmented writes.

    The Section 4 bandwidth scenario: each ``chunk_bytes`` write
    fragments into many hardware messages, so this is the workload the
    batched write path (``costs.chan_batch_window > 1``: one syscall,
    up to ``k`` fragments in flight) exists for.  With the default
    stop-and-wait costs it measures the same per-fragment overhead as
    the Table 2 stream; with :meth:`~repro.model.costs.CostModel.batched`
    costs it measures the amortized large-write path.

    ``elapsed_us`` runs from the first write entering the kernel to the
    last fragment acknowledged; :attr:`StreamResult.kbytes_per_sec` is
    then directly comparable with the Table 1 bandwidth column.

    ``reader_delay_us`` makes the receiver compute for that long after
    every fragment it reads -- the slow-reader case the adaptive window
    exists for (deferred acks pace the writer to the reader, so the
    reader's compute time is on the flow-control path).  ``faults``
    attaches a :class:`~repro.faults.plan.FaultPlan` so bulk writes can
    be measured under seeded loss.
    """
    if total_bytes < 1 or chunk_bytes < 1:
        raise ValueError("total_bytes and chunk_bytes must be positive")
    n_chunks, remainder = divmod(total_bytes, chunk_bytes)
    if remainder:
        raise ValueError(
            f"chunk_bytes ({chunk_bytes}) must divide total_bytes "
            f"({total_bytes})"
        )
    frags_per_chunk = -(-chunk_bytes // costs.hpc_max_message)
    system = VorxSystem(n_nodes=2, costs=costs, faults=faults)
    done: dict[str, float] = {}

    def sender(env):
        ch = yield from env.open("bulk-bench")
        # Handshake so timing starts with both sides ready.
        yield from env.read(ch)
        start = env.now
        for i in range(n_chunks):
            yield from env.write(ch, chunk_bytes, payload=i)
        done["send_elapsed"] = env.now - start

    def receiver(env):
        ch = yield from env.open("bulk-bench")
        yield from env.write(ch, 4)
        for _ in range(n_chunks * frags_per_chunk):
            yield from env.read(ch)
            if reader_delay_us > 0.0:
                yield from env.compute(reader_delay_us)

    tx = system.spawn(0, sender, name="bulk-sender")
    rx = system.spawn(1, receiver, name="bulk-receiver")
    system.run_until_complete([tx, rx])
    return StreamResult(
        n_messages=n_chunks,
        message_bytes=chunk_bytes,
        n_buffers=None,
        elapsed_us=done["send_elapsed"],
        vstat=system.sim.vstat,
        sim=system.sim,
    )


def run_channel_stream(
    message_bytes: int,
    n_messages: int = 1000,
    costs: CostModel = DEFAULT_COSTS,
) -> StreamResult:
    """Reproduce one Table 2 cell: a channel (stop-and-wait) stream."""
    system = VorxSystem(n_nodes=2, costs=costs)
    done: dict[str, float] = {}

    def sender(env):
        ch = yield from env.open("chan-bench")
        # Handshake so timing starts with both sides ready.
        yield from env.read(ch)
        start = env.now
        for _ in range(n_messages):
            yield from env.write(ch, message_bytes)
        done["send_elapsed"] = env.now - start

    def receiver(env):
        ch = yield from env.open("chan-bench")
        yield from env.write(ch, 4)
        for _ in range(n_messages):
            yield from env.read(ch)

    tx = system.spawn(0, sender, name="chan-sender")
    rx = system.spawn(1, receiver, name="chan-receiver")
    system.run_until_complete([tx, rx])
    return StreamResult(
        n_messages=n_messages,
        message_bytes=message_bytes,
        n_buffers=None,
        elapsed_us=done["send_elapsed"],
        vstat=system.sim.vstat,
        sim=system.sim,
    )
