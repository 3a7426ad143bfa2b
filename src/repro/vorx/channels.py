"""VORX channels: named, dynamically created message-passing connections.

Paper Sections 3.2 and 4: a channel has an arbitrary name; two processes
rendezvous by opening the same name (the open is handled by the object
manager responsible for that name).  Data moves with read/write calls
under one acknowledged protocol: the writer's kernel sends the data and
blocks the writer until the receiving kernel acknowledges.  If the
receiver has no side-buffer space (rare -- "the kernel has many side
buffers"), it requests retransmission once space frees.

A write is a window of in-flight fragments.  The paper's
**stop-and-wait** is a window of one (every single-fragment write, and
every write under :meth:`~repro.model.costs.CostModel.unbatched`); a
*batched* multi-fragment write keeps a fixed window or an AIMD window
(:meth:`~repro.model.costs.CostModel.adaptive`) in flight on the same
state machine -- a fixed window is AIMD with grow and shrink turned off.
Acks are cumulative, retransmission is go-back-N, and one timeout
watchdog per write backs up loss recovery under fault plans.

There are also the specialised calls the paper describes: *multiplexed
read* (block until data arrives on any of several channels) and server
name reuse (FIFO pairing at the object manager lets a server re-open the
same name repeatedly).

Latency anchor: a 1000-message stream of 4-byte writes measures ~303
us/message (Table 2); the per-byte slope is two CPU copies plus two wire
hops (~0.68 us/byte).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.hpc.message import MessageKind, Packet
from repro.vorx.errors import (
    ChannelBusyError,
    ChannelClosedError,
    ChannelStateError,
)
from repro.vorx.subprocesses import BlockReason, Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.vorx.kernel import NodeKernel


class ChannelEndpoint:
    """One side of a channel, owned by a kernel."""

    def __init__(self, eid: int, name: str, sp: Subprocess) -> None:
        self.eid = eid
        self.name = name
        self.sp = sp
        self.peer_addr: Optional[int] = None
        self.peer_eid: Optional[int] = None
        self.open = False
        self.closed = False
        #: Buffered arrivals: ``(size, payload, owed_ack)`` tuples.
        #: ``owed_ack`` is ``None`` when the fragment was acknowledged at
        #: the ISR (stop-and-wait), or the ``(xfer, src, src_channel)``
        #: address of the deferred acknowledgement a *batched* fragment
        #: earns only when a reader consumes the buffer.
        self.side_buffers: deque[tuple[int, Any, Any]] = deque()
        #: Event a blocked reader waits on (shared for multiplexed reads).
        self.reader_event: Optional["Event"] = None
        #: Endpoints sharing the reader event (multiplexed read group).
        self.read_group: Optional[list["ChannelEndpoint"]] = None
        #: Event the blocked writer waits on (a window slot, or the final
        #: drain of the window).
        self.writer_event: Optional["Event"] = None
        #: Next outgoing transfer id (stamps each fragment so the peer
        #: can discard duplicates created by faults or retransmission).
        self.next_xfer = 0
        #: Highest transfer id delivered from the peer (duplicate filter).
        self.last_xfer = -1
        #: In-flight unacknowledged fragments of the current write, keyed
        #: by transfer id: ``(size, payload, sent_at)``.  Fragments are
        #: retired oldest first, so the keys are always the contiguous
        #: run ending at ``next_xfer - 1`` and the oldest entry is
        #: ``next_xfer - len(window)``.  ``sent_at`` feeds the adaptive
        #: window's ack-RTT estimator and the watchdog's age gate.
        self.window: dict[int, tuple[int, Any, float]] = {}
        #: True for the whole duration of a write -- spans the moments
        #: when the window is empty between fragments, so the busy check
        #: sees one write, not many.
        self.writing = False
        #: True while the current write is *batched*: more than one
        #: fragment under a window that may exceed one.  It selects the
        #: batched kernel charges, the deferred-ack ``batched`` packet
        #: flag, and the window policy (see ``_window_limit``).
        self.batched = False
        #: Adaptive (AIMD) congestion window in fragments, persistent
        #: across writes on this endpoint.  ``None`` until the first
        #: batched write under an adaptive cost model seeds it from
        #: ``chan_batch_window``.
        self.cwnd: Optional[float] = None
        #: EWMA-smoothed ack round-trip time (0.0 = no sample yet).
        self.srtt = 0.0
        #: Transfer ids re-sent at least once: per Karn's algorithm their
        #: acks yield no RTT sample (the sample would be ambiguous).
        self.retransmitted: set[int] = set()
        #: Shrink cooldown marker: shrink triggers attributed to transfer
        #: ids below this are ignored, so one loss/pressure episode
        #: shrinks the window once, not once per fragment.
        self.recover_until = 0
        #: While the writer is blocked: wake it once ``len(window)``
        #: drops below this threshold (slot freed, or fully drained).
        self.wake_below = 0
        #: Fragments we dropped (buffer starvation or a sequence gap)
        #: that are owed a pull-retransmission: each consuming read pulls
        #: exactly one CTRL_RETRY, so retry traffic tracks the reader's
        #: pace instead of flooding.
        self.owed_pulls = 0
        #: Statistics reported by the communications debugger.  Both ends
        #: count *fragments* (the unit actually acknowledged on the wire),
        #: so the two sides of a fragmented write agree.
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- state summary for cdb --------------------------------------------
    @property
    def reader_blocked(self) -> bool:
        return self.reader_event is not None

    @property
    def writer_blocked(self) -> bool:
        return self.writer_event is not None

    def __repr__(self) -> str:
        return (
            f"<ChannelEndpoint {self.name!r} eid={self.eid} "
            f"peer={self.peer_addr}:{self.peer_eid} open={self.open}>"
        )


#: Control sub-kinds carried in CHANNEL_CTRL packets.
CTRL_CLOSE = "close"
CTRL_RETRY = "retry"


class ChannelService:
    """Per-kernel channel implementation."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        self.endpoints: dict[int, ChannelEndpoint] = {}
        self._next_eid = 1
        metrics = kernel.metrics
        self._m_frags_sent = metrics.counter("chan.fragments_sent")
        self._m_frags_received = metrics.counter("chan.fragments_received")
        self._m_bytes_sent = metrics.counter("chan.bytes_sent")
        self._m_bytes_received = metrics.counter("chan.bytes_received")
        self._m_writes = metrics.counter("chan.writes")
        self._m_naks = metrics.counter("chan.naks")
        self._m_retransmits = metrics.counter("chan.retransmits")
        #: Fault-recovery accounting (only move when a FaultPlan is live).
        self._m_timeout_retransmits = metrics.counter(
            "chan.timeout_retransmits"
        )
        self._m_corrupt_drops = metrics.counter("chan.corrupt_drops")
        self._m_duplicate_drops = metrics.counter("chan.duplicate_drops")
        #: Whole-write round-trip latency (syscall entry to final ack).
        self._m_write_rtt = metrics.histogram("chan.write_rtt_us")
        #: Adaptive-window observability: current effective window (the
        #: gauge's high-water mark records the largest window reached)
        #: and the number of multiplicative-decrease events.
        self._m_window_size = metrics.gauge("chan.window.size")
        self._m_window_shrinks = metrics.counter("chan.window.shrinks")
        kernel.register_handler(MessageKind.CHANNEL_DATA, self.on_data)
        kernel.register_handler(MessageKind.CHANNEL_ACK, self.on_ack)
        kernel.register_handler(MessageKind.CHANNEL_CTRL, self.on_ctrl)

    # ------------------------------------------------------------------
    # adaptive window (AIMD) helpers
    # ------------------------------------------------------------------
    def _window_cap(self) -> int:
        """Upper clamp for the effective window."""
        costs = self.kernel.costs
        cap = costs.chan_side_buffers
        if costs.chan_window_max:
            cap = min(cap, costs.chan_window_max)
        return cap

    def _window_limit(self, endpoint: ChannelEndpoint) -> int:
        """How many fragments the current write may have in flight.

        Stop-and-wait (a single-fragment write, or any write under
        ``unbatched()``): 1.  Fixed window: ``min(chan_batch_window,
        chan_side_buffers)``.  Adaptive mode: the integer part of the
        endpoint's AIMD ``cwnd``, clamped to ``[chan_window_min,
        min(chan_window_max or chan_side_buffers, chan_side_buffers)]``.
        """
        costs = self.kernel.costs
        if not endpoint.batched:
            return 1
        if not costs.chan_window_adaptive:
            return min(costs.chan_batch_window, costs.chan_side_buffers)
        if endpoint.cwnd is None:
            endpoint.cwnd = float(
                min(costs.chan_batch_window, self._window_cap())
            )
        return max(
            costs.chan_window_min,
            min(self._window_cap(), int(endpoint.cwnd)),
        )

    def _window_grow(self, endpoint: ChannelEndpoint, n_acked: int) -> None:
        """Additive increase: ``ai`` fragments per window's-worth of acks."""
        costs = self.kernel.costs
        old = self._window_limit(endpoint)  # seeds cwnd if needed
        endpoint.cwnd = min(
            float(self._window_cap()),
            endpoint.cwnd + costs.chan_window_ai * n_acked / max(old, 1),
        )
        new = self._window_limit(endpoint)
        if new != old:
            self._m_window_size.set(float(new))
            self.kernel.emit("channel", "channel-window", data=endpoint.name,
                             eid=endpoint.eid, size=new)

    def _window_shrink(
        self, endpoint: ChannelEndpoint, trigger_xfer: Optional[int],
        reason: str,
    ) -> bool:
        """Multiplicative decrease, at most once per loss/pressure episode.

        ``trigger_xfer`` attributes the trigger to a fragment: triggers
        from fragments sent before the last shrink (below
        :attr:`ChannelEndpoint.recover_until`) are echoes of the same
        episode and are ignored.  Only a batched write under an adaptive
        model shrinks; every other window is fixed.  Returns True if the
        window shrank.
        """
        costs = self.kernel.costs
        if not (endpoint.batched and costs.chan_window_adaptive) or (
            trigger_xfer is not None and trigger_xfer < endpoint.recover_until
        ):
            return False
        endpoint.recover_until = endpoint.next_xfer
        old = self._window_limit(endpoint)  # seeds cwnd if needed
        endpoint.cwnd = max(
            float(costs.chan_window_min),
            endpoint.cwnd * costs.chan_window_md,
        )
        self._m_window_shrinks.inc()
        new = self._window_limit(endpoint)
        self._m_window_size.set(float(new))
        self.kernel.emit("channel", "channel-window-shrink",
                         data=endpoint.name, eid=endpoint.eid,
                         reason=reason, size=new)
        return True

    def _ack_pressure(self, endpoint: ChannelEndpoint) -> Optional[float]:
        """Side-buffer occupancy fraction piggybacked on batched acks.

        Only attached under an adaptive cost model, so the fixed-window
        and stop-and-wait ack wire format is unchanged.
        """
        costs = self.kernel.costs
        if not costs.chan_window_adaptive:
            return None
        return len(endpoint.side_buffers) / costs.chan_side_buffers

    # ------------------------------------------------------------------
    # open / close (subprocess context)
    # ------------------------------------------------------------------
    def open(self, sp: Subprocess, name: str):
        """Generator: open ``name``; returns the endpoint when paired."""
        kernel = self.kernel
        kernel.count_syscall("chan_open")
        endpoint = ChannelEndpoint(self._next_eid, name, sp)
        self._next_eid += 1
        self.endpoints[endpoint.eid] = endpoint
        yield kernel.k_exec(kernel.costs.syscall_overhead)
        peer_addr, peer_eid = yield from kernel.manager.request(
            sp, "open", name, kind="channel", id=endpoint.eid
        )
        endpoint.peer_addr = peer_addr
        endpoint.peer_eid = peer_eid
        endpoint.open = True
        kernel.metrics.counter("chan.opens").inc()
        kernel.emit("channel", "channel-open", data=name, eid=endpoint.eid,
                    peer=peer_addr)
        if endpoint.closed:
            # Closed while the rendezvous was still in flight: the peer
            # could not be notified then, so tell it now.
            kernel.post(
                dst=peer_addr,
                size=kernel.costs.chan_ack_bytes,
                kind=MessageKind.CHANNEL_CTRL,
                channel=peer_eid,
                payload=CTRL_CLOSE,
            )
        return endpoint

    def close(self, sp: Subprocess, endpoint: ChannelEndpoint):
        """Generator: close our side and notify the peer.

        Closing is always safe: an endpoint whose open has not completed
        yet (no peer paired, ``peer_addr`` still None) is simply marked
        closed -- there is no peer kernel to notify.
        """
        kernel = self.kernel
        kernel.count_syscall("chan_close")
        yield kernel.k_exec(kernel.costs.syscall_overhead)
        already_closed = endpoint.closed
        endpoint.closed = True
        kernel.metrics.counter("chan.closes").inc()
        kernel.emit("channel", "channel-close", data=endpoint.name,
                    eid=endpoint.eid, paired=endpoint.peer_addr is not None)
        if already_closed or endpoint.peer_addr is None:
            return
        # The close carries the highest transfer id we delivered, so a
        # writer whose final ack was lost can tell delivered-then-closed
        # from closed-with-data-lost.
        kernel.post(
            dst=endpoint.peer_addr,
            size=kernel.costs.chan_ack_bytes,
            kind=MessageKind.CHANNEL_CTRL,
            channel=endpoint.peer_eid,
            payload=CTRL_CLOSE,
            xfer=endpoint.last_xfer if endpoint.last_xfer >= 0 else None,
        )

    # ------------------------------------------------------------------
    # write (subprocess context): windowed fragmentation
    # ------------------------------------------------------------------
    def write(self, sp: Subprocess, endpoint: ChannelEndpoint, nbytes: int,
              payload: Any = None):
        """Generator: send ``nbytes`` (fragmented at the hardware maximum).

        The writer stays blocked until the receiving kernel has
        acknowledged every fragment.  The kernel never copies the data to
        a safe place -- the writer stays blocked, so its buffer is stable
        (the paper's justification for stop-and-wait error recovery).  Up
        to :meth:`_window_limit` fragments may be unacknowledged at once.

        A window-1 write is the paper's stop-and-wait: one
        ``syscall_overhead`` charge, then ``chan_send_kernel`` plus the
        copy per fragment, each fragment acknowledged at the receiver's
        ISR.  A *batched* write (more than one fragment, and
        ``chan_batch_window > 1`` or an adaptive model) is the paper's
        "one system call, many wire events" large write: one
        ``syscall_overhead + chan_batch_setup`` charge, then
        ``chan_batch_frag_kernel`` plus the copy per fragment.  The
        receiving kernel acknowledges a batched fragment it
        *side-buffers* only when a reader consumes it (see
        :meth:`on_data` / :meth:`read`), so the window advances at the
        reader's pace and the sender never runs more than
        ``chan_side_buffers`` fragments ahead.

        Loss recovery is go-back-N: the receiver accepts fragments only
        in transfer-id order (a gap is dropped unacknowledged),
        acknowledgements are cumulative, and retransmission of the
        *oldest* window entry is pulled by the receiver (CTRL_RETRY) or
        pushed by the write's timeout watchdog when a fault plan can
        lose messages outright.
        """
        kernel = self.kernel
        costs = kernel.costs
        self._require_open(endpoint)
        kernel.count_syscall("chan_write")
        if endpoint.writing:
            raise ChannelBusyError(
                f"channel {endpoint.name!r} already has a write outstanding"
            )
        if nbytes < 0:
            raise ValueError(f"negative write length: {nbytes}")
        max_fragment = costs.hpc_max_message
        batched = nbytes > max_fragment and (
            costs.chan_batch_window > 1 or costs.chan_window_adaptive
        )
        if batched:
            setup, per_fragment = (
                costs.chan_batch_setup, costs.chan_batch_frag_kernel
            )
        else:
            setup, per_fragment = 0.0, costs.chan_send_kernel
        injector = kernel.sim.faults
        arm_watchdog = injector is not None and injector.can_lose_messages
        window = endpoint.window
        started_at = kernel.sim.now
        endpoint.writing = True
        endpoint.batched = batched
        try:
            yield kernel.k_exec(costs.syscall_overhead + setup)
            if batched:
                self._m_window_size.set(float(self._window_limit(endpoint)))
            remaining = nbytes
            first = True
            while first or remaining > 0:
                fragment = min(remaining, max_fragment)
                remaining -= fragment
                last = remaining == 0
                yield kernel.k_exec(per_fragment + costs.copy_time(fragment))
                if endpoint.closed or endpoint.peer_addr is None:
                    raise ChannelClosedError(
                        f"channel {endpoint.name!r} closed"
                    )
                xfer = endpoint.next_xfer
                endpoint.next_xfer += 1
                frag_payload = payload if last else None
                window[xfer] = (fragment, frag_payload, kernel.sim.now)
                self._post_fragment(endpoint, xfer, fragment, frag_payload)
                if first and arm_watchdog:
                    # One watchdog guards the whole write; it learns the
                    # transfer id of the write's final fragment.
                    kernel.sim.process(self._watchdog(
                        endpoint, xfer + -(-remaining // max_fragment)
                    ))
                first = False
                # Block while the window is full -- or, after the last
                # fragment, until every acknowledgement has drained.  The
                # limit is re-read after every wake: in adaptive mode
                # acks may have grown it, a loss or pressure episode may
                # have shrunk it.
                while True:
                    limit = 1 if last else self._window_limit(endpoint)
                    if len(window) < limit:
                        break
                    ack = kernel.sim.event()
                    endpoint.writer_event = ack
                    endpoint.wake_below = limit
                    try:
                        yield from kernel.block(sp, BlockReason.OUTPUT, ack)
                    finally:
                        endpoint.writer_event = None
                        endpoint.wake_below = 0
        finally:
            endpoint.writing = False
            window.clear()
            endpoint.retransmitted.clear()
        self._m_writes.value += 1.0
        if batched:
            kernel.metrics.counter("chan.batched_writes").inc()
        self._m_write_rtt.observe(kernel.sim.now - started_at)

    def _post_fragment(self, endpoint: ChannelEndpoint, xfer: int, size: int,
                       payload: Any) -> None:
        """Put one window entry on the wire (first send or re-send)."""
        self.kernel.post(
            dst=endpoint.peer_addr,
            size=size,
            kind=MessageKind.CHANNEL_DATA,
            channel=endpoint.peer_eid,
            src_channel=endpoint.eid,
            payload=payload,
            xfer=xfer,
            batched=endpoint.batched,
        )

    @staticmethod
    def _write_ended(endpoint: ChannelEndpoint, last: int) -> bool:
        """True once transfer ``last`` is acknowledged or the channel closed.

        Acks retire the window oldest first, so ``last`` is acknowledged
        exactly when it has been sent and the oldest in-flight transfer
        id (``next_xfer`` itself when the window is empty) is past it.
        """
        return endpoint.closed or (
            endpoint.next_xfer - len(endpoint.window) > last
        )

    def _watchdog(self, endpoint: ChannelEndpoint, last: int):
        """Generator (kernel context): go-back-N timeout retransmission.

        Armed once per write, only while a fault plan can lose messages
        (link loss *or* a possible node crash).  Each period it re-sends
        the oldest unacknowledged window entry once that entry has
        actually been outstanding for a full period (the age gate keeps a
        merely-armed watchdog from perturbing fault-free timing); the
        receiver's in-order filter makes a spurious re-send harmless
        (duplicate -> immediate re-ack).  A crashed peer never
        acknowledges and silently swallows every retransmission, so the
        watchdog checks for it first and fails the write instead of
        retransmitting forever.  It exits at its first wake after its own
        write has ended -- transfer ``last``, the write's final fragment,
        acknowledged, or the channel closed -- so back-to-back writes
        never keep an older watchdog alive.
        """
        kernel = self.kernel
        period = kernel.sim.faults.plan.channel_retry_timeout_us
        window = endpoint.window
        while True:
            yield kernel.sim.timeout(period)
            if self._write_ended(endpoint, last):
                return
            if self._abort_if_peer_crashed(endpoint):
                return
            if not window:
                continue  # between fragments; the write is still active
            xfer = endpoint.next_xfer - len(window)
            size, frag_payload, sent_at = window[xfer]
            # Compared as a sum: the first wake lands exactly on
            # ``sent_at + period``, where ``now - sent_at`` could round
            # below ``period`` and skip it.
            if kernel.sim.now < sent_at + period:
                continue  # not stale yet: the ack is plausibly in flight
            endpoint.retransmitted.add(xfer)
            self._window_shrink(endpoint, xfer, "timeout")
            self._m_timeout_retransmits.inc()
            kernel.emit("channel", "channel-timeout-retransmit",
                        data=endpoint.name, eid=endpoint.eid, size=size,
                        xfer=xfer)
            yield kernel.k_exec(
                kernel.costs.chan_send_kernel + kernel.costs.copy_time(size)
            )
            # The ack or a close may have raced in while we were charging.
            if self._write_ended(endpoint, last):
                return
            if xfer in window:
                self._post_fragment(endpoint, xfer, size, frag_payload)

    def _abort_if_peer_crashed(self, endpoint: ChannelEndpoint) -> bool:
        """Fail a blocked writer whose peer node has crashed.

        Called from the watchdog (it only runs while a fault plan is
        attached).  A crashed node's interfaces silently drop traffic in
        both directions, so no ack, nak, or close will ever arrive: mark
        the endpoint closed and wake the writer with
        :class:`ChannelClosedError`.  Returns True if the peer is down.
        """
        kernel = self.kernel
        injector = kernel.sim.faults
        if (
            injector is None
            or not injector.crash_times
            or endpoint.peer_addr is None
            or not injector.is_crashed(endpoint.peer_addr)
        ):
            return False
        endpoint.closed = True
        kernel.metrics.counter("chan.peer_crash_aborts").inc()
        kernel.emit("channel", "channel-peer-crash-abort",
                    data=endpoint.name, eid=endpoint.eid,
                    peer=endpoint.peer_addr)
        event = endpoint.writer_event
        if event is not None:
            endpoint.writer_event = None
            event.fail(ChannelClosedError(
                f"channel {endpoint.name!r} peer node "
                f"{endpoint.peer_addr} crashed"
            ))
        return True

    # ------------------------------------------------------------------
    # read (subprocess context)
    # ------------------------------------------------------------------
    def read(self, sp: Subprocess, endpoint: ChannelEndpoint):
        """Generator: return ``(nbytes, payload)`` for the next message."""
        kernel = self.kernel
        costs = kernel.costs
        self._require_open(endpoint)
        kernel.count_syscall("chan_read")
        if endpoint.reader_event is not None:
            raise ChannelBusyError(
                f"channel {endpoint.name!r} already has a read outstanding"
            )
        yield kernel.k_exec(costs.syscall_overhead)
        if endpoint.side_buffers:
            size, payload, owed = endpoint.side_buffers.popleft()
            # Second copy: side buffer -> user buffer.
            yield kernel.k_exec(costs.copy_time(size))
            self._pull_retry(endpoint)
            if owed is not None:
                yield from self._send_owed_ack(endpoint, owed)
            return size, payload
        if endpoint.closed:
            raise ChannelClosedError(f"channel {endpoint.name!r} closed")
        event = kernel.sim.event()
        endpoint.reader_event = event
        endpoint.read_group = None  # plain read: no multiplex group
        try:
            size, payload = yield from kernel.block(sp, BlockReason.INPUT, event)
        finally:
            endpoint.reader_event = None
        return size, payload

    def read_any(self, sp: Subprocess, endpoints: list[ChannelEndpoint]):
        """Generator: multiplexed read -- block until any channel has data.

        Returns ``(endpoint, nbytes, payload)``.  This is the paper's
        "multiplexed read in which a process blocks until data arrives
        from one of several channels".
        """
        kernel = self.kernel
        costs = kernel.costs
        if not endpoints:
            raise ValueError("read_any needs at least one channel")
        seen_eids = set()
        for endpoint in endpoints:
            if endpoint.eid in seen_eids:
                # A duplicate would defeat the busy check below (the
                # reader event is only attached after the loop) and
                # corrupt the read-group teardown.
                raise ValueError(
                    f"duplicate channel {endpoint.name!r} (eid "
                    f"{endpoint.eid}) in read_any"
                )
            seen_eids.add(endpoint.eid)
        kernel.count_syscall("chan_read_any")
        yield kernel.k_exec(costs.syscall_overhead)
        # Validate the *whole* group before consuming any side buffer: a
        # not-open or busy endpoint anywhere in the list must reject the
        # call, even when an earlier endpoint already has buffered data.
        # (Validating inside the scan below accepted invalid members that
        # happened to come after the first hit.)
        for endpoint in endpoints:
            self._require_open(endpoint)
            if endpoint.reader_event is not None:
                raise ChannelBusyError(
                    f"channel {endpoint.name!r} already has a read outstanding"
                )
        # Buffered data on any member wins immediately (FIFO by list order).
        for endpoint in endpoints:
            if endpoint.side_buffers:
                size, payload, owed = endpoint.side_buffers.popleft()
                yield kernel.k_exec(costs.copy_time(size))
                self._pull_retry(endpoint)
                if owed is not None:
                    yield from self._send_owed_ack(endpoint, owed)
                return endpoint, size, payload
        if all(endpoint.closed for endpoint in endpoints):
            # Nothing buffered and every member closed: no data can ever
            # arrive, so blocking would hang forever (mirrors the plain
            # read's closed-and-empty behaviour).
            raise ChannelClosedError(
                "read_any: every channel in the group is closed"
            )
        event = kernel.sim.event()
        group = list(endpoints)
        for endpoint in group:
            endpoint.reader_event = event
            endpoint.read_group = group
        try:
            endpoint, size, payload = yield from kernel.block(
                sp, BlockReason.INPUT, event
            )
        finally:
            for member in group:
                member.reader_event = None
                member.read_group = None
        return endpoint, size, payload

    # ------------------------------------------------------------------
    # interrupt-context handlers (called from the kernel ISR)
    # ------------------------------------------------------------------
    def on_data(self, packet: Packet):
        """Generator (ISR context): an incoming channel data message."""
        kernel = self.kernel
        costs = kernel.costs
        if packet.corrupted:
            # Undecodable fragment: read it in, discard it, and ask the
            # sender (addressed by the id in the damaged header's
            # still-checksummed trailer) to retransmit right away.
            yield kernel.isr_exec(
                costs.chan_recv_kernel + costs.copy_time(packet.size)
            )
            self._m_corrupt_drops.inc()
            kernel.emit("channel", "channel-corrupt-drop", src=packet.src,
                        size=packet.size, xfer=packet.xfer)
            yield kernel.isr_exec(costs.chan_ack_send)
            kernel.post(
                dst=packet.src,
                size=costs.chan_ack_bytes,
                kind=MessageKind.CHANNEL_CTRL,
                channel=packet.src_channel,
                payload=CTRL_RETRY,
            )
            return
        endpoint = self.endpoints.get(packet.channel)
        if endpoint is None or endpoint.closed:
            # Stale data for a closed channel: consume and drop.
            yield kernel.isr_exec(costs.chan_recv_kernel)
            return
        yield kernel.isr_exec(
            costs.chan_recv_kernel + costs.copy_time(packet.size)
        )
        if packet.xfer is not None and packet.xfer <= endpoint.last_xfer:
            # Duplicate fragment (injected, or a spurious retransmission
            # after a lost/late ack): discard, but re-ack -- the sender
            # may still be waiting because the first ack was lost.
            self._m_duplicate_drops.inc()
            kernel.emit("channel", "channel-duplicate-drop",
                        data=endpoint.name, eid=endpoint.eid,
                        xfer=packet.xfer)
            yield kernel.isr_exec(costs.chan_ack_send)
            kernel.post(
                dst=packet.src,
                size=costs.chan_ack_bytes,
                kind=MessageKind.CHANNEL_ACK,
                channel=packet.src_channel,
                xfer=packet.xfer,
            )
            if packet.batched:
                # The re-ack is cumulative at the sender and may have
                # freed window slots; pull one owed retransmission so a
                # gap behind this duplicate keeps healing.
                self._pull_retry(endpoint)
            return
        if packet.xfer is not None and packet.xfer > endpoint.last_xfer + 1:
            # Sequence gap: an earlier fragment of a pipelined (batched)
            # write was lost in flight or dropped for starvation.
            # Accepting this one would let the duplicate filter discard
            # the retransmission of the missing fragment, so drop it
            # unacknowledged -- the sender's go-back-N machinery
            # (pull-retries, timeout watchdog) re-sends in order.
            # Unreachable under stop-and-wait, which never advances past
            # an unacknowledged fragment.
            kernel.metrics.counter("chan.ooo_drops").inc()
            kernel.emit("channel", "channel-ooo-drop", data=endpoint.name,
                        eid=endpoint.eid, xfer=packet.xfer)
            endpoint.owed_pulls += 1
            return
        delivered = False
        ack_now = True
        if endpoint.reader_event is not None:
            event = endpoint.reader_event
            group = endpoint.read_group
            if group is None:
                # Plain read: deliver (size, payload).
                endpoint.reader_event = None
                event.succeed((packet.size, packet.payload))
            else:
                # Multiplexed read: identify which channel fired.
                for member in group:
                    member.reader_event = None
                    member.read_group = None
                event.succeed((endpoint, packet.size, packet.payload))
            delivered = True
        elif len(endpoint.side_buffers) < costs.chan_side_buffers:
            if packet.batched:
                # Defer the ack until a reader consumes this buffer:
                # that read is what frees the sender's window slot, so
                # the batched window advances at the reader's pace.
                owed = (packet.xfer, packet.src, packet.src_channel)
                ack_now = False
            else:
                owed = None
            endpoint.side_buffers.append((packet.size, packet.payload, owed))
            delivered = True
        if not delivered:
            # No buffer space: drop and owe a retransmission request,
            # pulled one per consuming read (several pipelined fragments
            # can be dropped back to back).
            endpoint.owed_pulls += 1
            self._m_naks.inc()
            kernel.emit("channel", "channel-nak", data=endpoint.name,
                        eid=endpoint.eid, size=packet.size)
            return
        if packet.xfer is not None:
            endpoint.last_xfer = packet.xfer
        endpoint.messages_received += 1
        endpoint.bytes_received += packet.size
        self._m_frags_received.value += 1.0
        self._m_bytes_received.value += packet.size
        if not ack_now:
            return
        yield kernel.isr_exec(costs.chan_ack_send)
        # Address the ack with the sender's endpoint id from the data
        # header: our own rendezvous reply may still be in flight, so
        # endpoint.peer_eid cannot be relied on here.  The ack echoes the
        # fragment's transfer id so a late re-ack (from the duplicate
        # filter) cannot acknowledge a newer fragment.  Batched acks
        # under an adaptive model also report side-buffer occupancy so
        # the sender's window can back off before starvation.
        kernel.post(
            dst=packet.src,
            size=costs.chan_ack_bytes,
            kind=MessageKind.CHANNEL_ACK,
            channel=packet.src_channel,
            payload=self._ack_pressure(endpoint) if packet.batched else None,
            xfer=packet.xfer,
        )
        if packet.batched:
            # A directly-consumed batched fragment plays the same role as
            # a consuming read: pull one owed retransmission, so gap
            # recovery proceeds one fragment per round trip even while
            # the reader stays blocked in read().
            self._pull_retry(endpoint)

    def on_ack(self, packet: Packet):
        """Generator (ISR context): a cumulative acknowledgement.

        ``packet.xfer`` retires every window entry up to and including
        itself (a lost ack is covered by the next one; a stale re-ack for
        an already-retired fragment retires nothing).  Per-fragment
        counters move here, mirroring the receiver's per-arrival
        counting, so cdb's two directions agree.
        """
        kernel = self.kernel
        yield kernel.isr_exec(kernel.costs.chan_ack_recv)
        if packet.corrupted:
            # An undecodable ack is a lost ack; the writer's watchdog
            # retransmits and the duplicate filter re-acks.
            self._m_corrupt_drops.inc()
            kernel.emit("channel", "channel-corrupt-drop", src=packet.src,
                        size=packet.size, kind="ack")
            return
        endpoint = self.endpoints.get(packet.channel)
        if endpoint is None:
            return
        window = endpoint.window
        entry = window.get(packet.xfer)
        if entry is None:
            return  # stale re-ack for an already-retired fragment
        n_acked = self._retire(endpoint, packet.xfer)
        costs = kernel.costs
        if endpoint.batched and costs.chan_window_adaptive:
            shrunk = False
            # Receiver pressure rides on batched acks as the side-buffer
            # occupancy fraction (see _ack_pressure).
            occupancy = packet.payload
            if (
                isinstance(occupancy, float)
                and occupancy >= costs.chan_pressure_threshold
            ):
                shrunk = self._window_shrink(endpoint, packet.xfer, "pressure")
            # Karn's algorithm: a retransmitted fragment's ack is
            # ambiguous (first send or re-send?), so it yields no RTT
            # sample.  Sample the fragment the ack names.
            if packet.xfer not in endpoint.retransmitted:
                rtt_sample = kernel.sim.now - entry[2]
                if (
                    not shrunk
                    and endpoint.srtt > 0.0
                    and rtt_sample > costs.chan_rtt_inflation * endpoint.srtt
                ):
                    shrunk = self._window_shrink(endpoint, packet.xfer, "rtt")
                alpha = costs.chan_rtt_alpha
                endpoint.srtt = (
                    rtt_sample if endpoint.srtt == 0.0
                    else (1.0 - alpha) * endpoint.srtt + alpha * rtt_sample
                )
            if not shrunk:
                self._window_grow(endpoint, n_acked)
        event = endpoint.writer_event
        if event is not None and len(window) < endpoint.wake_below:
            endpoint.writer_event = None
            event.succeed()

    def _retire(self, endpoint: ChannelEndpoint, through: int) -> int:
        """Retire window entries up to transfer ``through``; return the count.

        Retired fragments are delivered: they count as sent on this end.
        """
        window = endpoint.window
        oldest = endpoint.next_xfer - len(window)
        xfer = oldest
        while xfer <= through and window:
            size = window.pop(xfer)[0]
            endpoint.messages_sent += 1
            endpoint.bytes_sent += size
            self._m_frags_sent.value += 1.0
            self._m_bytes_sent.value += size
            xfer += 1
        return xfer - oldest

    def on_ctrl(self, packet: Packet):
        """Generator (ISR context): close and retry control traffic."""
        kernel = self.kernel
        yield kernel.isr_exec(kernel.costs.chan_ack_recv)
        if packet.corrupted:
            self._m_corrupt_drops.inc()
            kernel.emit("channel", "channel-corrupt-drop", src=packet.src,
                        size=packet.size, kind="ctrl")
            return
        endpoint = self.endpoints.get(packet.channel)
        if endpoint is None:
            return
        if packet.payload == CTRL_CLOSE:
            endpoint.closed = True
            if endpoint.reader_event is not None:
                event = endpoint.reader_event
                for member in endpoint.read_group or [endpoint]:
                    member.reader_event = None
                    member.read_group = None
                event.fail(ChannelClosedError(
                    f"channel {endpoint.name!r} closed by peer"
                ))
            # The close acknowledges, like a cumulative ack, everything
            # the peer delivered before closing: those fragments
            # succeeded even if their own acks were lost.
            if packet.xfer is not None:
                self._retire(endpoint, packet.xfer)
            event = endpoint.writer_event
            if event is not None:
                endpoint.writer_event = None
                if endpoint.window:
                    # Undelivered fragments remain: the write fails.
                    event.fail(ChannelClosedError(
                        f"channel {endpoint.name!r} closed by peer"
                    ))
                else:
                    # Every in-flight fragment was delivered before the
                    # close.  Wake the writer: mid-write it observes
                    # ``closed`` at the next fragment and raises there; on
                    # the final drain it completes.
                    event.succeed()
            # A writer mid-charge (not blocked) sees ``closed`` at its
            # next fragment boundary and raises there.
        elif packet.payload == CTRL_RETRY:
            window = endpoint.window
            if not window:
                return
            # The receiver dropped a fragment (buffer starvation, loss,
            # or corruption) and wants it again: re-send the *oldest*
            # unacknowledged window entry (go-back-N -- the receiver
            # accepts only in transfer-id order, and each pull requests
            # exactly one fragment).
            xfer = endpoint.next_xfer - len(window)
            size, frag_payload, _ = window[xfer]
            endpoint.retransmitted.add(xfer)
            self._window_shrink(endpoint, xfer, "retry")
            self._m_retransmits.inc()
            kernel.emit("channel", "channel-retransmit",
                        data=endpoint.name, eid=endpoint.eid, size=size)
            yield kernel.isr_exec(
                kernel.costs.chan_send_kernel + kernel.costs.copy_time(size)
            )
            # The ack may have raced in while we were charging.
            if xfer in window and not endpoint.closed:
                self._post_fragment(endpoint, xfer, size, frag_payload)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _pull_retry(self, endpoint: ChannelEndpoint) -> None:
        """Request retransmission of one owed (dropped) fragment.

        Decrements :attr:`ChannelEndpoint.owed_pulls` by exactly one per
        call so the retry rate tracks the consumption rate -- the sender
        always re-sends its oldest window entry, so one pull heals one
        fragment of a gap.
        """
        if endpoint.owed_pulls <= 0:
            return
        if endpoint.peer_addr is None or endpoint.peer_eid is None:
            return
        endpoint.owed_pulls -= 1
        self.kernel.post(
            dst=endpoint.peer_addr,
            size=self.kernel.costs.chan_ack_bytes,
            kind=MessageKind.CHANNEL_CTRL,
            channel=endpoint.peer_eid,
            payload=CTRL_RETRY,
        )

    def _send_owed_ack(
        self, endpoint: ChannelEndpoint, owed: tuple[int, int, int]
    ):
        """Generator: send the deferred ack a batched fragment earned.

        Consuming the side buffer is what frees the sender's window
        slot; the ack is cumulative at the sender, so a lost earlier ack
        is covered by this one.  Under an adaptive model it reports the
        *post-consumption* side-buffer occupancy (the pressure the
        sender's next window decision should see).
        """
        kernel = self.kernel
        xfer, src, src_channel = owed
        yield kernel.k_exec(kernel.costs.chan_ack_send)
        kernel.post(
            dst=src,
            size=kernel.costs.chan_ack_bytes,
            kind=MessageKind.CHANNEL_ACK,
            channel=src_channel,
            payload=self._ack_pressure(endpoint),
            xfer=xfer,
        )

    @staticmethod
    def _require_open(endpoint: ChannelEndpoint) -> None:
        if not endpoint.open:
            raise ChannelStateError(f"channel {endpoint.name!r} is not open")

    def snapshot(self) -> list[dict]:
        """Channel state for the communications debugger (cdb)."""
        rows = []
        for endpoint in self.endpoints.values():
            rows.append(
                {
                    "name": endpoint.name,
                    "eid": endpoint.eid,
                    "node": self.kernel.address,
                    "subprocess": endpoint.sp.uid,
                    "peer_addr": endpoint.peer_addr,
                    "peer_eid": endpoint.peer_eid,
                    "sent": endpoint.messages_sent,
                    "received": endpoint.messages_received,
                    "bytes_sent": endpoint.bytes_sent,
                    "bytes_received": endpoint.bytes_received,
                    "reader_blocked": endpoint.reader_blocked,
                    "writer_blocked": endpoint.writer_blocked,
                    "buffered": len(endpoint.side_buffers),
                    "open": endpoint.open,
                    "closed": endpoint.closed,
                }
            )
        return rows
