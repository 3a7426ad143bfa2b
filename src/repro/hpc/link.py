"""Unidirectional HPC links.

A link connects the output section of one port to the input section of
another (node-to-cluster, cluster-to-cluster, or cluster-to-workstation;
both directions of a physical fibre are independent 160 Mbit/s links,
paper Section 1).  A link serializes one message at a time and implements
the hardware flow control described in Section 2: it will not begin
transmitting until the downstream input has a free whole-message buffer.
"""

from __future__ import annotations

from copy import copy
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import standing_handle
from repro.sim.events import Event, PENDING as _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.message import Packet
    from repro.hpc.port import BufferedInput
    from repro.faults.injector import FaultSite


class Link:
    """One direction of a fibre: FIFO serializer with downstream reservation.

    Senders call :meth:`send`; transmissions happen strictly in request
    order (this is the "fair hardware scheduling" of Section 2 -- FIFO
    service means every sender is eventually serviced).

    ``downstream`` is ``None`` only for a link whose far end is simulated
    elsewhere (:class:`~repro.fabric.partition.BoundaryLink`): such a
    subclass supplies its own ``_reserve`` and ``_deliver``.
    """

    # Slotted: a 1024-endpoint fabric builds 4,096 links.
    __slots__ = (
        "sim", "costs", "name", "_requests", "_parked", "metrics",
        "_m_messages", "_m_bytes", "_m_busy", "_m_queue", "_m_stalls",
        "_m_stall_us", "_hop_latency", "_packet", "_done", "_site",
        "_copies_left", "_stall_from", "_wire", "_on_request",
        "_on_reserved", "_on_carried", "_credits", "_deliver",
    )

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        downstream: Optional["BufferedInput"],
        name: str = "link",
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.name = name
        #: Requests waiting for the wire, ``(packet, done)`` each, and
        #: whether the link is parked waiting for the next one.
        self._requests: list[tuple["Packet", Event]] = []
        self._parked = False
        #: vstat registry for fabric statistics (one per link name).
        self.metrics = sim.vstat.registry(name)
        self._m_messages = self.metrics.counter("link.messages_carried")
        self._m_bytes = self.metrics.counter("link.bytes_carried")
        self._m_busy = self.metrics.counter("link.busy_us")
        self._m_queue = self.metrics.gauge("link.queue_depth")
        #: The stall counters, registered on the link's first stall, so
        #: registry snapshots (which the goldens hash) list them only
        #: for links that have stalled.
        self._m_stalls = None
        self._m_stall_us = None
        self._hop_latency = costs.hpc_hop_latency
        #: The message being carried and its sender's done event (both
        #: ``None`` once the message has moved on), this link's
        #: fault-site record (resolved when a message is taken under an
        #: injector), duplicate copies still to carry, when the credit
        #: wait began, and the current wire time.
        self._packet: Optional["Packet"] = None
        self._done: Optional[Event] = None
        self._site: Optional["FaultSite"] = None
        self._copies_left = 0
        self._stall_from = 0.0
        self._wire = 0.0
        # One standing handle per wait point, made once: the request
        # arrives, the downstream credit is granted, the wire is done.
        # Each goes where the wait's event would have gone, so a carried
        # message builds no event but its sender's ``done``.  The rare
        # fault paths (NIC stall, drop, delay) bind their callback when
        # they fire: a cached bound method costs about 64 bytes per
        # link.
        self._on_request = standing_handle(self._take)
        self._on_reserved = standing_handle(self._serialize)
        self._on_carried = standing_handle(self._carried)
        if downstream is not None:
            self._credits = downstream._credits
            self._deliver = downstream.deliver
        sim.start(self._listen)

    # -- counter-backed statistics ------------------------------------------
    @property
    def messages_carried(self) -> int:
        """Total messages carried (for fabric statistics)."""
        return int(self._m_messages.value)

    @property
    def bytes_carried(self) -> int:
        """Total payload bytes carried."""
        return int(self._m_bytes.value)

    @property
    def busy_time(self) -> float:
        """Cumulative time spent actually serializing (for utilisation)."""
        return self._m_busy.value

    def send(self, packet: "Packet") -> Event:
        """Queue ``packet``; the event fires when it is in the downstream buffer."""
        # ``Event.__init__`` inlined (one request event per message on
        # the wire) -- mirror of the constructor's five slot stores.
        sim = self.sim
        done = Event.__new__(Event)
        done.sim = sim
        done.callbacks = []
        done._value = _PENDING
        done._ok = None
        done._defused = False
        # A parked link takes the request at once: its standing handle
        # carries it onto the normal lane.
        if self._parked:
            self._parked = False
            handle = self._on_request
            handle.args = (packet, done)
            sim._imm_normal.append(handle)
        else:
            self._requests.append((packet, done))
        return done

    @property
    def queue_length(self) -> int:
        """Transmissions waiting for the wire."""
        return len(self._requests)

    # -- the wire, as callbacks --------------------------------------------
    #
    # One message's trip is a chain of callbacks, each run where a
    # generator process would resume: the request arriving, the
    # stall/drop/delay timeouts, the downstream credit and the wire
    # timeout.  The hot waits (request, credit, wire) use the link's
    # standing handles, queued exactly where the process's events would
    # be, so the schedule is the process's; only the events and the
    # ``Process`` resume between them are gone (interrupt-level code,
    # paper Section 5).

    def _listen(self, _event: Optional[Event] = None) -> None:
        """Take the next request, or park until :meth:`send` brings one."""
        self._packet = self._done = None
        requests = self._requests
        if requests:
            handle = self._on_request
            handle.args = requests.pop(0)
            self.sim._imm_normal.append(handle)
        else:
            self._parked = True

    def _take(self, packet: "Packet", done: Event) -> None:
        """A request arrived: check faults, then claim a downstream buffer."""
        self._on_request.args = ()  # the request lives on in the fields
        self._packet = packet
        self._done = done
        depth = len(self._requests)
        m_queue = self._m_queue
        m_queue.value = depth
        if depth > m_queue.max_value:
            m_queue.max_value = depth
        injector = self.sim.faults
        self._copies_left = 0
        if injector is None:
            self._reserve()
            return
        site = self._site
        if site is None or site.injector is not injector:
            site = self._site = injector.site(self.name)
        if site.stalls:
            stall = site.stall_remaining()
            if stall > 0:
                # NIC stall window: the wire sits idle until it ends.
                self.sim.timeout(stall).callbacks.append(self._decide)
                return
        self._decide()

    def _decide(self, _event: Optional[Event] = None) -> None:
        """Apply the fault site's verdict on the current message."""
        site = self._site
        packet = self._packet
        if site.crashes and site.crash_drop(packet):
            self._done.succeed()
            self._listen()
            return
        if not (site.lossy or site.windows):
            # A site the plan cannot fault: no per-message decision.
            self._reserve()
            return
        decision = site.link_decision(packet)
        if decision.drop:
            # Lost on the wire: serialization happened, but the
            # downstream end discarded the damaged message immediately,
            # so no buffer is held.
            wire = self._wire = (
                self.costs.hpc_wire_time(packet.size) + self._hop_latency
            )
            self.sim.timeout(wire).callbacks.append(self._dropped)
            return
        if decision.corrupt:
            packet.corrupted = True
        if decision.duplicate:
            self._copies_left = 1
        if decision.delay_us > 0:
            self.sim.timeout(decision.delay_us).callbacks.append(
                self._reserve
            )
            return
        self._reserve()

    def _dropped(self, _event: Event) -> None:
        self._m_busy.value += self._wire
        self._done.succeed()
        self._listen()

    def _reserve(self, _event: Optional[Event] = None) -> None:
        """Hardware flow control: wait for a whole-message buffer
        downstream before occupying the wire."""
        sim = self.sim
        self._stall_from = sim._now
        # ``Semaphore.acquire`` on the downstream credit pool, inlined
        # with the standing handle as the waiter.
        credits = self._credits
        if credits._value > 0 and not credits._waiters:
            credits._value -= 1
            sim._imm_normal.append(self._on_reserved)
        else:
            credits._waiters.append(self._on_reserved)

    def _serialize(self) -> None:
        """The buffer is ours: put the message on the wire."""
        sim = self.sim
        stalled = sim._now - self._stall_from
        if stalled > 0:
            stalls = self._m_stalls
            if stalls is None:
                metrics = self.metrics
                stalls = self._m_stalls = metrics.counter(
                    "link.reserve_stalls"
                )
                self._m_stall_us = metrics.counter("link.reserve_stall_us")
            stalls.value += 1.0
            self._m_stall_us.value += stalled
        wire = self.costs.hpc_wire_time(self._packet.size) + self._hop_latency
        site = self._site
        if site is not None and site.brownouts:
            # Degraded link: a brownout window stretches the
            # serialization itself, so busy time reflects it.
            wire += site.brownout_extra_us(wire)
        self._wire = wire
        sim._push(sim._now + wire, self._on_carried)

    def _carried(self) -> None:
        """The message is across: hand it downstream, free the sender."""
        packet = self._packet
        # Metric objects are updated field-wise: same observable values,
        # three fewer Python frames per carried message.
        self._m_busy.value += self._wire
        self._m_messages.value += 1.0
        self._m_bytes.value += packet.size
        packet.hops += 1
        self._deliver(packet)
        done = self._done
        if done._ok is None:
            # First copy: ``Event.succeed`` inlined (the request's done
            # event is still pending here).
            done._ok = True
            done._value = None
            self.sim._imm_normal.append(done)
        if self._copies_left:
            # An injected duplicate crosses next, as its own message with
            # the hop count this one had at pickup.
            self._copies_left -= 1
            duplicate = self._packet = copy(packet)
            duplicate.hops -= 1
            self._reserve()
        else:
            # :meth:`_listen` inlined: once per carried message.
            self._packet = self._done = None
            requests = self._requests
            if requests:
                handle = self._on_request
                handle.args = requests.pop(0)
                self.sim._imm_normal.append(handle)
            else:
                self._parked = True
