"""The S/NET shared bus.

One transmission at a time; contending senders are served in FIFO request
order (bus arbitration).  Delivery is synchronous: the sender learns at
the end of its bus tenure whether the destination fifo accepted the whole
message or signalled fifo-full.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.sim.resources import Semaphore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.message import Packet
    from repro.snet.nic import SNetInterface


class SNetBus:
    """The single bus connecting every S/NET processor."""

    def __init__(self, sim: "Simulator", costs: "CostModel") -> None:
        self.sim = sim
        self.costs = costs
        self._arbiter = Semaphore(sim, value=1)
        self._interfaces: Dict[int, "SNetInterface"] = {}
        #: vstat registry for bus statistics.
        self.metrics = sim.vstat.registry("snet.bus")
        self._m_transmissions = self.metrics.counter("bus.transmissions")
        self._m_rejections = self.metrics.counter("bus.rejections")
        self._m_bytes = self.metrics.counter("bus.bytes_carried")

    # -- counter-backed statistics ------------------------------------------
    @property
    def transmissions(self) -> int:
        """Total transmissions (including rejected ones) for statistics."""
        return int(self._m_transmissions.value)

    @property
    def rejections(self) -> int:
        return int(self._m_rejections.value)

    def register(self, iface: "SNetInterface") -> None:
        if iface.address in self._interfaces:
            raise ValueError(f"address {iface.address} already on the bus")
        self._interfaces[iface.address] = iface

    def transmit(self, packet: "Packet"):
        """Generator: acquire the bus, transmit, return acceptance.

        Returns True if the destination fifo took the whole message;
        False is the fifo-full signal.
        """
        try:
            dst = self._interfaces[packet.dst]
        except KeyError:
            raise KeyError(f"no S/NET interface at address {packet.dst}") from None
        yield self._arbiter.acquire()
        try:
            injector = self.sim.faults
            decision = None
            if injector is not None:
                site = injector.site("snet.bus")
                if site.crashes and site.crash_drop(packet):
                    # A crashed endpoint: the bus tenure happens but no
                    # interface responds; the sender sees silence, which
                    # on the S/NET reads as an accepted transmission.
                    yield self.sim.timeout(
                        self.costs.snet_wire_time(packet.size)
                    )
                    return True
                decision = site.bus_decision(packet)
                if decision.delay_us > 0:
                    yield self.sim.timeout(decision.delay_us)
            yield self.sim.timeout(self.costs.snet_wire_time(packet.size))
            self._m_transmissions.inc()
            self._m_bytes.inc(packet.size)
            if decision is not None and decision.reject:
                # Damaged on the bus: the receiving interface's checksum
                # fails and it signals fifo-full back -- the same signal
                # the Section 2 recovery strategies are built around.
                accepted = False
            elif decision is not None and decision.forced_overflow:
                accepted = dst.fifo.force_overflow(packet)
            else:
                accepted = dst.fifo.offer(packet)
                if decision is not None and decision.duplicate and accepted:
                    # The duplicate occupies a second bus tenure and may
                    # itself overflow the fifo.
                    yield self.sim.timeout(
                        self.costs.snet_wire_time(packet.size)
                    )
                    self._m_transmissions.inc()
                    self._m_bytes.inc(packet.size)
                    if not dst.fifo.offer(packet):
                        self._m_rejections.inc()
            if not accepted:
                self._m_rejections.inc()
                stream = self.sim.vstat.events
                if stream.enabled:
                    stream.emit(
                        self.sim.now, node=dst.name, subsystem="snet",
                        name="fifo-full", src=packet.src, size=packet.size,
                    )
            dst.notify_delivery()
            return accepted
        finally:
            self._arbiter.release()
