"""The processor's HPC interface (NIC).

Models the port interface a processing node or workstation uses: a
transmit queue feeding the node's outgoing link, a receive buffer with the
same whole-message flow-control credits as every other input section, and
a receive interrupt raised on message delivery.

Time charging discipline: the NIC charges *wire* time only; all CPU time
(copies between memory and the interface, interrupt overhead, protocol
processing) is charged by the software layers (kernels, user-defined
objects), matching the paper's observation that software latency dwarfs
hardware latency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.hpc.port import BufferedInput
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.link import Link
    from repro.hpc.message import Packet


class HPCInterface:
    """One node's (or workstation's) connection to the HPC fabric."""

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        address: int,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.address = address
        self.name = name or f"nic{address}"
        #: Receive side: whole-message buffers with flow-control credits.
        self.rx = BufferedInput(sim, costs.hpc_port_buffers, f"{self.name}.rx")
        self.rx.on_deliver = self._rx_delivered
        #: Outgoing link; wired by the topology builder.
        self.link: Optional["Link"] = None
        self._rx_interrupt: Optional[Callable[[], None]] = None
        #: Whether a delivery raises the receive interrupt; change it
        #: with :meth:`enable_interrupts`/:meth:`disable_interrupts`.
        self.interrupts_enabled = True
        #: vstat registry for this interface's packet/byte counters.
        self.metrics = sim.vstat.registry(self.name)
        self._m_sent = self.metrics.counter("nic.packets_sent")
        self._m_received = self.metrics.counter("nic.packets_received")
        self._m_bytes_sent = self.metrics.counter("nic.bytes_sent")
        self._m_bytes_received = self.metrics.counter("nic.bytes_received")
        self._m_rx_depth = self.metrics.gauge("nic.rx_pending")

    def rename(self, name: str) -> None:
        """Rename the interface and re-key its vstat registry."""
        self.sim.vstat.rename(self.name, name)
        self.name = name

    # -- counter-backed statistics (writable for device-DMA models) ---------
    @property
    def packets_sent(self) -> int:
        return int(self._m_sent.value)

    @packets_sent.setter
    def packets_sent(self, value: int) -> None:
        self._m_sent.value = float(value)

    @property
    def packets_received(self) -> int:
        return int(self._m_received.value)

    @packets_received.setter
    def packets_received(self, value: int) -> None:
        self._m_received.value = float(value)

    # -- transmit --------------------------------------------------------------
    def send(self, packet: "Packet") -> Event:
        """Inject a message; fires when the first hop has accepted it.

        Raises if the packet exceeds the hardware's maximum message size
        (Section 2: 1060 bytes) -- fragmentation is software's job.
        """
        if packet.size > self.costs.hpc_max_message:
            raise ValueError(
                f"packet of {packet.size} bytes exceeds the HPC maximum of "
                f"{self.costs.hpc_max_message}; fragment it in software"
            )
        if self.link is None:
            raise RuntimeError(f"{self.name} is not wired to the fabric")
        if packet.src != self.address:
            raise ValueError(
                f"{self.name}: packet src {packet.src} != interface address "
                f"{self.address}"
            )
        injector = self.sim.faults
        if (
            injector is not None and injector.crash_times
            and injector.is_crashed(self.address)
        ):
            # A crashed node's NIC is dead silicon: the message is
            # accepted into nothing and vanishes.
            injector.site(self.name).crash_drop(packet)
            dead = Event(self.sim)
            dead.succeed()
            return dead
        packet.sent_at = self.sim.now
        # Direct counter-field updates (here and in ``_rx_delivered``):
        # one NIC send/receive per carried message made the ``inc``/``set``
        # frames visible in engine profiles.
        self._m_sent.value += 1.0
        self._m_bytes_sent.value += packet.size
        return self.link.send(packet)

    # -- receive -----------------------------------------------------------------
    def set_rx_interrupt(self, handler: Optional[Callable[[], None]]) -> None:
        """Install the receive-interrupt handler (None to remove)."""
        self._rx_interrupt = handler

    def disable_interrupts(self) -> None:
        """Mask the receive interrupt: deliveries wait in the buffer
        (polling mode, paper Section 5)."""
        self.interrupts_enabled = False

    def enable_interrupts(self) -> None:
        """Unmask the receive interrupt.  A backlog that arrived while
        masked raises it at once: no later arrival may ever come."""
        self.interrupts_enabled = True
        if self.rx.pending and self._rx_interrupt is not None:
            self._rx_interrupt()

    def _rx_delivered(self, packet: "Packet") -> None:
        self._m_received.value += 1.0
        self._m_bytes_received.value += packet.size
        depth_gauge = self._m_rx_depth
        depth = len(self.rx._queue._items)
        depth_gauge.value = depth
        if depth > depth_gauge.max_value:
            depth_gauge.max_value = depth
        if self.interrupts_enabled and self._rx_interrupt is not None:
            # Interrupt assertion is asynchronous w.r.t. the delivery.
            self.sim.call_later(0.0, self._rx_interrupt)

    @property
    def rx_pending(self) -> int:
        """Messages waiting in the receive buffer."""
        return self.rx.pending

    def read(self) -> Optional["Packet"]:
        """Read one message out of the interface, freeing its buffer.

        Returns ``None`` if nothing is pending.  The caller (kernel or
        user-level ISR) is responsible for charging the copy time.
        """
        ok, packet = self.rx.try_get()
        if not ok:
            return None
        self.rx.free()
        depth_gauge = self._m_rx_depth
        depth = len(self.rx._queue._items)
        depth_gauge.value = depth
        if depth > depth_gauge.max_value:
            depth_gauge.max_value = depth
        return packet

    def recv(self):
        """Generator: wait for the next message, freeing its buffer."""
        packet = yield self.rx.get()
        self.rx.free()
        self._m_rx_depth.set(self.rx.pending)
        return packet

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HPCInterface {self.name} addr={self.address}>"
