"""The S/NET processor interface.

Couples a processor to the shared bus: a 2048-byte receive fifo plus a
receive interrupt.  There is no transmit queue in hardware -- the kernel
drives each transmission and synchronously receives the accepted /
fifo-full outcome (which is what forces recovery into software,
Section 2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.snet.fifo import SNetFifo

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.message import Packet
    from repro.snet.bus import SNetBus


class SNetInterface:
    """One processor's connection to the S/NET bus."""

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        bus: "SNetBus",
        address: int,
        name: Optional[str] = None,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.bus = bus
        self.address = address
        self.name = name or f"snet{address}"
        #: vstat registry for this interface (shared with its fifo).
        self.metrics = sim.vstat.registry(self.name)
        self.fifo = SNetFifo(
            costs.snet_fifo_bytes, costs.snet_header_bytes, metrics=self.metrics
        )
        self._rx_interrupt: Optional[Callable[[], None]] = None
        #: Whether a deposit raises the receive interrupt; change it
        #: with :meth:`enable_interrupts`/:meth:`disable_interrupts`.
        self.interrupts_enabled = True
        self._m_sent = self.metrics.counter("nic.packets_sent")
        self._m_rejected = self.metrics.counter("nic.sends_rejected")

    # -- counter-backed statistics ------------------------------------------
    @property
    def packets_sent(self) -> int:
        return int(self._m_sent.value)

    @property
    def sends_rejected(self) -> int:
        return int(self._m_rejected.value)

    # -- transmit ---------------------------------------------------------
    def send(self, packet: "Packet"):
        """Generator: transmit one message; returns acceptance boolean."""
        if packet.src != self.address:
            raise ValueError(
                f"{self.name}: packet src {packet.src} != address {self.address}"
            )
        injector = self.sim.faults
        site = injector.site(self.name) if injector is not None else None
        if site is not None and site.stalls:
            stall = site.stall_remaining()
            if stall > 0:
                # NIC stall window: the interface cannot start its bus
                # request until the window ends.
                yield self.sim.timeout(stall)
        accepted = yield from self.bus.transmit(packet)
        self._m_sent.inc()
        if not accepted:
            self._m_rejected.inc()
        return accepted

    def send_until_accepted(
        self, packet: "Packet", wait: Callable[[int], Generator]
    ):
        """Generator: transmit until the destination fifo takes it whole.

        The one software recovery loop of the S/NET.  After the ``n``-th
        rejection the caller's ``wait(n)`` generator runs (its backoff,
        CPU spin or both) before the next attempt.  Returns the number
        of attempts (1 = no overflow).  A message larger than the whole
        receive fifo can never be accepted -- every retransmission would
        be rejected forever -- so it is refused up front instead of
        livelocking the sender.
        """
        wire_bytes = packet.size + self.costs.snet_header_bytes
        if wire_bytes > self.costs.snet_fifo_bytes:
            raise ValueError(
                f"message of {packet.size} bytes ({wire_bytes} on the wire) "
                f"can never fit the {self.costs.snet_fifo_bytes}-byte "
                f"receive fifo; fragment it in software"
            )
        attempts = 1
        while not (yield from self.send(packet)):
            yield from wait(attempts)
            attempts += 1
        return attempts

    # -- receive ------------------------------------------------------------
    def set_rx_interrupt(self, handler: Optional[Callable[[], None]]) -> None:
        self._rx_interrupt = handler

    def disable_interrupts(self) -> None:
        """Mask the receive interrupt: deposits accumulate in the fifo."""
        self.interrupts_enabled = False

    def enable_interrupts(self) -> None:
        """Unmask the receive interrupt.  A backlog that arrived while
        masked raises it at once: no later arrival may ever come."""
        self.interrupts_enabled = True
        if self.fifo.depth > 0 and self._rx_interrupt is not None:
            self._rx_interrupt()

    def notify_delivery(self) -> None:
        """Called by the bus after any deposit (full or partial)."""
        if self.interrupts_enabled and self._rx_interrupt is not None:
            self.sim.call_later(0.0, self._rx_interrupt)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SNetInterface {self.name} addr={self.address}>"
