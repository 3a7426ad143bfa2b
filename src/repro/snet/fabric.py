"""The S/NET shared bus as a :class:`FabricBackend`.

Wraps one :class:`~repro.snet.bus.SNetBus` plus an
:class:`~repro.snet.nic.SNetInterface` per endpoint behind the generic
interconnect contract, so the same system builders and traffic drivers
that run over the HPC fabrics run over the bus.

The interesting part is flow control.  The HPC backends never reject a
message -- hardware credits stall the sender instead -- but the S/NET
fifo rejects on overflow and recovery is software's problem
(Section 2).  :meth:`SNetFabric.send` therefore hides a busy-retransmit
loop: on a fifo-full signal it backs off one wire time and retries, and
the retry count surfaces in :meth:`SNetFabric.contention` where the HPC
backends report reservation stalls.  Partial messages retained by an
overflowing fifo are read and discarded inside the receive drain, as the
Meglos ISR does, and never surface through :meth:`SNetFabric.recv`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fabric.base import FabricBackend
from repro.sim.resources import Store
from repro.snet.bus import SNetBus
from repro.snet.nic import SNetInterface

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpc.message import Packet
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator

#: The S/NET's practical size limit (the paper's largest system had 12).
MAX_ENDPOINTS = 13


class SNetFabric(FabricBackend):
    """A complete S/NET: one bus, ``n_endpoints`` interfaces."""

    topology_name = "snet"

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        n_endpoints: int,
    ) -> None:
        """Build the bus and its interfaces.

        Each interface gets a receive-interrupt drain feeding
        :meth:`recv`; a kernel that drives an interface itself
        (:class:`~repro.meglos.kernel.MeglosNode`) installs its own ISR
        in its place.
        """
        if not 2 <= n_endpoints <= MAX_ENDPOINTS:
            raise ValueError(
                f"the S/NET supported 2..{MAX_ENDPOINTS} processors, "
                f"got {n_endpoints}"
            )
        self.sim = sim
        self.costs = costs
        self.bus = SNetBus(sim, costs)
        self.interfaces: dict[int, SNetInterface] = {}
        self._inboxes: dict[int, Store] = {}
        #: Software retransmissions issued by :meth:`send` (the S/NET
        #: counterpart of the HPC's hardware reservation stalls).
        self.retries = 0
        #: Partial messages read-and-discarded by the receive drains.
        self.partials_discarded = 0
        for address in range(n_endpoints):
            iface = SNetInterface(sim, costs, self.bus, address=address)
            self.bus.register(iface)
            self.interfaces[address] = iface
            self._inboxes[address] = Store(sim)
            iface.set_rx_interrupt(
                lambda address=address: self._drain_rx(address)
            )

    # -- endpoints ---------------------------------------------------------
    @property
    def addresses(self) -> list[int]:
        return sorted(self.interfaces)

    def iface(self, address: int) -> SNetInterface:
        return self.interfaces[address]

    def fault_sites(self) -> list[str]:
        """The shared bus plus every NIC name (stall windows hit NICs)."""
        return ["snet.bus"] + sorted(
            iface.name for iface in self.interfaces.values()
        )

    def _require_endpoint(self, address: int) -> None:
        if address not in self.interfaces:
            raise ValueError(
                f"no S/NET interface at address {address}; the bus has "
                f"addresses 0..{len(self.interfaces) - 1}"
            )

    # -- routing -----------------------------------------------------------
    def reachable(self, src: int, dst: int) -> bool:
        """Every registered endpoint hears every other (shared medium)."""
        self._require_endpoint(src)
        self._require_endpoint(dst)
        return True

    def route_hops(self, src: int, dst: int) -> int:
        """One bus tenure, whatever the pair."""
        self._require_endpoint(src)
        self._require_endpoint(dst)
        return 0 if src == dst else 1

    # -- delivery ----------------------------------------------------------
    def send(self, src: int, packet: "Packet"):
        """Generator: transmit with busy-retransmit recovery.

        The bus synchronously reports fifo-full; this loop backs off one
        wire time of the rejected message and retransmits until the
        destination fifo takes it whole, counting each retry (a message
        no fifo can hold is refused by
        :meth:`~repro.snet.nic.SNetInterface.send_until_accepted`).
        """
        self._require_endpoint(src)
        backoff = self.costs.snet_wire_time(packet.size)

        def retry(attempts: int):
            self.retries += 1
            yield self.sim.timeout(backoff)

        yield from self.interfaces[src].send_until_accepted(
            lambda: packet, retry
        )
        # One bus tenure carried it end-to-end; count it like a link
        # traversal so hop statistics compare across fabrics.
        packet.hops += 1

    def _drain_rx(self, address: int) -> None:
        """Receive interrupt: move whole messages to the inbox.

        Partials (the prefix an overflowing fifo retained) are read and
        discarded here -- the software obligation Section 2 describes --
        so :meth:`recv` only ever sees complete messages.
        """
        iface = self.interfaces[address]
        inbox = self._inboxes[address]
        while True:
            entry = iface.read()
            if entry is None:
                return
            if entry.partial:
                self.partials_discarded += 1
                continue
            inbox.try_put(entry.packet)

    def recv(self, address: int):
        """Generator: next whole packet delivered to ``address``."""
        self._require_endpoint(address)
        packet = yield self._inboxes[address].get()
        return packet

    # -- accounting --------------------------------------------------------
    def stats(self) -> dict:
        return {
            "topology": self.topology_name,
            "clusters": 0,
            "endpoints": len(self.interfaces),
            "cluster_links": 0,
            "bus_transmissions": self.bus.transmissions,
            "bus_rejections": self.bus.rejections,
        }

    def contention(self) -> dict:
        """Software-recovery pressure: rejections and retransmissions.

        The bus never stalls a sender on credits (there are none), so
        the hardware columns are structurally zero; the pressure shows
        up as fifo-full rejections and the retries :meth:`send` issued.
        """
        return {
            "mode": "software-recovery",
            "reserve_stalls": 0,
            "reserve_stall_us": 0.0,
            "rejections": self.bus.rejections,
            "retries": self.retries,
            "partials_discarded": self.partials_discarded,
        }
