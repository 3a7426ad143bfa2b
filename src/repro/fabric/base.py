"""The interconnect abstraction: one interface, many topologies.

The paper's systems ran on two very different interconnects -- the
S/NET shared bus (Meglos, Section 2) and the HPC self-routing star /
incomplete-hypercube fabric (Sections 1-2) -- and the evolution between
them is the paper's central story.  :class:`FabricBackend` captures what
every interconnect must provide so systems and traffic drivers can be
written once and run over any of them:

* **endpoint management** -- enumerate addresses, look up the raw NIC;
* **routing introspection** -- reachability and static hop counts, with
  clear diagnostics for unattached or unknown endpoints;
* **uniform send/recv** -- generator-based, hiding the difference
  between hardware flow control (HPC: a send blocks until a downstream
  whole-message buffer is free, nothing is ever lost) and software
  recovery (S/NET: a send may be rejected by a full fifo and must be
  retransmitted);
* **contention accounting** -- per-hop flow-control counters in a
  uniform shape, so experiments can compare *how* each fabric degrades
  under load.

Concrete backends: :class:`repro.hpc.topology.Fabric` (star, hypercube,
HyperX, 2D mesh -- anything wired from clusters and links) and
:class:`repro.snet.fabric.SNetFabric` (the shared bus).  Instantiate by
name via :func:`repro.fabric.create_fabric`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpc.message import Packet
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator


class FabricBackend(ABC):
    """Abstract interconnect: endpoints, routes, delivery, contention.

    Every backend carries ``sim`` and ``costs`` attributes and a
    ``topology_name`` identifying how it was built (``"star"``,
    ``"hypercube"``, ``"hyperx"``, ``"mesh"``, ``"snet"``, or
    ``"custom"`` for hand-wired fabrics).
    """

    sim: "Simulator"
    costs: "CostModel"
    topology_name: str = "custom"
    #: The workload generator's packet router for this fabric, set by
    #: the first :class:`~repro.workload.generator.Workload` run on it.
    workload_hub: Any = None

    # -- endpoints ---------------------------------------------------------
    @property
    @abstractmethod
    def addresses(self) -> list[int]:
        """Sorted addresses of every usable (attached) endpoint."""

    @abstractmethod
    def iface(self, address: int) -> Any:
        """The raw NIC at ``address`` (backend-specific type)."""

    def fault_sites(self) -> list[str]:
        """Sorted names of every fault-injection site on this backend.

        A "site" is a name the transport hooks pass to the
        :class:`~repro.faults.injector.FaultInjector` -- link names on a
        cluster fabric, the bus and NIC names on S/NET.
        ``FaultPlan.attach`` validates per-site override patterns against
        this list so a pattern written for the wrong topology fails
        loudly.  Backends that cannot enumerate their sites return ``[]``
        (validation is then skipped).
        """
        return []

    # -- routing -----------------------------------------------------------
    @abstractmethod
    def reachable(self, src: int, dst: int) -> bool:
        """True if the fabric can carry a packet from ``src`` to ``dst``.

        Raises ``ValueError`` with a diagnostic (rather than failing deep
        in routing internals) if either endpoint does not exist or was
        never attached.
        """

    @abstractmethod
    def route_hops(self, src: int, dst: int) -> int:
        """Link traversals (bus tenures for a bus) on the ``src``->``dst``
        route.  Static: reads the routing tables, moves no packet."""

    # -- delivery ----------------------------------------------------------
    @abstractmethod
    def send(self, src: int, packet: "Packet") -> Generator:
        """Generator: inject ``packet`` at endpoint ``src``.

        Completes once the fabric has durably accepted the message --
        retrying internally where the hardware can reject (the S/NET
        fifo-full signal), so callers never see a failed send.
        """

    @abstractmethod
    def recv(self, address: int) -> Generator:
        """Generator: return the next whole packet delivered to
        ``address``.  Partial messages (a bus fifo overflow) are
        discarded inside the backend, never surfaced."""

    # -- accounting --------------------------------------------------------
    @abstractmethod
    def stats(self) -> dict:
        """Aggregate fabric statistics (shape, endpoints, traffic)."""

    @abstractmethod
    def contention(self) -> dict:
        """Flow-control pressure in a uniform shape.

        Keys every backend provides:

        ``mode``
            ``"hardware-credits"`` (HPC: senders stall on buffer
            reservations, nothing is lost) or ``"software-recovery"``
            (S/NET: full fifos reject, software retransmits).
        ``reserve_stalls`` / ``reserve_stall_us``
            Count of and time spent in hardware flow-control stalls.
        ``rejections`` / ``retries``
            Messages refused by a receiver and software retransmissions.
        """
