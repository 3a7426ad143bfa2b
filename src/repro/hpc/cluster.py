"""Twelve-port self-routing star clusters (paper Section 1).

Each cluster forwards messages from its input ports to output ports
according to a routing table computed by :mod:`repro.hpc.topology`.
Forwarding is store-and-forward at message granularity: an input buffer is
held until the message has been fully accepted by the next link, and
multiple inputs contending for one output are serviced in FIFO order
(fair hardware scheduling).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hpc.port import BufferedInput
from repro.sim.engine import standing_handle
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.model.costs import CostModel
    from repro.hpc.link import Link
    from repro.hpc.message import Packet

#: Ports per cluster (paper Section 1).
PORTS_PER_CLUSTER = 12

#: The route-table byte for "no route to this address".  Port indices
#: are bytes below it, so a cluster has at most 255 ports.
NO_ROUTE = 255


class Cluster:
    """A self-routing star with :data:`PORTS_PER_CLUSTER` ports."""

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        cluster_id: int,
        n_ports: int = PORTS_PER_CLUSTER,
    ) -> None:
        if n_ports < 2:
            raise ValueError(f"a cluster needs at least 2 ports, got {n_ports}")
        if n_ports > NO_ROUTE:
            raise ValueError(
                f"a cluster has at most {NO_ROUTE} ports, got {n_ports}"
            )
        self.sim = sim
        self.costs = costs
        self.cluster_id = cluster_id
        self.n_ports = n_ports
        #: Input sections, one per port.
        self.inputs = [
            BufferedInput(sim, costs.hpc_port_buffers, f"c{cluster_id}.in{p}")
            for p in range(n_ports)
        ]
        #: Outgoing links, one per wired port (None if unwired).
        self.out_links: list[Optional["Link"]] = [None] * n_ports
        #: Output port index per destination address, one byte each
        #: (:data:`NO_ROUTE`: no route).  Dense and unboxed: the fabric
        #: builds one per cluster, and a byte table of N entries is an
        #: eighth of a list of them.
        self.routing = bytearray()
        #: Messages forwarded, for statistics.
        self.messages_forwarded = 0
        self._forwarders = [_Forwarder(self, source) for source in self.inputs]

    def wired_ports(self) -> list[int]:
        """Indices of ports with an outgoing link attached."""
        return [p for p, link in enumerate(self.out_links) if link is not None]

    def route_port(self, dst: int) -> int:
        """The output port for destination address ``dst``."""
        routing = self.routing
        # A negative index would wrap round to the end of the table.
        port = routing[dst] if 0 <= dst < len(routing) else NO_ROUTE
        if port == NO_ROUTE:
            raise KeyError(
                f"cluster {self.cluster_id} has no route to address {dst}"
            )
        return port

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster {self.cluster_id} ports={self.n_ports}>"


class _Forwarder:
    """The forwarding engine of one input port, as two callbacks.

    ``_forward`` runs when a message is taken off the input's queue and
    hands it to the output link; ``_accepted`` runs when that link's
    ``send`` event fires, frees the input buffer and takes the next
    message.  A standing handle waits on the queue where a generator
    process's ``get`` event would, and carries the message in its
    ``args``, so the schedule is a process's.
    """

    __slots__ = ("cluster", "source", "_on_packet", "_on_accepted")

    def __init__(self, cluster: Cluster, source: BufferedInput) -> None:
        self.cluster = cluster
        self.source = source
        self._on_packet = standing_handle(self._forward)
        self._on_accepted = self._accepted
        cluster.sim.start(self._listen)

    def _listen(self, _event: Optional[Event] = None) -> None:
        """``Store.get`` on the input's queue with the standing handle
        as the getter."""
        queue = self.source._queue
        items = queue._items
        handle = self._on_packet
        if items:
            handle.args = (items.pop(0),)
            self.cluster.sim._imm_normal.append(handle)
        else:
            queue._getters.append(handle)

    def _forward(self, packet: "Packet") -> None:
        self._on_packet.args = ()  # the message is passed on below
        cluster = self.cluster
        dst = packet.dst
        try:
            out_port = cluster.routing[dst]
        except IndexError:
            out_port = NO_ROUTE
        if out_port == NO_ROUTE or dst < 0:
            out_port = cluster.route_port(dst)  # raises the diagnostic
        link = cluster.out_links[out_port]
        if link is None:
            raise RuntimeError(
                f"cluster {cluster.cluster_id}: route for {packet.dst} uses "
                f"unwired port {out_port}"
            )
        # Store-and-forward: hold our input buffer until the next hop
        # has accepted the whole message, then free it.
        link.send(packet).callbacks.append(self._on_accepted)

    def _accepted(self, _event: Event) -> None:
        source = self.source
        source.free()
        cluster = self.cluster
        cluster.messages_forwarded += 1
        # :meth:`_listen` inlined: once per forwarded message.
        queue = source._queue
        items = queue._items
        handle = self._on_packet
        if items:
            handle.args = (items.pop(0),)
            cluster.sim._imm_normal.append(handle)
        else:
            queue._getters.append(handle)
