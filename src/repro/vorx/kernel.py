"""The per-node VORX kernel.

Each processing node (and each host workstation) runs one
:class:`NodeKernel`: the preemptive subprocess scheduler, the interrupt
service path that drains the HPC interface, and the services its
arrivals are demultiplexed to: channels, user-defined objects, the
object manager, multicast, and any services installed later (stubs,
downloads, forwarded system calls).

The scheduler, the CPU charging discipline, blocking, the kind ->
handler table and the reply-token table are the
:class:`~repro.vorx.subprocesses.KernelCore` that Meglos runs as well;
each service registers its handlers there in its constructor.  This
module adds what is VORX's own: posting to the HPC interface, dropping
kinds no service claims, and the supervisor-call counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.hpc.message import MessageKind, Packet
from repro.vorx.channels import ChannelService
from repro.vorx.env import Env
from repro.vorx.multicast import MulticastService
from repro.vorx.object_manager import ObjectManagerService
from repro.vorx.objects import UserObjectService
from repro.vorx.subprocesses import KernelCore

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.model.costs import CostModel
    from repro.hpc.nic import HPCInterface


class NodeKernel(KernelCore):
    """The VORX kernel instance on one node."""

    env_class = Env

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        iface: "HPCInterface",
        name: Optional[str] = None,
        is_host: bool = False,
    ) -> None:
        super().__init__(sim, costs, iface, name or f"vorx{iface.address}")
        #: True for host workstations (they additionally run host services).
        self.is_host = is_host
        self._m_packets_posted = self.metrics.counter("kernel.packets_posted")
        self._m_bytes_posted = self.metrics.counter("kernel.bytes_posted")
        self._m_syscalls = self.metrics.counter("kernel.syscalls")
        #: Hot-path cache around the generic (name, labels) registry
        #: lookup: per-op syscall counters.
        self._m_syscalls_by_op: Dict[str, Any] = {}
        self.channels = ChannelService(self)
        self.objects = UserObjectService(self)
        self.manager = ObjectManagerService(self)
        self.multicast = MulticastService(self)

    # ------------------------------------------------------------------
    # vstat instrumentation
    # ------------------------------------------------------------------
    @property
    def packets_posted(self) -> int:
        """Messages handed to the interface (backed by the vstat counter)."""
        return int(self._m_packets_posted.value)

    def count_syscall(self, op: str) -> None:
        """Account one supervisor call (channel ops, forwarded UNIX calls)."""
        self._m_syscalls.value += 1.0
        counter = self._m_syscalls_by_op.get(op)
        if counter is None:
            counter = self.metrics.counter("kernel.syscalls_by_op", labels=(op,))
            self._m_syscalls_by_op[op] = counter
        counter.value += 1.0

    # ------------------------------------------------------------------
    # network send
    # ------------------------------------------------------------------
    def post(
        self,
        dst: int,
        size: int,
        kind: MessageKind,
        channel: int = 0,
        payload: Any = None,
        src_channel: int = 0,
        xfer: Optional[int] = None,
        batched: bool = False,
    ) -> "Event":
        """Hand a message to the interface (non-blocking, fire-and-forget).

        The returned event fires when the first hop accepts the message;
        most callers ignore it because the HPC hardware guarantees
        delivery (Section 2).
        """
        packet = Packet(
            src=self.address, dst=dst, size=size, kind=kind,
            channel=channel, src_channel=src_channel, payload=payload,
            xfer=xfer, batched=batched,
        )
        # Direct counter-field updates on the per-message kernel paths
        # (post/syscall/interrupt): the ``inc`` frames showed up in
        # engine profiles.
        self._m_packets_posted.value += 1.0
        self._m_bytes_posted.value += size
        return self.iface.send(packet)

    # ------------------------------------------------------------------
    # interrupt service
    # ------------------------------------------------------------------
    def _isr(self):
        """Drain the interface; one interrupt overhead per burst.

        The paper's no-deadlock argument ("the VORX kernel reads in
        messages immediately when they arrive") is this loop: buffers are
        freed as fast as the CPU can demultiplex.
        """
        yield self.isr_exec(self.costs.interrupt_overhead)
        while True:
            packet = self.iface.read()
            if packet is None:
                break
            yield from self._dispatch(packet)
        self._isr_active = False

    def _unhandled(self, packet: Packet):
        """Generator (ISR context): count, log and drop an unclaimed kind."""
        self.metrics.counter("kernel.packets_dropped").inc()
        self.emit("kernel", "dropped-packet", kind=str(packet.kind.value),
                  src=packet.src, size=packet.size)
        yield self.isr_exec(self.costs.chan_recv_kernel)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeKernel {self.name} addr={self.address}>"
