"""The per-node VORX kernel.

Each processing node (and each host workstation) runs one
:class:`NodeKernel`: the preemptive subprocess scheduler, the interrupt
service path that drains the HPC interface, and the demultiplexer feeding
the channel service, the object manager, user-defined objects, and any
registered extension services (stubs, downloads, multicast).

CPU charging discipline
-----------------------

All simulated software charges time on the node's single
:class:`~repro.sim.cpu.CPU`:

* ``isr_exec`` -- interrupt level, highest priority, non-preemptible;
* ``k_exec``  -- kernel paths (syscall bodies), preempts user code;
* ``u_exec``  -- subprocess user code at ``10 + subprocess priority``.

Blocking points go through :meth:`NodeKernel.block`, which records why
the subprocess blocked (driving the software oscilloscope's idle
categories) and charges the documented 80 us context switch when the
subprocess is dispatched again.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from repro.hpc.message import MessageKind, Packet
from repro.sim.cpu import CPU, PRIORITY_ISR, PRIORITY_KERNEL
from repro.sim.trace import Category, TraceLog
from repro.vorx.channels import ChannelService
from repro.vorx.multicast import MulticastService
from repro.vorx.object_manager import ObjectManagerService
from repro.vorx.objects import UserObjectService
from repro.vorx.subprocesses import BlockReason, Subprocess, SubprocessState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.model.costs import CostModel
    from repro.hpc.nic import HPCInterface


class NodeKernel:
    """The VORX kernel instance on one node."""

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        iface: "HPCInterface",
        name: Optional[str] = None,
        is_host: bool = False,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.iface = iface
        self.address = iface.address
        self.name = name or f"vorx{self.address}"
        #: True for host workstations (they additionally run host services).
        self.is_host = is_host
        self.cpu = CPU(sim, self.name)
        #: This node's vstat metrics registry (shared with its CPU).
        self.metrics = sim.vstat.registry(self.name)
        self.trace = TraceLog(stream=sim.vstat.events, node=self.name)
        self._m_context_switches = self.metrics.counter(
            "kernel.context_switches"
        )
        self._m_packets_posted = self.metrics.counter("kernel.packets_posted")
        self._m_bytes_posted = self.metrics.counter("kernel.bytes_posted")
        self._m_syscalls = self.metrics.counter("kernel.syscalls")
        self._m_interrupts = self.metrics.counter("kernel.interrupts")
        #: Hot-path caches around the generic (name, labels) registry
        #: lookup: per-op syscall counters and per-reason block counters.
        self._m_syscalls_by_op: Dict[str, Any] = {}
        self._m_blocks_by_reason: Dict[BlockReason, Any] = {}
        self.channels = ChannelService(self)
        self.objects = UserObjectService(self)
        self.manager = ObjectManagerService(self)
        self.multicast = MulticastService(self)
        self.subprocesses: list[Subprocess] = []
        #: Extension services: message kind -> generator handler(packet).
        self._kind_handlers: Dict[MessageKind, Callable[[Packet], Generator]] = {}
        self._isr_active = False
        #: Last idle category pushed to the timeline; this kernel is the
        #: only writer, so an equality check here skips the
        #: ``set_idle_reason`` call chain on no-change updates.
        self._last_idle_category: Optional[Category] = None
        iface.set_rx_interrupt(self._rx_interrupt)

    # ------------------------------------------------------------------
    # vstat instrumentation
    # ------------------------------------------------------------------
    @property
    def context_switches(self) -> int:
        """Context switches charged so far (backed by the vstat counter)."""
        return int(self._m_context_switches.value)

    @property
    def packets_posted(self) -> int:
        """Messages handed to the interface (backed by the vstat counter)."""
        return int(self._m_packets_posted.value)

    @property
    def prof_samples(self) -> Dict[tuple[str, str], float]:
        """Per-(process, label) user CPU time, read from the registry."""
        return {
            labels: counter.value  # type: ignore[attr-defined, misc]
            for labels, counter in self.metrics.labelled("prof.user_us").items()
        }

    def emit(self, subsystem: str, name: str, **fields) -> None:
        """Record a structured trace event for this node, timestamped now."""
        stream = self.sim.vstat.events
        if stream.enabled:
            stream.emit(
                self.sim._now, node=self.name, subsystem=subsystem,
                name=name, **fields,
            )

    def count_syscall(self, op: str) -> None:
        """Account one supervisor call (channel ops, forwarded UNIX calls)."""
        self._m_syscalls.value += 1.0
        counter = self._m_syscalls_by_op.get(op)
        if counter is None:
            counter = self.metrics.counter("kernel.syscalls_by_op", labels=(op,))
            self._m_syscalls_by_op[op] = counter
        counter.value += 1.0

    # ------------------------------------------------------------------
    # CPU charge helpers
    # ------------------------------------------------------------------
    def isr_exec(self, duration: float) -> "Event":
        """Charge interrupt-level CPU time (non-preemptible)."""
        return self.cpu.execute(
            duration, PRIORITY_ISR, None, Category.SYSTEM, preemptible=False
        )

    def k_exec(self, duration: float) -> "Event":
        """Charge kernel-path CPU time."""
        return self.cpu.execute(duration, PRIORITY_KERNEL, None, Category.SYSTEM)

    def u_exec(self, sp: Subprocess, duration: float) -> "Event":
        """Charge user-context CPU time for a subprocess."""
        return self.cpu.execute(
            duration, sp.cpu_priority, sp.uid, Category.USER
        )

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
    def _rx_interrupt(self) -> None:
        if self._isr_active:
            return
        self._isr_active = True
        self.sim.process(self._isr())

    def _isr(self):
        """Drain the interface; one interrupt overhead per burst.

        The paper's no-deadlock argument ("the VORX kernel reads in
        messages immediately when they arrive") is this loop: buffers are
        freed as fast as the CPU can demultiplex.
        """
        self._m_interrupts.value += 1.0
        yield self.isr_exec(self.costs.interrupt_overhead)
        while True:
            packet = self.iface.read()
            if packet is None:
                break
            yield from self._dispatch(packet)
        self._isr_active = False

    def _dispatch(self, packet: Packet):
        """Generator (ISR context): demultiplex one arrival."""
        kind = packet.kind
        if kind is MessageKind.CHANNEL_DATA:
            yield from self.channels.on_data(packet)
        elif kind is MessageKind.CHANNEL_ACK:
            yield from self.channels.on_ack(packet)
        elif kind is MessageKind.CHANNEL_CTRL:
            yield from self.channels.on_ctrl(packet)
        elif kind is MessageKind.MANAGER:
            yield from self.manager.on_manager(packet)
        elif kind is MessageKind.USER_OBJECT:
            yield from self.objects.on_message(packet)
        elif kind is MessageKind.MULTICAST:
            yield from self.multicast.on_message(packet)
        else:
            handler = self._kind_handlers.get(kind)
            if handler is None:
                self.metrics.counter("kernel.packets_dropped").inc()
                self.emit("kernel", "dropped-packet", kind=str(kind.value),
                          src=packet.src, size=packet.size)
                yield self.isr_exec(self.costs.chan_recv_kernel)
            else:
                yield from handler(packet)

    def register_handler(
        self, kind: MessageKind, handler: Callable[[Packet], Generator]
    ) -> None:
        """Install an extension service's handler for a message kind."""
        if kind in self._kind_handlers:
            raise ValueError(f"{self.name}: handler for {kind} already present")
        self._kind_handlers[kind] = handler

    def dispatch_out_of_band(self, packet: Packet) -> None:
        """Dispatch a packet found while polling (interrupts disabled)."""
        self.sim.process(self._dispatch(packet))

    # ------------------------------------------------------------------
    # subprocess lifecycle and blocking
    # ------------------------------------------------------------------
    def spawn(
        self,
        program: Callable[..., Generator],
        name: Optional[str] = None,
        priority: int = 0,
        process_name: Optional[str] = None,
    ) -> Subprocess:
        """Create a subprocess running ``program(env)``.

        ``program`` is a generator function taking an
        :class:`~repro.vorx.env.Env`; its return value becomes
        ``subprocess.result``.
        """
        from repro.vorx.env import Env

        name = name or f"sp{len(self.subprocesses)}"
        sp = Subprocess(self, name, priority, process_name)

        def main():
            # Initial dispatch: load the subprocess's context.
            yield self.cpu.execute(
                self.costs.context_switch, sp.cpu_priority, sp.uid,
                Category.SYSTEM,
            )
            self._m_context_switches.inc()
            sp.state = SubprocessState.RUNNING
            env = Env(self, sp)
            try:
                sp.result = yield from program(env)
                sp.state = SubprocessState.DONE
            except BaseException:
                sp.state = SubprocessState.FAILED
                raise
            finally:
                self._update_idle_reason()
            return sp.result

        sp.process = self.sim.process(main())
        sp.process.name = sp.uid
        self.subprocesses.append(sp)
        self._update_idle_reason()
        return sp

    def block(self, sp: Subprocess, reason: BlockReason, event: "Event"):
        """Generator: block ``sp`` on ``event``; charge the wakeup path.

        Every block/wake cycle costs ``wakeup_overhead`` (kernel readying
        the subprocess) plus the 80 us ``context_switch`` to restore its
        registers -- the Section 5 cost that motivates the coroutine and
        interrupt-level program structures compared in experiment E11.
        """
        sp.state = SubprocessState.BLOCKED
        sp.blocked_on = reason
        counter = self._m_blocks_by_reason.get(reason)
        if counter is None:
            counter = self.metrics.counter("kernel.blocks", labels=(reason.value,))
            self._m_blocks_by_reason[reason] = counter
        counter.value += 1.0
        # Hoist ``_update_idle_reason``'s oscilloscope gate to the call
        # site: block/unblock is per message, and until a scope arms the
        # timeline (the default) the call is a no-op.
        if self.cpu.timeline.armed_at is not None:
            self._update_idle_reason()
        try:
            value = yield event
        finally:
            sp.state = SubprocessState.READY
            sp.blocked_on = None
            if self.cpu.timeline.armed_at is not None:
                self._update_idle_reason()
        yield self.cpu.execute(
            self.costs.wakeup_overhead + self.costs.context_switch,
            sp.cpu_priority, sp.uid, Category.SYSTEM,
        )
        self._m_context_switches.value += 1.0
        sp.state = SubprocessState.RUNNING
        return value

    # ------------------------------------------------------------------
    # oscilloscope support
    # ------------------------------------------------------------------
    def _update_idle_reason(self) -> None:
        # Runs on every block/unblock: a single allocation-free pass over
        # the subprocess table, tracking whether every live subprocess is
        # blocked and which of the INPUT/OUTPUT/other reasons occur.
        # Purely observational -- skipped entirely until an oscilloscope
        # arms the timeline.
        if self.cpu.timeline.armed_at is None:
            return
        any_live = False
        inputs = outputs = others = 0
        for sp in self.subprocesses:
            if not sp.is_live:
                continue
            any_live = True
            if sp.state is not SubprocessState.BLOCKED:
                if self._last_idle_category is not Category.IDLE_OTHER:
                    self._last_idle_category = Category.IDLE_OTHER
                    self.cpu.set_idle_reason(Category.IDLE_OTHER)
                return
            reason = sp.blocked_on
            if reason is BlockReason.INPUT:
                inputs += 1
            elif reason is BlockReason.OUTPUT:
                outputs += 1
            else:
                others += 1
        if not any_live or others:
            category = Category.IDLE_OTHER
        elif inputs and outputs:
            category = Category.IDLE_MIXED
        elif inputs:
            category = Category.IDLE_INPUT
        else:
            category = Category.IDLE_OUTPUT
        if category is not self._last_idle_category:
            self._last_idle_category = category
            self.cpu.set_idle_reason(category)

    # ------------------------------------------------------------------
    # prof support
    # ------------------------------------------------------------------
    def prof_record(self, sp: Subprocess, label: str, duration: float) -> None:
        self.metrics.counter(
            "prof.user_us", labels=(sp.process_name, label)
        ).inc(duration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodeKernel {self.name} addr={self.address}>"
