"""Subprocesses: VORX's threads (paper Section 5).

*"Subprocesses are parts of a process that execute asynchronously with
each other.  Each subprocess is an independently scheduled thread of
execution that may block for communications or other events without
affecting the execution of the other subprocesses ...  distinct execution
priorities can be specified for each subprocess and the scheduler is
preemptive."*

A :class:`Subprocess` is the kernel-side record; the user's code is a
generator driven through :class:`repro.vorx.env.Env`.  All subprocesses of
a process share an address space (in the simulation: ordinary shared
Python state), and each costs a full 80 us context switch to dispatch
after blocking (all fixed and floating point registers).

:class:`KernelCore` is the scheduler both kernels run: VORX's
:class:`~repro.vorx.kernel.NodeKernel` and its predecessor Meglos's
:class:`~repro.meglos.kernel.MeglosNode` extend it and differ only in
their receive drains and communication calls.  :class:`KernelEnv` is the
matching part of a subprocess's programming interface.

CPU charging discipline
-----------------------

All simulated software charges time on the node's single
:class:`~repro.sim.cpu.CPU`:

* ``isr_exec`` -- interrupt level, highest priority, non-preemptible;
* ``k_exec``  -- kernel paths (syscall bodies), preempts user code;
* ``u_exec``  -- subprocess user code at ``10 + subprocess priority``.

Blocking points go through :meth:`KernelCore.block`, which records why
the subprocess blocked (driving the software oscilloscope's idle
categories) and charges the documented 80 us context switch when the
subprocess is dispatched again.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Optional

from repro.sim.cpu import CPU, PRIORITY_ISR, PRIORITY_KERNEL, PRIORITY_USER
from repro.sim.trace import Category, TraceLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.hpc.message import MessageKind, Packet
    from repro.model.costs import CostModel
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.sim.process import Process


class SubprocessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class BlockReason(str, enum.Enum):
    """Why a subprocess is blocked -- drives the oscilloscope's idle split."""

    INPUT = "input"
    OUTPUT = "output"
    SEMAPHORE = "semaphore"
    TIMER = "timer"
    OTHER = "other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Subprocess:
    """Kernel record for one thread of a process."""

    _next_serial = 0

    def __init__(
        self,
        kernel: "KernelCore",
        name: str,
        priority: int = 0,
        process_name: Optional[str] = None,
    ) -> None:
        if priority < 0:
            raise ValueError(f"priority must be >= 0, got {priority}")
        self.kernel = kernel
        self.name = name
        #: 0 is the highest subprocess priority (paper: distinct execution
        #: priorities, preemptive scheduler).
        self.priority = priority
        #: The process (address space) this subprocess belongs to.
        self.process_name = process_name or name
        self.state = SubprocessState.READY
        self.blocked_on: Optional[BlockReason] = None
        self.result: Any = None
        #: The sim process driving the user generator (set by the kernel).
        self.process: Optional["Process"] = None
        self.uid = f"{kernel.name}.{name}#{Subprocess._next_serial}"
        Subprocess._next_serial += 1
        #: Subprocess priority mapped onto the CPU's priority space.
        #: Precomputed: it is read on every CPU charge and block/wake
        #: cycle, and ``priority`` is fixed at creation.
        self.cpu_priority = PRIORITY_USER + priority

    @property
    def is_live(self) -> bool:
        return self.state not in (SubprocessState.DONE, SubprocessState.FAILED)

    def __repr__(self) -> str:
        return f"<Subprocess {self.uid} {self.state.value}>"


class KernelCore:
    """The subprocess core of one node's kernel (VORX or Meglos).

    Owns the node's CPU and vstat registry, spawns and blocks
    subprocesses, guards the receive interrupt so one drain runs per
    burst, and records prof samples.  It is also the node's one message
    path: the message kind -> handler table every service registers
    into (:meth:`_dispatch` is a single lookup in it) and the reply-token
    table every request/reply wait goes through (:meth:`expect_reply`,
    :meth:`await_reply`, :meth:`resolve`).  Subclasses set
    :attr:`env_class` and supply ``_isr``, the generator that drains
    their interface, and ``_unhandled``, the generator for kinds no
    service claims.
    """

    #: The environment class each spawned program receives.
    env_class: type

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        iface: Any,
        name: str,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.iface = iface
        self.address = iface.address
        self.name = name
        self.cpu = CPU(sim, name)
        #: This node's vstat metrics registry (shared with its CPU).
        self.metrics = sim.vstat.registry(name)
        self.trace = TraceLog(stream=sim.vstat.events, node=name)
        self._m_context_switches = self.metrics.counter(
            "kernel.context_switches"
        )
        self._m_interrupts = self.metrics.counter("kernel.interrupts")
        #: Hot-path cache around the generic (name, labels) registry
        #: lookup: per-reason block counters.
        self._m_blocks_by_reason: Dict[BlockReason, Any] = {}
        self.subprocesses: list[Subprocess] = []
        #: Extension services: message kind -> generator handler(packet).
        self._kind_handlers: Dict[
            "MessageKind", Callable[["Packet"], Generator]
        ] = {}
        #: Request/reply waits in flight: token -> the waiter's event.
        self._replies: Dict[int, "Event"] = {}
        self._next_token = 1
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
    def prof_samples(self) -> Dict[tuple[str, str], float]:
        """Per-(process, label) user CPU time, read from the registry."""
        return {
            labels: counter.value  # type: ignore[attr-defined, misc]
            for labels, counter in self.metrics.labelled("prof.user_us").items()
        }

    def prof_record(self, sp: Subprocess, label: str, duration: float) -> None:
        self.metrics.counter(
            "prof.user_us", labels=(sp.process_name, label)
        ).inc(duration)

    def emit(self, subsystem: str, name: str, **fields) -> None:
        """Record a structured trace event for this node, timestamped now."""
        stream = self.sim.vstat.events
        if stream.enabled:
            stream.emit(
                self.sim._now, node=self.name, subsystem=subsystem,
                name=name, **fields,
            )

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
    # interrupt service
    # ------------------------------------------------------------------
    def _rx_interrupt(self) -> None:
        """Receive interrupt: start one drain per burst of arrivals."""
        if self._isr_active:
            return
        self._isr_active = True
        self._m_interrupts.value += 1.0
        self.sim.process(self._isr())

    def _isr(self) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    def _unhandled(self, packet: "Packet") -> Generator:  # pragma: no cover
        raise NotImplementedError

    def register_handler(
        self, kind: "MessageKind", handler: Callable[["Packet"], Generator]
    ) -> None:
        """Install a service's handler for a message kind."""
        if kind in self._kind_handlers:
            raise ValueError(f"{self.name}: handler for {kind} already present")
        self._kind_handlers[kind] = handler

    def _dispatch(self, packet: "Packet") -> Generator:
        """The generator (ISR context) that handles one arrival."""
        handler = self._kind_handlers.get(packet.kind)
        if handler is None:
            return self._unhandled(packet)
        return handler(packet)

    def dispatch_out_of_band(self, packet: "Packet") -> None:
        """Dispatch a packet found while polling (interrupts disabled)."""
        self.sim.process(self._dispatch(packet))

    # ------------------------------------------------------------------
    # request/reply waits
    # ------------------------------------------------------------------
    def expect_reply(self) -> tuple[int, "Event"]:
        """A fresh reply token and the event its reply will fire."""
        token = self._next_token
        self._next_token += 1
        event = self.sim.event()
        self._replies[token] = event
        return token, event

    def await_reply(self, sp: Subprocess, token: int, event: "Event"):
        """Generator: block ``sp`` until ``token``'s reply; return its value."""
        try:
            return (yield from self.block(sp, BlockReason.INPUT, event))
        finally:
            self._replies.pop(token, None)

    def resolve(self, token: int, value: Any = None) -> None:
        """Wake the waiter for ``token``; a reply nobody awaits is ignored."""
        event = self._replies.pop(token, None)
        if event is not None:
            event.succeed(value)

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

        ``program`` is a generator function taking an :attr:`env_class`
        instance; its return value becomes ``subprocess.result``.
        """
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
            env = self.env_class(self, sp)
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


class KernelEnv:
    """What a subprocess sees of either kernel: identity, time, CPU, sleep.

    :class:`repro.vorx.env.Env` and :class:`repro.meglos.kernel.MeglosEnv`
    extend it with their own communication calls.
    """

    def __init__(self, kernel: KernelCore, sp: Subprocess) -> None:
        self._kernel = kernel
        self._sp = sp

    @property
    def kernel(self) -> Any:
        """The node's kernel (:class:`KernelCore` subclass)."""
        return self._kernel

    @property
    def subprocess(self) -> Subprocess:
        return self._sp

    @property
    def node(self) -> int:
        """This node's fabric address."""
        return self._kernel.address

    @property
    def now(self) -> float:
        """Current simulation time (us)."""
        return self._kernel.sim.now

    def compute(self, duration: float, label: str = "main"):
        """Generator: execute ``duration`` us of application code.

        ``label`` attributes the time for the prof tool (Section 6.2).
        """
        # Checked before the prof sample is taken: NaN and inf fail here.
        if not 0.0 <= duration < float("inf"):
            raise ValueError(
                f"compute time must be finite and non-negative: {duration}"
            )
        self._kernel.prof_record(self._sp, label, duration)
        yield self._kernel.u_exec(self._sp, duration)

    def sleep(self, duration: float):
        """Generator: block for ``duration`` us (timer wait)."""
        yield from self._kernel.block(
            self._sp, BlockReason.TIMER, self._kernel.sim.timeout(duration)
        )


class KernelSemaphore:
    """A VORX kernel semaphore for subprocess synchronisation (Section 5).

    Unlike the engine-level :class:`repro.sim.resources.Semaphore`, P and V
    charge kernel CPU time and blocking/waking a subprocess charges the
    context switch, exactly like any other kernel blocking point.  ``V``
    may be called from interrupt handlers (it never blocks).
    """

    def __init__(self, kernel: "KernelCore", value: int = 0, name: str = "sem") -> None:
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self.kernel = kernel
        self.name = name
        self.value = value
        self._waiters: list[tuple["Subprocess", Any]] = []  # (sp, event)

    def p(self, sp: "Subprocess"):
        """Generator: P (down).  Blocks the subprocess when value == 0."""
        kernel = self.kernel
        yield kernel.k_exec(kernel.costs.semaphore_op)
        if self.value > 0 and not self._waiters:
            self.value -= 1
            return
        event = kernel.sim.event()
        self._waiters.append((sp, event))
        yield from kernel.block(sp, BlockReason.SEMAPHORE, event)

    def try_p(self) -> bool:
        """Non-blocking P; no CPU charge (used inside handlers)."""
        if self.value > 0 and not self._waiters:
            self.value -= 1
            return True
        return False

    def v(self) -> None:
        """V (up).  Safe from interrupt context; wakes the oldest waiter.

        The caller is responsible for charging CPU time
        (:attr:`~repro.model.costs.CostModel.semaphore_op`) in its own
        context; this keeps V usable from ISRs without re-entering the CPU.
        """
        if self._waiters:
            _sp, event = self._waiters.pop(0)
            event.succeed()
        else:
            self.value += 1

    @property
    def waiting(self) -> int:
        return len(self._waiters)
