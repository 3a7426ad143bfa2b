"""The Meglos kernel on the S/NET (Sections 1-3).

A deliberately smaller kernel than VORX (Meglos predates it): it runs the
same subprocess scheduler, :class:`~repro.vorx.subprocesses.KernelCore`,
but communication runs over the shared bus with *software* overflow
recovery, and all resource management is centralized on a single host
(node 0 by convention).

The receive path reproduces the Section 2 mechanics exactly: the ISR
reads fifo entries in order, charging copy time for every byte --
including the partial messages it must read **and discard** after an
overflow.  That discard work is what starves the fifo of free space and
produces the lockout under busy retransmission.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hpc.message import MessageKind, Packet
from repro.sim.resources import Store
from repro.snet.nic import SNetInterface
from repro.snet.recovery import (
    POLICIES,
    BusyRetransmit,
    Reservation,
    RetryStrategy,
    drain,
    make_strategy,
)
from repro.vorx.subprocesses import (
    BlockReason,
    KernelCore,
    KernelEnv,
    Subprocess,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.events import Event
    from repro.model.costs import CostModel
    from repro.snet.fifo import FifoEntry


class MeglosEnv(KernelEnv):
    """Application API on a Meglos node (subset of the VORX Env)."""

    def send(self, dst: int, nbytes: int,
             strategy: Optional[RetryStrategy] = None, payload: Any = None):
        """Generator: reliable send under an overflow-recovery strategy.

        With no explicit ``strategy``, the system's configured
        ``recovery=`` policy decides (historically: busy retransmission).
        """
        strategy = strategy or self._kernel.default_strategy()
        attempts = yield from self._kernel.send_reliable(
            self._sp, dst, nbytes, strategy, payload
        )
        return attempts

    def recv(self):
        """Generator: blocking receive of the next whole message."""
        packet = yield from self._kernel.receive(self._sp)
        return packet

    def disable_interrupts(self) -> None:
        """Mask receive interrupts (e.g. a device critical section)."""
        self._kernel.disable_interrupts()

    def enable_interrupts(self) -> None:
        self._kernel.enable_interrupts()


class MeglosNode(KernelCore):
    """One Meglos processor on the S/NET bus."""

    env_class = MeglosEnv

    def __init__(
        self,
        sim: "Simulator",
        costs: "CostModel",
        iface: SNetInterface,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(sim, costs, iface, name or f"meglos{iface.address}")
        self._m_sends = self.metrics.counter("snet.sends")
        self._m_retries = self.metrics.counter("snet.retries")
        self._m_recovered = self.metrics.counter("snet.recovered_sends")
        self._m_partials = self.metrics.counter("snet.partials_discarded")
        self._m_partial_bytes = self.metrics.counter(
            "snet.partial_bytes_discarded"
        )
        #: Delivered whole messages awaiting a reader.
        self.inbox: Store = Store(sim)
        #: Partial messages read-and-discarded (Section 2's wasted work).
        self.partials_discarded = 0
        self.partial_bytes_discarded = 0
        #: Builds a fresh default overflow-recovery strategy; set by
        #: :class:`MeglosSystem` from its ``recovery=`` policy.
        self.default_strategy: Callable[[], RetryStrategy] = BusyRetransmit
        # Reservation protocol state (receiver side).
        self._grant_queue: deque[int] = deque()
        self._grant_active: Optional[int] = None
        # Reservation protocol state (sender side): dst -> grant events
        # of the subprocesses waiting on it, oldest first.
        self._awaiting_grant: dict[int, deque["Event"]] = {}
        self.register_handler(MessageKind.CONTROL, self._on_reservation_control)

    # ------------------------------------------------------------------
    # receive path: drain the fifo, discarding partials
    # ------------------------------------------------------------------
    def disable_interrupts(self) -> None:
        """Mask the receive interrupt (arrivals accumulate in the fifo)."""
        self.iface.disable_interrupts()

    def enable_interrupts(self) -> None:
        """Unmask the receive interrupt, draining any backlog."""
        self.iface.enable_interrupts()

    def _isr(self):
        """The receive interrupt: the S/NET's one timed fifo drain."""
        yield from drain(self.iface.fifo, self.costs, self.isr_exec,
                         self._dispatch, self._discard)
        self._isr_active = False

    def _discard(self, entry: "FifoEntry") -> None:
        self.partials_discarded += 1
        self.partial_bytes_discarded += entry.stored_bytes
        self._m_partials.inc()
        self._m_partial_bytes.inc(entry.stored_bytes)

    def _unhandled(self, packet: Packet):
        """Generator (ISR context): a whole message for the inbox."""
        yield self.isr_exec(self.costs.chan_recv_kernel)
        self.inbox.try_put(packet)
        self.release_grant(packet.src)

    # ------------------------------------------------------------------
    # send path with software overflow recovery
    # ------------------------------------------------------------------
    def spin_wait(self, attempts: int):
        """Generator: the kernel helpers' fixed pause between attempts."""
        yield self.sim.timeout(self.costs.snet_retry_spin * 4)

    def send_reliable(
        self,
        sp: Subprocess,
        dst: int,
        nbytes: int,
        strategy: RetryStrategy,
        payload: Any = None,
    ):
        """Generator: transmit until accepted, per the recovery strategy.

        Returns the number of transmission attempts (1 = no overflow).
        """
        if isinstance(strategy, Reservation):
            yield from self.reserve(sp, dst, strategy)
        self._m_sends.inc()
        # The message is copied into the interface once; retransmissions
        # just re-trigger the hardware ("continuously resend"), which is
        # what makes the busy-retransmit loop so tight.
        yield self.k_exec(
            self.costs.chan_send_kernel + self.costs.copy_time(nbytes)
        )

        def retry(attempts: int):
            self._m_retries.inc()
            self.metrics.counter(
                "snet.retries_by_policy", labels=(strategy.name,)
            ).inc()
            yield from strategy.wait(self, attempts)

        attempts = yield from self.iface.send_until_accepted(
            Packet(src=self.address, dst=dst, size=nbytes,
                   kind=MessageKind.USER_OBJECT, payload=payload),
            retry,
        )
        if attempts > 1:
            self._m_recovered.inc()
            self.emit("snet", "send-recovered", dst=dst, size=nbytes,
                      attempts=attempts, policy=strategy.name)
        return attempts

    def reserve(self, sp: Subprocess, dst: int, strategy: RetryStrategy):
        """Request/grant handshake preceding a reservation-mode send."""
        grant = self.sim.event()
        self._awaiting_grant.setdefault(dst, deque()).append(grant)
        yield from self._send_control(
            dst, "request", lambda attempts: strategy.wait(self, attempts)
        )
        yield from self.block(sp, BlockReason.OUTPUT, grant)

    def _send_control(self, dst: int, op: str, wait):
        """Generator: send reservation ``op``, charging every attempt."""
        cost = self.costs.chan_ack_send

        def retry(attempts: int):
            yield from wait(attempts)
            yield self.k_exec(cost)

        yield self.k_exec(cost)
        yield from self.iface.send_until_accepted(
            Packet(src=self.address, dst=dst, size=8,
                   kind=MessageKind.CONTROL, payload={"op": op}),
            retry,
        )

    def _on_reservation_control(self, packet: Packet):
        yield self.isr_exec(self.costs.chan_ack_recv)
        op = packet.payload["op"]
        if op == "request":
            self._grant_queue.append(packet.src)
            if self._grant_active is None:
                self._issue_next_grant()
        elif op == "grant":
            waiters = self._awaiting_grant.get(packet.src)
            if waiters:
                waiters.popleft().succeed()
        else:  # pragma: no cover - future ops
            raise ValueError(f"unknown reservation op {op!r}")

    def release_grant(self, sender: int) -> None:
        """Data from ``sender`` arrived: end its grant, authorize the next."""
        if self._grant_active == sender:
            self._grant_active = None
            self._issue_next_grant()

    def _issue_next_grant(self) -> None:
        if not self._grant_queue:
            return
        sender = self._grant_queue.popleft()
        self._grant_active = sender
        # Grants go out via a kernel helper process (ISR cannot block on
        # the bus).
        self.sim.process(self._send_control(sender, "grant", self.spin_wait))

    # ------------------------------------------------------------------
    # blocking receive
    # ------------------------------------------------------------------
    def receive(self, sp: Subprocess):
        """Generator: wait for the next whole delivered message."""
        if len(self.inbox) > 0:
            packet = yield self.inbox.get()
            yield self.k_exec(self.costs.copy_time(packet.size))
            return packet
        packet = yield from self.block(sp, BlockReason.INPUT, self.inbox.get())
        yield self.k_exec(self.costs.copy_time(packet.size))
        return packet


class MeglosSystem:
    """A complete S/NET + Meglos machine (at most ~12 processors)."""

    #: The S/NET's practical size limit (paper: largest system had 12).
    MAX_NODES = 13

    def __init__(
        self,
        n_nodes: int,
        costs=None,
        sim: Optional["Simulator"] = None,
        *,
        recovery: str = "busy-retransmit",
        seed: int = 1990,
        topology: Optional[str] = None,
        fabric=None,
        faults=None,
    ):
        """Build the machine.

        ``recovery`` selects the Section 2 overflow-recovery policy every
        node's sends default to: ``"busy-retransmit"`` (alias
        ``"naive"`` -- the original scheme, livelocks under many-to-one
        bursts), ``"random-backoff"``, or ``"reservation"``.  ``seed``
        makes the backoff schedules reproducible.

        Interconnect selection follows the same convention as
        :class:`VorxSystem <repro.vorx.system.VorxSystem>`: ``topology=``
        takes a registered name, ``fabric=`` takes a built
        :class:`~repro.fabric.base.FabricBackend` instance, and giving
        both raises.  Meglos drove the S/NET bus and nothing else, so
        only ``"snet"`` (the default) is legal -- the HPC topology names
        raise with a pointer to ``VorxSystem``.  A ``fabric=`` instance
        must be an S/NET backend; its per-node receive interrupts are
        taken over by the Meglos ISRs.  ``faults`` optionally attaches a
        :class:`repro.faults.FaultPlan`.
        """
        from repro.fabric.base import FabricBackend
        from repro.fabric.registry import available_topologies, create_fabric
        from repro.model.costs import DEFAULT_COSTS
        from repro.sim.engine import Simulator as _Sim

        if not isinstance(n_nodes, int) or isinstance(n_nodes, bool):
            raise TypeError(
                f"MeglosSystem(n_nodes=...) must be an int, got {n_nodes!r}"
            )
        if not 2 <= n_nodes <= self.MAX_NODES:
            raise ValueError(
                f"the S/NET supported 2..{self.MAX_NODES} processors, "
                f"got {n_nodes}"
            )
        if recovery not in POLICIES:
            raise ValueError(
                f"MeglosSystem(recovery=...) must be one of {POLICIES}, "
                f"got {recovery!r}"
            )
        if isinstance(fabric, str):
            # Historical spelling: fabric="snet" selected by name before
            # topology= existed.  Remap it so old call sites keep their
            # exact error behaviour.
            if topology is not None:
                raise ValueError(
                    "MeglosSystem(): give topology= (a registered name) "
                    "or fabric= (a built FabricBackend instance), not both"
                )
            topology, fabric = fabric, None
        if topology is not None and fabric is not None:
            raise ValueError(
                "MeglosSystem(): give topology= (a registered name) or "
                "fabric= (a built FabricBackend instance), not both"
            )
        if fabric is not None and not isinstance(fabric, FabricBackend):
            raise TypeError(
                f"MeglosSystem(fabric=...) must be a FabricBackend "
                f"instance or None, got {fabric!r}"
            )
        if topology is None and fabric is None:
            topology = "snet"
        if topology is not None and topology != "snet":
            if topology in available_topologies():
                raise ValueError(
                    f"Meglos drove the S/NET bus, not the {topology!r} "
                    f"fabric; use VorxSystem(topology={topology!r}) for HPC "
                    f"interconnects"
                )
            raise ValueError(
                f"unknown fabric {topology!r}; available: "
                f"{', '.join(available_topologies())}"
            )
        if fabric is not None:
            if fabric.topology_name != "snet":
                raise ValueError(
                    f"Meglos drove the S/NET bus, not the "
                    f"{fabric.topology_name!r} fabric; use "
                    f"VorxSystem(fabric=...) for HPC interconnects"
                )
            if sim is not None and fabric.sim is not sim:
                raise ValueError(
                    "MeglosSystem(fabric=...) already carries a "
                    "simulator; drop sim= or pass the same instance"
                )
            if len(fabric.addresses) < n_nodes:
                raise ValueError(
                    f"MeglosSystem(fabric=...) has "
                    f"{len(fabric.addresses)} endpoints but n_nodes = "
                    f"{n_nodes}"
                )
            sim = fabric.sim
            if costs is None:
                costs = fabric.costs
        self.sim = sim or _Sim()
        self.costs = costs or DEFAULT_COSTS
        self.recovery = recovery
        if fabric is not None:
            self.fabric = fabric
        else:
            # The backend owns the bus and the per-processor interfaces;
            # each MeglosNode replaces the backend's generic receive drain
            # with its own ISR.
            self.fabric = create_fabric(
                topology, self.sim, self.costs, n_endpoints=n_nodes,
            )
        self.bus = self.fabric.bus
        self.nodes: list[MeglosNode] = []
        for i in range(n_nodes):
            node = MeglosNode(self.sim, self.costs, self.fabric.iface(i), f"m{i}")
            node.default_strategy = (
                lambda addr=i: make_strategy(recovery, addr, seed)
            )
            self.nodes.append(node)
        if faults is not None:
            if not hasattr(faults, "attach"):
                raise TypeError(
                    f"MeglosSystem(faults=...) must be a FaultPlan or "
                    f"None, got {faults!r}"
                )
            faults.attach(self)

    @property
    def faults(self):
        """The attached fault injector, or ``None``."""
        return self.sim.faults

    @property
    def vstat(self):
        """The simulator's unified metrics/trace hub."""
        return self.sim.vstat

    def node(self, index: int) -> MeglosNode:
        return self.nodes[index]

    def spawn(self, node_index: int, program, **kwargs) -> Subprocess:
        return self.nodes[node_index].spawn(program, **kwargs)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


#: The paper never names the OS and the hardware separately in casual
#: use; ``SnetSystem`` is the substrate-named alias for scripts that
#: contrast "the S/NET machine" with "the HPC machine".
SnetSystem = MeglosSystem
