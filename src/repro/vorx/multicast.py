"""Flow-controlled multicast (paper Section 4.2).

*"We therefore designed the HPC hardware to be able to implement
multicast efficiently and devised a flow-controlled multicast primitive
that is integrated with channels."* -- and then the paper explains why
multicast is usually the wrong tool: every receiver pays to read data it
does not need, so as the processor count grows, a per-receiver
point-to-point message with just the needed data wins (the 2DFFT example,
experiment E6).

Model notes: receivers *join* a named group; a sender *opens* the group
for a known receiver count.  Both are requests to the communications
object manager that channel opens use (:mod:`repro.vorx.object_manager`):
this service registers the ``"mc-join"`` and ``"mc-open"`` ops there and
keeps the member lists on the manager node the group name hashes to.  A
multicast send charges the sender's CPU for **one** message (the HPC
hardware replicates it); the fabric carries one copy per member.  Flow
control: the sender blocks until every member's kernel has acknowledged
-- the multicast analogue of stop-and-wait.  ``MULTICAST`` messages carry
only that data and those acknowledgements.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.hpc.message import MessageKind, Packet
from repro.vorx.errors import ChannelStateError
from repro.vorx.subprocesses import BlockReason, Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event
    from repro.vorx.kernel import NodeKernel


class MulticastGroup:
    """Receiver-side handle for a joined group."""

    def __init__(self, gid: int, name: str, sp: Subprocess) -> None:
        self.gid = gid
        self.name = name
        self.sp = sp
        self.buffers: deque[tuple[int, Any]] = deque()
        self.reader_event: Optional["Event"] = None
        self.messages_received = 0
        #: Total payload bytes this member has had to read (the Section
        #: 4.2 cost that makes multicast inappropriate at scale).
        self.bytes_read = 0

    def __repr__(self) -> str:
        return f"<MulticastGroup {self.name!r} gid={self.gid}>"


class MulticastSendHandle:
    """Sender-side handle: the resolved member list."""

    def __init__(self, name: str, members: list[tuple[int, int]]) -> None:
        self.name = name
        #: (address, gid) of every member.
        self.members = members
        self.messages_sent = 0

    def __repr__(self) -> str:
        return f"<MulticastSendHandle {self.name!r} n={len(self.members)}>"


class MulticastService:
    """Per-kernel multicast implementation (data + group management)."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        self.groups: dict[int, MulticastGroup] = {}
        self._next_gid = 1
        # Manager-side state (only used on the node that names hash to).
        self._members: dict[str, list[tuple[int, int]]] = {}
        self._waiting_senders: dict[str, list[dict]] = {}
        # Sender-side in-flight acks: token -> [remaining, event].
        self._pending_acks: dict[int, list] = {}
        self._next_token = 1
        kernel.manager.register_op("mc-join", self._serve_join)
        kernel.manager.register_op("mc-open", self._serve_open)
        kernel.register_handler(MessageKind.MULTICAST, self.on_message)

    # ------------------------------------------------------------------
    # subprocess-context API
    # ------------------------------------------------------------------
    def join(self, sp: Subprocess, name: str):
        """Generator: join group ``name`` as a receiver."""
        kernel = self.kernel
        group = MulticastGroup(self._next_gid, name, sp)
        self._next_gid += 1
        self.groups[group.gid] = group
        yield kernel.k_exec(kernel.costs.syscall_overhead)
        yield from kernel.manager.request(sp, "mc-join", name, gid=group.gid)
        return group

    def open_send(self, sp: Subprocess, name: str, n_receivers: int):
        """Generator: open ``name`` for sending; blocks until the group
        has ``n_receivers`` members.  Returns the send handle."""
        if n_receivers < 1:
            raise ValueError(f"need at least one receiver, got {n_receivers}")
        kernel = self.kernel
        yield kernel.k_exec(kernel.costs.syscall_overhead)
        members = yield from kernel.manager.request(
            sp, "mc-open", name, expected=n_receivers
        )
        return MulticastSendHandle(name, [tuple(m) for m in members])

    def send(self, sp: Subprocess, handle: MulticastSendHandle,
             nbytes: int, payload: Any = None):
        """Generator: flow-controlled multicast of one message.

        The sender's CPU is charged for a single kernel send (hardware
        replication); the call blocks until every member acknowledged.
        """
        kernel = self.kernel
        costs = kernel.costs
        if not handle.members:
            raise ChannelStateError(f"multicast group {handle.name!r} is empty")
        if nbytes > costs.hpc_max_message:
            raise ValueError(
                f"multicast of {nbytes} bytes exceeds the hardware maximum; "
                "fragment in the application"
            )
        yield kernel.k_exec(costs.syscall_overhead)
        yield kernel.k_exec(costs.chan_send_kernel + costs.copy_time(nbytes))
        token = self._next_token
        self._next_token += 1
        event = kernel.sim.event()
        self._pending_acks[token] = [len(handle.members), event]
        for addr, gid in handle.members:
            kernel.post(
                dst=addr, size=nbytes, kind=MessageKind.MULTICAST,
                channel=gid,
                payload={"op": "mc-data", "token": token,
                         "src_gid": 0, "data": payload},
            )
        try:
            yield from kernel.block(sp, BlockReason.OUTPUT, event)
        finally:
            self._pending_acks.pop(token, None)
        handle.messages_sent += 1

    def read(self, sp: Subprocess, group: MulticastGroup):
        """Generator: read the next multicast message; ``(nbytes, payload)``."""
        kernel = self.kernel
        costs = kernel.costs
        yield kernel.k_exec(costs.syscall_overhead)
        if group.buffers:
            size, payload = group.buffers.popleft()
            yield kernel.k_exec(costs.copy_time(size))
            return size, payload
        if group.reader_event is not None:
            raise ChannelStateError(
                f"group {group.name!r} already has a read outstanding"
            )
        event = kernel.sim.event()
        group.reader_event = event
        try:
            size, payload = yield from kernel.block(sp, BlockReason.INPUT, event)
        finally:
            group.reader_event = None
        return size, payload

    # ------------------------------------------------------------------
    # ISR-context handlers
    # ------------------------------------------------------------------
    def on_message(self, packet: Packet):
        """Generator (ISR context): multicast data and acknowledgements."""
        kernel = self.kernel
        costs = kernel.costs
        body = packet.payload
        op = body["op"]
        if op == "mc-data":
            group = self.groups.get(packet.channel)
            yield kernel.isr_exec(
                costs.chan_recv_kernel + costs.copy_time(packet.size)
            )
            if group is not None:
                group.messages_received += 1
                group.bytes_read += packet.size
                if group.reader_event is not None:
                    event = group.reader_event
                    group.reader_event = None
                    event.succeed((packet.size, body["data"]))
                else:
                    group.buffers.append((packet.size, body["data"]))
            # Flow control: acknowledge regardless so the sender's window
            # semantics do not depend on stragglers' group state.
            yield kernel.isr_exec(costs.chan_ack_send)
            kernel.post(
                dst=packet.src, size=costs.chan_ack_bytes,
                kind=MessageKind.MULTICAST,
                payload={"op": "mc-ack", "token": body["token"]},
            )
        elif op == "mc-ack":
            yield kernel.isr_exec(costs.chan_ack_recv)
            pending = self._pending_acks.get(body["token"])
            if pending is not None:
                pending[0] -= 1
                if pending[0] == 0:
                    pending[1].succeed()
        else:  # pragma: no cover - future ops
            raise ValueError(f"unknown multicast op {op!r}")

    # ------------------------------------------------------------------
    # manager ops (run on the node the group name hashes to)
    # ------------------------------------------------------------------
    def _serve_join(self, request: dict) -> None:
        name = request["name"]
        members = self._members.setdefault(name, [])
        members.append((request["addr"], request["gid"]))
        self.kernel.manager.reply(request, "joined")
        self._check_waiting_senders(name)

    def _serve_open(self, request: dict) -> None:
        name = request["name"]
        self._waiting_senders.setdefault(name, []).append(request)
        self._check_waiting_senders(name)

    def _check_waiting_senders(self, name: str) -> None:
        members = self._members.get(name, [])
        waiting = self._waiting_senders.get(name, [])
        still_waiting = []
        for request in waiting:
            expected = request["expected"]
            if len(members) >= expected:
                self.kernel.manager.reply(request, list(members[:expected]))
            else:
                still_waiting.append(request)
        self._waiting_senders[name] = still_waiting
