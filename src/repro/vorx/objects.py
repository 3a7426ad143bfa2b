"""User-defined communications objects (paper Section 4.1).

*"Processes can access the hardware registers from their applications,
eliminating the overhead of supervisor calls into the kernel, and can
specify interrupt service routines to handle incoming messages.  This
allows the programmer to use whatever low-level protocols are appropriate
for the application."*

A :class:`UserObject` is a demultiplex point: messages of kind
``USER_OBJECT`` addressed to its id are handed to an application-supplied
handler running at interrupt level, or queued for polling when interrupts
are disabled (the single-subprocess structure of Section 5, used by the
parallel SPICE work).  Sends go straight to the device -- user-context CPU
time, no syscall.  Objects rendezvous by name through the same object
manager as channels.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.hpc.message import MessageKind, Packet
from repro.vorx.errors import ObjectError
from repro.vorx.subprocesses import Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.kernel import NodeKernel

#: Handler type: called at interrupt level with the packet; may return a
#: generator to charge additional CPU time via ``kernel.isr_exec``.
Handler = Callable[[Packet], Any]


class UserObject:
    """One user-defined communications object."""

    def __init__(
        self,
        service: "UserObjectService",
        oid: int,
        name: Optional[str],
        sp: Subprocess,
        handler: Optional[Handler],
    ) -> None:
        self.service = service
        self.oid = oid
        self.name = name
        self.sp = sp
        self.handler = handler
        self.peer_addr: Optional[int] = None
        self.peer_oid: Optional[int] = None
        #: Arrivals queued when no handler is installed (polling mode).
        self.queue: deque[Packet] = deque()
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def connected(self) -> bool:
        return self.peer_addr is not None

    def __repr__(self) -> str:
        return f"<UserObject {self.name!r} oid={self.oid} peer={self.peer_addr}>"


class UserObjectService:
    """Per-kernel registry and datapath for user-defined objects."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        self.objects: dict[int, UserObject] = {}
        self._next_oid = 1
        kernel.register_handler(MessageKind.USER_OBJECT, self.on_message)

    # ------------------------------------------------------------------
    # creation / rendezvous (subprocess context)
    # ------------------------------------------------------------------
    def create(
        self,
        sp: Subprocess,
        name: Optional[str] = None,
        handler: Optional[Handler] = None,
    ):
        """Generator: create an object; if named, rendezvous with a peer.

        With a ``name`` the call blocks until another node creates an
        object with the same name (channel-style pairing through the
        object manager); anonymous objects are local-only demux points
        whose ids must be communicated out of band.
        """
        kernel = self.kernel
        obj = UserObject(self, self._next_oid, name, sp, handler)
        self._next_oid += 1
        self.objects[obj.oid] = obj
        if name is not None:
            peer_addr, peer_oid = yield from kernel.manager.request(
                sp, "open", name, kind="object", id=obj.oid
            )
            obj.peer_addr = peer_addr
            obj.peer_oid = peer_oid
        return obj

    # ------------------------------------------------------------------
    # send (user context -- no supervisor call)
    # ------------------------------------------------------------------
    def send(
        self,
        obj: UserObject,
        nbytes: int,
        payload: Any = None,
        dst: Optional[int] = None,
        dst_oid: Optional[int] = None,
    ):
        """Generator: write the device registers directly and launch.

        Charges user-context time (``ud_send`` + the copy into the
        interface); there is no kernel trap and no flow control -- that is
        the application's business (Section 4.1).
        """
        kernel = self.kernel
        costs = kernel.costs
        if dst is None:
            if not obj.connected:
                raise ObjectError(
                    f"object {obj.oid} is not connected and no dst was given"
                )
            dst, dst_oid = obj.peer_addr, obj.peer_oid
        if nbytes > costs.hpc_max_message:
            raise ObjectError(
                f"{nbytes} bytes exceeds the hardware maximum "
                f"{costs.hpc_max_message}; user protocols must fragment"
            )
        yield kernel.u_exec(obj.sp, costs.ud_send + costs.copy_time(nbytes))
        kernel.post(
            dst=dst,
            size=nbytes,
            kind=MessageKind.USER_OBJECT,
            channel=dst_oid if dst_oid is not None else 0,
            payload=payload,
        )
        obj.messages_sent += 1

    # ------------------------------------------------------------------
    # receive: interrupt path (ISR context)
    # ------------------------------------------------------------------
    def on_message(self, packet: Packet):
        """Generator (ISR context): deliver to the object's handler/queue."""
        kernel = self.kernel
        obj = self.objects.get(packet.channel)
        if obj is None:
            # Unknown object: hardware already consumed it; drop.
            yield kernel.isr_exec(kernel.costs.ud_recv)
            return
        obj.messages_received += 1
        yield kernel.isr_exec(kernel.costs.ud_recv)
        if obj.handler is not None:
            result = obj.handler(packet)
            if result is not None and hasattr(result, "send"):
                yield from result
        else:
            obj.queue.append(packet)

    # ------------------------------------------------------------------
    # receive: polling path (user context, interrupts disabled)
    # ------------------------------------------------------------------
    def poll(self, obj: UserObject):
        """Generator: test the interface for input (Section 5's polling).

        Drains any packets sitting in the interface into object queues,
        then returns the oldest packet queued for ``obj`` (or ``None``).
        Non-object traffic found while polling is handed back to the
        kernel's normal dispatcher.
        """
        kernel = self.kernel
        yield kernel.u_exec(obj.sp, kernel.costs.ud_poll)
        while True:
            packet = kernel.iface.read()
            if packet is None:
                break
            if packet.kind is MessageKind.USER_OBJECT:
                target = self.objects.get(packet.channel)
                if target is not None:
                    target.messages_received += 1
                    target.queue.append(packet)
            else:
                kernel.dispatch_out_of_band(packet)
        if obj.queue:
            return obj.queue.popleft()
        return None
