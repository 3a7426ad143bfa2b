"""The communications object manager (paper Section 3.2).

Meglos centralized all resource management on a single host, which made
channel opens a serious bottleneck beyond ~10 processors.  VORX replicates
the *communications object manager* onto every processing node and uses
**distributed hashing** to map a channel name to the node whose manager
handles opens for that name -- two processes opening the same name always
hash to the same manager, so it can pair them.

This module implements both organisations behind one interface:

* ``distributed`` -- managers on every node, names hashed over them
  (VORX; the default).
* ``centralized`` -- a single manager address handles every open
  (Meglos-style; used by experiment E9 to reproduce the bottleneck).

Every named rendezvous goes through it: channel opens and user-defined
communications objects (Section 4.1: "integrated with the object
manager") as the ``"open"`` op, multicast groups (Section 4.2) as the
``"mc-join"`` and ``"mc-open"`` ops that :mod:`repro.vorx.multicast`
registers.  A client calls :meth:`ObjectManagerService.request`; the
manager piece runs the op's handler, which answers through
:meth:`ObjectManagerService.reply`.  Requests and replies travel as
48-byte ``MANAGER`` messages, and a request whose manager is the local
node skips the wire but still pays the manager's processing cost.  The
client waits on the kernel's reply-token table.

Pairing is FIFO per name, which also provides the paper's server
name-reuse semantics: a server re-opening the same name repeatedly pairs
with successive clients.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.hpc.message import MessageKind, Packet
from repro.vorx.subprocesses import Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.kernel import NodeKernel

#: Wire size of manager requests and replies.
MANAGER_MESSAGE_BYTES = 48


def name_hash(name: str) -> int:
    """Deterministic hash used for distributed name placement."""
    return zlib.crc32(name.encode("utf-8"))


class ObjectManagerService:
    """Per-kernel object manager: both the server piece and the client side."""

    def __init__(self, kernel: "NodeKernel") -> None:
        self.kernel = kernel
        #: Manager addresses names are hashed over.  Set by the system
        #: builder; a single-element list gives the centralized (Meglos)
        #: organisation.
        self.manager_addresses: list[int] = [kernel.address]
        #: Server side: op -> handler(request) run by the manager piece.
        self._ops: dict[str, Callable[[dict], None]] = {}
        #: Server side: (kind, name) -> FIFO of unpaired open requests.
        self._pending: dict[tuple[str, str], deque[dict]] = {}
        #: Opens handled by this node's manager piece (statistics for E9).
        self.opens_handled = 0
        self.register_op("open", self._serve_open)
        kernel.register_handler(MessageKind.MANAGER, self.on_manager)

    def register_op(self, op: str, handler: Callable[[dict], None]) -> None:
        """Install the manager-side handler for requests of ``op``."""
        if op in self._ops or op == "reply":
            raise ValueError(f"{self.kernel.name}: manager op {op!r} "
                             "already present")
        self._ops[op] = handler

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def node_for(self, name: str) -> int:
        """The manager address responsible for ``name``."""
        if not self.manager_addresses:
            raise RuntimeError("object manager has no configured addresses")
        return self.manager_addresses[name_hash(name) % len(self.manager_addresses)]

    # ------------------------------------------------------------------
    # client side (subprocess context)
    # ------------------------------------------------------------------
    def request(self, sp: Subprocess, op: str, name: str, **fields):
        """Generator: send ``op`` for ``name`` to its manager; return the reply.

        Blocks the subprocess until the manager answers (for ``"open"``:
        until a peer opens the same name, returning ``(peer_address,
        peer_id)``).
        """
        kernel = self.kernel
        token, event = kernel.expect_reply()
        manager = self.node_for(name)
        request = dict(fields, op=op, name=name, addr=kernel.address,
                       token=token)
        if manager == kernel.address:
            # Local shortcut: no wire traversal, but the manager's
            # processing cost is still paid.
            yield kernel.k_exec(kernel.costs.chan_open_kernel)
            self._ops[op](request)
        else:
            kernel.post(
                dst=manager,
                size=MANAGER_MESSAGE_BYTES,
                kind=MessageKind.MANAGER,
                payload=request,
            )
        return (yield from kernel.await_reply(sp, token, event))

    # ------------------------------------------------------------------
    # server side (ISR context)
    # ------------------------------------------------------------------
    def on_manager(self, packet: Packet):
        """Generator (ISR context): manager protocol traffic."""
        kernel = self.kernel
        body = packet.payload
        op = body["op"]
        if op == "reply":
            yield kernel.isr_exec(kernel.costs.chan_ack_recv)
            kernel.resolve(body["token"], body["result"])
            return
        serve = self._ops.get(op)
        if serve is None:  # pragma: no cover - future ops
            raise ValueError(f"unknown manager op {op!r}")
        yield kernel.isr_exec(kernel.costs.chan_open_kernel)
        serve(body)

    def reply(self, request: dict, result: Any) -> None:
        """Answer ``request``; a local requester is woken without the wire."""
        kernel = self.kernel
        if request["addr"] == kernel.address:
            kernel.resolve(request["token"], result)
            return
        kernel.post(
            dst=request["addr"],
            size=MANAGER_MESSAGE_BYTES,
            kind=MessageKind.MANAGER,
            payload={"op": "reply", "token": request["token"],
                     "result": result},
        )

    def _serve_open(self, request: dict) -> None:
        """Pair FIFO opens of the same (kind, name)."""
        self.opens_handled += 1
        key = (request["kind"], request["name"])
        queue = self._pending.setdefault(key, deque())
        if queue:
            partner = queue.popleft()
            self.reply(partner, (request["addr"], request["id"]))
            self.reply(request, (partner["addr"], partner["id"]))
        else:
            queue.append(request)
