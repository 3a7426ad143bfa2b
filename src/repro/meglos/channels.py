"""Meglos channels: named channels with a *centralized* manager.

Both Meglos and VORX provide named communications channels (the channel
API predates VORX: "Communications in Meglos", ref [11]).  The crucial
difference is Section 3.2's: *"All resource management in Meglos was
centralized on a single host ...  The bottleneck in setting up
communications occurred because all the channel opens were processed by
the single resource manager on the host."*

This module implements that organisation on the S/NET substrate: every
open is a request to the manager on node 0 (the "host"), which charges
the full centralized-manager request cost and pairs names FIFO.  Data
then moves with the same stop-and-wait protocol as VORX channels, built
on the Meglos kernel's reliable-send machinery.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from repro.hpc.message import MessageKind, Packet
from repro.meglos.flowcontrol import Reservation, RetryStrategy
from repro.vorx.errors import ChannelStateError
from repro.vorx.subprocesses import BlockReason, Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.meglos.kernel import MeglosNode, MeglosSystem


class MeglosEndpoint:
    """One side of a Meglos channel."""

    def __init__(self, eid: int, name: str, sp: Subprocess) -> None:
        self.eid = eid
        self.name = name
        self.sp = sp
        self.peer_addr: Optional[int] = None
        self.peer_eid: Optional[int] = None
        self.open = False
        self.side_buffers: deque[tuple[int, Any]] = deque()
        self.reader_event = None
        self.writer_event = None
        self.messages_sent = 0
        self.messages_received = 0


class MeglosChannelService:
    """Per-node channel implementation over the S/NET.

    Installed by :func:`install_channels`; adds ``chan_open`` /
    ``chan_write`` / ``chan_read`` to every node and routes all opens
    through the single manager node (the Meglos host).
    """

    MANAGER_NODE = 0
    OPEN_BYTES = 48

    def __init__(self, node: "MeglosNode") -> None:
        self.node = node
        self.endpoints: dict[int, MeglosEndpoint] = {}
        self._next_eid = 1
        # Manager state (only used on MANAGER_NODE).
        self._pending: dict[str, deque[tuple[int, int, int]]] = {}
        self.opens_handled = 0
        node.channel_service = self  # type: ignore[attr-defined]
        node.register_handler(MessageKind.CHANNEL_CTRL, self._on_ctrl)

    # ------------------------------------------------------------------
    # subprocess-context API
    # ------------------------------------------------------------------
    def open(self, sp: Subprocess, name: str,
             strategy: Optional[RetryStrategy] = None):
        """Generator: open ``name``; every request hits the host manager.

        With no explicit ``strategy``, the system's configured
        ``recovery=`` policy retries the request.
        """
        node = self.node
        strategy = strategy or node.default_strategy()
        endpoint = MeglosEndpoint(self._next_eid, name, sp)
        self._next_eid += 1
        self.endpoints[endpoint.eid] = endpoint
        token, event = node.expect_reply()
        yield node.k_exec(node.costs.syscall_overhead)
        request = {"op": "open", "name": name, "addr": node.address,
                   "eid": endpoint.eid, "token": token}
        if node.address == self.MANAGER_NODE:
            # Even local opens pay the centralized manager's cost.
            yield node.k_exec(node.costs.central_manager_request)
            self._handle_open(request)
        else:
            yield from self._ctrl_send(self.MANAGER_NODE, request, strategy)
        peer_addr, peer_eid = yield from node.await_reply(sp, token, event)
        endpoint.peer_addr = peer_addr
        endpoint.peer_eid = peer_eid
        endpoint.open = True
        return endpoint

    def write(self, sp: Subprocess, endpoint: MeglosEndpoint, nbytes: int,
              payload: Any = None,
              strategy: Optional[RetryStrategy] = None):
        """Generator: stop-and-wait write over the S/NET.

        With no explicit ``strategy``, the system's configured
        ``recovery=`` policy decides; under a reservation the data is
        sent only once the reader's node has granted it the bus.
        """
        node = self.node
        strategy = strategy or node.default_strategy()
        if not endpoint.open:
            raise ChannelStateError(f"channel {endpoint.name!r} is not open")
        ack = node.sim.event()
        endpoint.writer_event = ack
        yield node.k_exec(node.costs.syscall_overhead)
        if isinstance(strategy, Reservation):
            yield from node.reserve(sp, endpoint.peer_addr, strategy)
        yield from self._ctrl_send(
            endpoint.peer_addr,
            {"op": "data", "channel": endpoint.peer_eid,
             "src_channel": endpoint.eid, "data": payload},
            strategy, nbytes=nbytes,
        )
        try:
            yield from node.block(sp, BlockReason.OUTPUT, ack)
        finally:
            endpoint.writer_event = None
        endpoint.messages_sent += 1

    def read(self, sp: Subprocess, endpoint: MeglosEndpoint):
        """Generator: read the next message; ``(nbytes, payload)``."""
        node = self.node
        if not endpoint.open:
            raise ChannelStateError(f"channel {endpoint.name!r} is not open")
        yield node.k_exec(node.costs.syscall_overhead)
        if endpoint.side_buffers:
            size, payload = endpoint.side_buffers.popleft()
            yield node.k_exec(node.costs.copy_time(size))
            return size, payload
        event = node.sim.event()
        endpoint.reader_event = event
        try:
            size, payload = yield from node.block(
                sp, BlockReason.INPUT, event
            )
        finally:
            endpoint.reader_event = None
        return size, payload

    # ------------------------------------------------------------------
    # message handling (called from the Meglos kernel's delivery path)
    # ------------------------------------------------------------------
    def _on_ctrl(self, packet: Packet):
        """Generator (ISR context): the CHANNEL_CTRL handler."""
        node = self.node
        body = packet.payload
        if isinstance(body, dict) and body.get("op") == "open":
            # The centralized manager's full request cost is paid on the
            # host for every open (Section 3.2).
            yield node.isr_exec(node.costs.central_manager_request)
        else:
            yield node.isr_exec(node.costs.chan_recv_kernel)
        self.on_message(packet)

    def on_message(self, packet: Packet) -> bool:
        """Handle a channel protocol message; True if it was ours."""
        body = packet.payload
        if not isinstance(body, dict) or "op" not in body:
            return False
        op = body["op"]
        node = self.node
        if op == "open":
            self.opens_handled += 1
            self._handle_open(body)
        elif op == "open-reply":
            node.resolve(body["token"], (body["peer_addr"], body["peer_eid"]))
        elif op == "data":
            endpoint = self.endpoints.get(body["channel"])
            if endpoint is None:
                return True
            endpoint.messages_received += 1
            if endpoint.reader_event is not None:
                event = endpoint.reader_event
                endpoint.reader_event = None
                event.succeed((packet.size, body["data"]))
            else:
                endpoint.side_buffers.append((packet.size, body["data"]))
            node.sim.process(self._send(
                packet.src, node.costs.chan_ack_bytes,
                {"op": "ack", "channel": body["src_channel"]},
                node.costs.chan_ack_send, node.spin_wait,
            ))
            node.release_grant(packet.src)
        elif op == "ack":
            endpoint = self.endpoints.get(body["channel"])
            if endpoint is not None and endpoint.writer_event is not None:
                event = endpoint.writer_event
                endpoint.writer_event = None
                event.succeed()
        else:
            return False
        return True

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _ctrl_send(self, dst: int, body: dict, strategy: RetryStrategy,
                   nbytes: Optional[int] = None):
        """Generator: reliable protocol send from a subprocess."""
        node = self.node
        size = nbytes if nbytes is not None else self.OPEN_BYTES
        yield from self._send(
            dst, size, body,
            node.costs.chan_send_kernel + node.costs.copy_time(size),
            lambda attempts: strategy.wait(node, attempts),
        )

    def _send(self, dst: int, size: int, body: dict, cost: float, wait):
        """Generator: charge ``cost`` once, then transmit until accepted."""
        node = self.node
        yield node.k_exec(cost)
        yield from node.iface.send_until_accepted(
            lambda: Packet(src=node.address, dst=dst, size=size,
                           kind=MessageKind.CHANNEL_CTRL, payload=body),
            wait,
        )

    def _handle_open(self, request: dict) -> None:
        """FIFO pairing at the centralized manager."""
        queue = self._pending.setdefault(request["name"], deque())
        if queue:
            partner_addr, partner_eid, partner_token = queue.popleft()
            self._reply(partner_addr, partner_token,
                        request["addr"], request["eid"])
            self._reply(request["addr"], request["token"],
                        partner_addr, partner_eid)
        else:
            queue.append((request["addr"], request["eid"], request["token"]))

    def _reply(self, addr: int, token: int, peer_addr: int,
               peer_eid: int) -> None:
        node = self.node
        body = {"op": "open-reply", "token": token,
                "peer_addr": peer_addr, "peer_eid": peer_eid}
        if addr == node.address:
            node.resolve(token, (peer_addr, peer_eid))
            return
        node.sim.process(self._send(addr, self.OPEN_BYTES, body,
                                    node.costs.chan_ack_send, node.spin_wait))


def install_channels(system: "MeglosSystem") -> list[MeglosChannelService]:
    """Install the channel service on every node of a Meglos system.

    Returns the per-node services; the manager piece is active only on
    node 0 (the host).  Each service registers its channel control
    handler with its node's kernel.
    """
    return [MeglosChannelService(node) for node in system.nodes]
