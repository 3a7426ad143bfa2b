"""Hardware messages (packets) carried by the HPC and S/NET interconnects.

A :class:`Packet` models one hardware message: a destination-routed unit
of at most :attr:`~repro.model.costs.CostModel.hpc_max_message` payload
bytes.  The ``kind`` field corresponds to the type word the kernels put in
the software header to demultiplex arrivals; the optional ``payload``
carries real Python data (numpy rows, syscall arguments) so applications
built on the simulator are functionally correct, not just timed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional


class MessageKind(str, Enum):
    """Software demultiplex tags used by the kernels."""

    #: Channel data message (stop-and-wait protocol).
    CHANNEL_DATA = "channel-data"
    #: Channel acknowledgement.
    CHANNEL_ACK = "channel-ack"
    #: Channel control traffic (open/close/rendezvous).
    CHANNEL_CTRL = "channel-ctrl"
    #: Flow-controlled multicast data.
    MULTICAST = "multicast"
    #: Message for a user-defined communications object.
    USER_OBJECT = "user-object"
    #: Forwarded UNIX system call to a host stub.
    SYSCALL = "syscall"
    #: System call result from a host stub.
    SYSCALL_REPLY = "syscall-reply"
    #: Program text chunk during download.
    DOWNLOAD = "download"
    #: Resource manager traffic (allocation, object manager).
    MANAGER = "manager"
    #: Kernel-to-kernel control (process start/exit, debugger attach).
    CONTROL = "control"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


_packet_seq = itertools.count()


@dataclass(slots=True)
class Packet:
    """One hardware message.

    ``size`` is the payload length in bytes and is what all timing is
    charged on; ``payload`` is the simulated content (ignored by the
    hardware model).  ``channel`` is a small software header field used to
    demultiplex within a kind (e.g. a channel id or object id).
    """

    src: int
    dst: int
    size: int
    kind: MessageKind
    channel: int = 0
    #: The sending endpoint's id, carried in the software header so
    #: replies (acks, naks) can be addressed even while the receiver's
    #: own rendezvous is still in flight.
    src_channel: int = 0
    payload: Any = None
    #: Stop-and-wait transfer id (per sending endpoint, monotone).  Lets
    #: receivers detect duplicates created by fault injection or spurious
    #: retransmission; ``None`` outside the channel data path.
    xfer: Optional[int] = None
    #: True when this fragment belongs to a *batched* (windowed) channel
    #: write: the receiving kernel defers the acknowledgement of a
    #: side-buffered fragment until a reader consumes it, which is what
    #: flow-controls the sender's window to the reader's pace.
    batched: bool = False
    #: Set by the fault injector when the message was damaged in flight;
    #: receivers treat a corrupted message as undecodable and request
    #: retransmission.
    corrupted: bool = False
    #: Monotone id for tracing and deterministic tie-breaks.
    seq: int = field(default_factory=lambda: next(_packet_seq))
    #: Simulation time the packet was injected (set by the NIC).
    sent_at: Optional[float] = None
    #: Number of cluster hops traversed (set by the fabric).
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative packet size: {self.size}")
        if self.src == self.dst:
            raise ValueError(f"packet addressed to its own source: {self.src}")

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.seq} {self.kind} {self.src}->{self.dst} "
            f"{self.size}B ch={self.channel}>"
        )
