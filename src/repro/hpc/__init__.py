"""The HPC interconnect (paper Sections 1-2).

A packet-level model of the 160 Mbit/sec self-routing interconnect:

* :mod:`repro.hpc.message` -- hardware messages (max 1060 payload bytes).
* :mod:`repro.hpc.port` -- full-message input buffering with hardware
  flow-control credits (a link refuses a message until an entire-message
  buffer is free).
* :mod:`repro.hpc.link` -- unidirectional serializing links.
* :mod:`repro.hpc.cluster` -- twelve-port self-routing star clusters with
  fair (FIFO) output arbitration.
* :mod:`repro.hpc.nic` -- the processor's interface: tx queue, rx buffer,
  rx/tx interrupts.
* :mod:`repro.hpc.topology` -- topology specs (single cluster, the
  incomplete hypercube of [Katseff 88], HyperX, mesh) and the one
  routine that wires a spec into a fabric.

Two properties the paper relies on hold by construction: the interconnect
never loses a message, and every blocked sender is eventually serviced
(FIFO arbitration).
"""

from repro.hpc.message import Packet, MessageKind
from repro.hpc.port import BufferedInput
from repro.hpc.link import Link
from repro.hpc.cluster import Cluster
from repro.hpc.nic import HPCInterface
from repro.hpc.topology import (
    Fabric,
    build_hypercube,
    build_hyperx,
    build_mesh2d,
    build_single_cluster,
)

__all__ = [
    "Packet",
    "MessageKind",
    "BufferedInput",
    "Link",
    "Cluster",
    "HPCInterface",
    "Fabric",
    "build_single_cluster",
    "build_hypercube",
    "build_hyperx",
    "build_mesh2d",
]
