"""The S/NET interconnect (paper Section 2) -- VORX's predecessor substrate.

A single shared bus connects up to ~12 processors.  Each processor has a
2048-byte receive fifo.  The hardware has **no** link-level flow control:
when a message arrives at a full (or filling) fifo, the fifo *retains the
portion received up to the overflow* and signals fifo-full back to the
transmitter, which must recover in software.  The receiving software must
read and discard the partial message.  Both halves of that software, the
retry strategies and the fifo drain, are :mod:`repro.snet.recovery`.

This is the substrate on which :mod:`repro.meglos` exhibits the paper's
retransmission-lockout pathology, and against which the HPC's in-hardware
flow control (:mod:`repro.hpc`) is compared in experiment E7.
"""

from repro.snet.fifo import SNetFifo, FifoEntry
from repro.snet.bus import SNetBus
from repro.snet.nic import SNetInterface
from repro.snet.fabric import SNetFabric

__all__ = ["SNetFifo", "FifoEntry", "SNetBus", "SNetInterface", "SNetFabric"]
