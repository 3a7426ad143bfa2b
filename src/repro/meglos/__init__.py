"""Meglos: the S/NET predecessor operating system (paper Sections 1-3).

Meglos ran on the single-bus S/NET with no hardware flow control; its
communications software had to cope with receive-fifo overflow.  This
package implements the Meglos kernel on the :mod:`repro.snet` substrate.
The three overflow-recovery schemes the paper discusses (busy
retransmission, random backoff, reservation) live with the substrate in
:mod:`repro.snet.recovery` and are re-exported here.

Experiments E7/E8/E13 run many-to-one workloads over these schemes and
compare them with the HPC's in-hardware flow control.
"""

from repro.meglos.channels import MeglosChannelService, install_channels
from repro.meglos.kernel import MeglosNode, MeglosSystem, SnetSystem
from repro.snet.recovery import (
    POLICIES,
    BusyRetransmit,
    RandomBackoff,
    Reservation,
    RetryStrategy,
    make_strategy,
)

__all__ = [
    "MeglosNode",
    "MeglosSystem",
    "SnetSystem",
    "MeglosChannelService",
    "install_channels",
    "RetryStrategy",
    "BusyRetransmit",
    "RandomBackoff",
    "Reservation",
    "POLICIES",
    "make_strategy",
]
