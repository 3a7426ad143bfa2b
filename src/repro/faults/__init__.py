"""repro.faults: deterministic, seedable fault injection (paper Section 2).

Section 2 of the paper is a post-mortem of communication failure on the
S/NET -- fifo overflow, the retransmission lockout, and the recovery
protocols AT&T weighed before building flow control into the HPC
hardware.  This package lets the reproduction *create* those hostile
conditions on demand instead of only simulating the happy path:

* :class:`FaultPlan` describes what to inject -- drop / corrupt / delay /
  duplicate probabilities (globally or per link), forced S/NET fifo
  overflows, node crashes at given times, and NIC stall windows -- all
  driven by per-site seeded RNG streams so identical seeds give
  identical fault schedules.
* :class:`FaultInjector` is the runtime half: it hangs off the simulator
  (``sim.faults``) and is consulted by the transport hooks in
  :mod:`repro.hpc.link`, :mod:`repro.hpc.nic`, :mod:`repro.snet.bus`,
  :mod:`repro.snet.fifo` and the VORX channel watchdog.

With no plan attached, every hook is a single ``is None`` check and the
simulation is bit-identical to an uninstrumented run.  Injected losses
exercise the *real* recovery machinery: VORX channels recover through
CTRL_RETRY/NAK retransmission (plus an ack watchdog armed only while a
plan is attached), while the S/NET stack recovers through the Section 2
policy spectrum (busy retransmit, random backoff, reservation).
"""

from repro.faults.injector import FaultInjector, fault_summary
from repro.faults.plan import LinkFaults, FaultPlan

__all__ = ["FaultPlan", "LinkFaults", "FaultInjector", "fault_summary"]
