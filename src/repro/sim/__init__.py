"""A deterministic discrete-event simulation (DES) engine.

This is the foundational substrate for the HPC/VORX reproduction: the
software (kernels, protocols, applications) and most hardware (fifos,
buses) in the paper are modelled as generator-based simulated processes
scheduled by :class:`~repro.sim.engine.Simulator`.  The fabric's hop
path (links, cluster forwarders) runs as event callbacks instead -- the
interrupt-level alternative of paper Section 5 -- on the same events a
process would wait on.

Highlights
----------

* **Generator processes** -- simulated code is an ordinary Python
  generator that ``yield``\\ s events (:class:`~repro.sim.events.Event`,
  timeouts, resource acquisitions); composition uses ``yield from``.
* **Determinism** -- occurrences run in time order, starts and
  interrupts ahead of other occurrences at one instant, each kind first
  in, first out; two runs of the same seeded simulation are
  bit-identical.
* **Preemptive CPUs** -- :class:`~repro.sim.cpu.CPU` charges simulated
  execution time with priority-preemptive scheduling, keeps user and
  system busy sums, and records a per-category timeline once the
  software oscilloscope (:mod:`repro.tools.oscilloscope`) arms it.
"""

from repro.sim.engine import Simulator, Handle
from repro.sim.events import (
    Event,
    Condition,
    AnyOf,
    AllOf,
    Interrupt,
    PENDING,
)
from repro.sim.process import Process
from repro.sim.resources import Semaphore, Store, Resource
from repro.sim.cpu import CPU
from repro.sim.trace import Timeline, Category, TraceLog

__all__ = [
    "Simulator",
    "Handle",
    "Event",
    "Condition",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "PENDING",
    "Process",
    "Semaphore",
    "Store",
    "Resource",
    "CPU",
    "Timeline",
    "Category",
    "TraceLog",
]
