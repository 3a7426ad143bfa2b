"""The runtime fault injector consulted by the transport hooks.

One :class:`FaultInjector` binds a :class:`~repro.faults.plan.FaultPlan`
to a simulator.  Each hook resolves its site's :class:`FaultSite` record
once and asks the record for a decision per message; every injected
fault increments a counter in the ``faults`` vstat registry and emits a
structured trace event, so experiments can report exactly what was
injected and what the recovery machinery did about it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Optional

from repro.faults.plan import SitePatterns

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan
    from repro.hpc.message import Packet
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class LinkDecision:
    """What an HPC link should do to one message."""

    drop: bool = False
    corrupt: bool = False
    delay_us: float = 0.0
    duplicate: bool = False


@dataclass(frozen=True)
class BusDecision:
    """What the S/NET bus should do to one message.

    S/NET delivery is synchronous (the sender learns accepted/fifo-full
    at the end of its bus tenure), so link-level drop and corruption map
    onto the rejection signal -- exactly the event the Section 2 software
    recovery strategies are built to handle.
    """

    reject: bool = False
    forced_overflow: bool = False
    delay_us: float = 0.0
    duplicate: bool = False


_NO_LINK_FAULT = LinkDecision()
_NO_BUS_FAULT = BusDecision()


class FaultSite:
    """Everything a plan says about one injection site, resolved once:
    the static :class:`~repro.faults.plan.LinkFaults` and whether they
    can fault at all (``lossy``), the ``site_windows`` overrides, the
    stall and brownout windows, whether any node crashes, and the RNG
    stream.  A hook tests each for truth and skips the call when empty.
    The stream is created on the first draw: most sites of a big fabric
    never draw, and a ``random.Random`` is about 2.5 KiB.
    """

    __slots__ = ("injector", "name", "faults", "lossy", "windows",
                 "stalls", "brownouts", "crashes", "stream")

    def __init__(self, injector: "FaultInjector", name: str) -> None:
        self.injector = injector
        self.name = name
        #: The first ``links`` pattern matching wins, else the defaults.
        links = injector.links.matches(name)
        self.faults = links[0] if links else injector.plan.defaults
        self.lossy = self.faults.any_loss
        #: ``(start, end, faults, lossy)`` overrides, declaration order.
        self.windows = tuple(
            (start, end, faults, faults.any_loss)
            for start, end, faults in injector.windows.matches(name)
        )
        self.stalls = tuple(injector.stalls.matches(name))
        self.brownouts = tuple(injector.brownouts.matches(name))
        self.crashes = bool(injector.crash_times)
        self.stream: Optional[random.Random] = None

    def _new_stream(self) -> random.Random:
        """Create the site's RNG stream (depends only on seed + name)."""
        self.stream = random.Random(f"{self.injector.plan.seed}:{self.name}")
        return self.stream

    def _windowed(self) -> tuple:
        """``(faults, lossy)`` in force now: the first active window
        override wins, else the static table."""
        now = self.injector.sim._now
        for start, end, faults, lossy in self.windows:
            if start <= now < end:
                return faults, lossy
        return self.faults, self.lossy

    # ------------------------------------------------------------------
    # crashes, stalls, brownouts
    # ------------------------------------------------------------------
    def crash_drop(self, packet: "Packet") -> bool:
        """True if ``packet`` involves a crashed node (drop silently).

        Crash isolation is not an "injection": it is the dead node's
        interface doing nothing, so it has its own counter and does not
        consume the ``max_injections`` budget.
        """
        injector = self.injector
        if injector.is_crashed(packet.src) or injector.is_crashed(packet.dst):
            injector.record(
                "faults.crash_drops", self.name, "fault-crash-drop",
                src=packet.src, dst=packet.dst, size=packet.size,
            )
            return True
        return False

    def stall_remaining(self) -> float:
        """Microseconds until the active stall window on this site ends."""
        now = self.injector.sim.now
        remaining = 0.0
        for start, end in self.stalls:
            if start <= now < end:
                remaining = max(remaining, end - now)
        if remaining > 0:
            self.injector.record("faults.nic_stalls", self.name, "nic-stall",
                                 stall_us=remaining)
        return remaining

    def brownout_extra_us(self, base_us: float) -> float:
        """Extra serialization microseconds for this site right now.

        During an active ``link_brownouts`` window a link takes
        ``multiplier`` times its normal wire time; this returns the
        *additional* delay on top of ``base_us`` (0.0 outside windows).
        Brownouts are degradation, not loss: they hit every message kind
        and do not consume the ``max_injections`` budget.
        """
        now = self.injector.sim.now
        multiplier = 1.0
        for start, end, factor in self.brownouts:
            if start <= now < end:
                multiplier = max(multiplier, factor)
        if multiplier <= 1.0:
            return 0.0
        extra = base_us * (multiplier - 1.0)
        self.injector.record("faults.brownouts", self.name, "link-brownout",
                             extra_us=extra)
        return extra

    # ------------------------------------------------------------------
    # per-message decisions
    # ------------------------------------------------------------------
    def link_decision(self, packet: "Packet") -> LinkDecision:
        """Decide drop/corrupt/delay/duplicate for one HPC link message."""
        if self.windows:
            faults, lossy = self._windowed()
        else:
            faults, lossy = self.faults, self.lossy
        injector = self.injector
        plan = injector.plan
        # A ``MessageKind`` member hashes and compares as its value, so
        # the plan's set of values matches members and plain strings.
        if not lossy or packet.kind not in plan.kinds:
            return _NO_LINK_FAULT
        cap = plan.max_injections
        if cap is not None and injector._injections >= cap:
            return _NO_LINK_FAULT
        stream = self.stream or self._new_stream()
        draw = stream.random
        drop = draw() < faults.drop
        corrupt = (not drop) and draw() < faults.corrupt
        delay_us = 0.0
        if draw() < faults.delay:
            delay_us = stream.uniform(*faults.delay_us)
        duplicate = (not drop) and draw() < faults.duplicate
        if not (drop or corrupt or delay_us > 0 or duplicate):
            return _NO_LINK_FAULT
        site = self.name
        if drop:
            injector.note("drop", site, src=packet.src, dst=packet.dst,
                          size=packet.size, kind=str(packet.kind))
        if corrupt:
            injector.note("corrupt", site, src=packet.src, dst=packet.dst,
                          size=packet.size, kind=str(packet.kind))
        if delay_us > 0:
            injector.note("delay", site, src=packet.src, dst=packet.dst,
                          delay_us=delay_us)
        if duplicate:
            injector.note("duplicate", site, src=packet.src, dst=packet.dst,
                          size=packet.size)
        return LinkDecision(drop, corrupt, delay_us, duplicate)

    def bus_decision(self, packet: "Packet") -> BusDecision:
        """Decide reject/overflow/delay/duplicate for one S/NET message."""
        if self.windows:
            faults, lossy = self._windowed()
        else:
            faults, lossy = self.faults, self.lossy
        injector = self.injector
        overflow_p = injector.plan.force_fifo_overflow
        if not lossy and overflow_p == 0.0:
            return _NO_BUS_FAULT
        cap = injector.plan.max_injections
        if cap is not None and injector._injections >= cap:
            return _NO_BUS_FAULT
        stream = self.stream or self._new_stream()
        draw = stream.random
        reject = draw() < faults.drop or draw() < faults.corrupt
        forced = (not reject) and draw() < overflow_p
        delay_us = 0.0
        if draw() < faults.delay:
            delay_us = stream.uniform(*faults.delay_us)
        duplicate = (not reject) and draw() < faults.duplicate
        if not (reject or forced or delay_us > 0 or duplicate):
            return _NO_BUS_FAULT
        site = self.name
        if reject:
            injector.note("bus-reject", site, src=packet.src, dst=packet.dst,
                          size=packet.size)
        if forced:
            injector.note("forced-overflow", site, src=packet.src,
                          dst=packet.dst, size=packet.size)
        if delay_us > 0:
            injector.note("delay", site, src=packet.src, dst=packet.dst,
                          delay_us=delay_us)
        if duplicate:
            injector.note("duplicate", site, src=packet.src, dst=packet.dst,
                          size=packet.size)
        return BusDecision(reject, forced, delay_us, duplicate)


class FaultInjector:
    """Per-simulation fault state: one :class:`FaultSite` per site that
    has asked, plus the crash clocks and the injection budget."""

    def __init__(self, sim: "Simulator", plan: "FaultPlan") -> None:
        self.sim = sim
        self.plan = plan
        #: vstat registry all injection counters live in.
        self.metrics = sim.vstat.registry("faults")
        self._m_injected = self.metrics.counter("faults.injected")
        #: site name -> its resolved record (see :meth:`site`).
        self.sites: dict[str, FaultSite] = {}
        #: The plan's per-site tables, indexed once for every site.
        self.links = SitePatterns(plan.links.items())
        self.windows = SitePatterns(
            (pattern, (start, end, faults))
            for pattern, start, end, faults in plan.site_windows
        )
        self.stalls = SitePatterns(
            (pattern, (start, start + duration))
            for pattern, start, duration in plan.nic_stalls
        )
        self.brownouts = SitePatterns(
            (pattern, (start, end, factor))
            for pattern, start, end, factor in plan.link_brownouts
        )
        #: address -> crash time; populated up front so hooks never race
        #: the crash callback.
        self.crash_times = dict(plan.node_crashes)
        self._injections = 0

    @cached_property
    def can_lose_messages(self) -> bool:
        """The plan's :attr:`~repro.faults.plan.FaultPlan.can_lose_messages`,
        resolved on first use: every channel write reads it, and the
        plan's property re-scans every link table."""
        return self.plan.can_lose_messages

    def site(self, name: str) -> FaultSite:
        """The record for site ``name``, resolved on first use."""
        record = self.sites.get(name)
        if record is None:
            record = self.sites[name] = FaultSite(self, name)
        return record

    def link_decision(self, site: str, packet: "Packet") -> LinkDecision:
        """Decide drop/corrupt/delay/duplicate for one HPC link message."""
        return self.site(site).link_decision(packet)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def record(self, counter: str, node: str, event: str,
               labels: tuple = (), **fields) -> None:
        """Count one fault-layer event and emit its trace event."""
        self.metrics.counter(counter, labels=labels).inc()
        stream = self.sim.vstat.events
        if stream.enabled:
            stream.emit(self.sim.now, node=node, subsystem="faults",
                        name=event, **fields)

    def note(self, fault: str, site: str, **fields) -> None:
        """Count one injected fault and emit its trace event."""
        self._injections += 1
        self._m_injected.inc()
        self.record("faults.injected_by_kind", site, f"fault-{fault}",
                    labels=(fault,), **fields)

    @property
    def injections(self) -> int:
        """Faults injected so far (crash isolation drops not included)."""
        return self._injections

    def summary(self) -> dict[str, int]:
        """Injected fault counts by kind (for reports and tests)."""
        return {
            labels[0]: int(counter.value)  # type: ignore[attr-defined]
            for labels, counter in self.metrics.labelled(
                "faults.injected_by_kind"
            ).items()
        }

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    def is_crashed(self, address: int) -> bool:
        """True once ``address`` has passed its crash time."""
        crash_time = self.crash_times.get(address)
        return crash_time is not None and self.sim.now >= crash_time

    def _crash(self, address: int, kernel) -> None:
        """Crash callback: mask the node's interrupts, record the event."""
        name = getattr(kernel, "name", f"addr{address}")
        iface = getattr(kernel, "iface", None)
        if iface is not None:
            iface.disable_interrupts()
        self.record("faults.node_crashes", name, "node-crash",
                    address=address)


def fault_summary(sim) -> dict[str, int]:
    """Injected fault counts by kind for ``sim`` (empty if no plan)."""
    injector: Optional[FaultInjector] = getattr(sim, "faults", None)
    if injector is None:
        return {}
    return injector.summary()
