"""A preemptive, priority-scheduled simulated CPU.

Every processing node and workstation owns one :class:`CPU`.  Simulated
software charges execution time by yielding :meth:`CPU.execute`; the CPU
serializes all charges, preempts lower-priority work when higher-priority
work arrives (the VORX scheduler is preemptive, paper Section 5), and
always keeps two O(1) busy sums, :attr:`CPU.user_us` and
:attr:`CPU.system_us`.  Its :class:`~repro.sim.trace.Timeline` records
full segments for the software oscilloscope only once a scope arms it.

Priority convention: **lower number = higher priority**.  The stack uses:

====================  ========
Interrupt service         0
Kernel paths              2
Real-time subprocess    5-9
Normal subprocess      10-99
====================  ========

An optional ``switch_cost`` callable charges the documented 80 us context
switch whenever ownership of the CPU passes between different subprocess
owners (charged as SYSTEM time).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Handle, _FAR_LANE_MIN, _PRIO_STRIDE
from repro.sim.events import Event, PENDING as _PENDING
from repro.sim.trace import Category, Timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Priority used by interrupt service routines.
PRIORITY_ISR = 0
#: Priority used by kernel code paths.
PRIORITY_KERNEL = 2
#: Default priority for application subprocesses.
PRIORITY_USER = 10

_USER = Category.USER


class Job:
    """One execution charge on a CPU."""

    __slots__ = (
        "remaining",
        "priority",
        "owner",
        "category",
        "preemptible",
        "done",
        "seq",
        "internal",
    )

    def __init__(
        self,
        remaining: float,
        priority: int,
        owner: Optional[str],
        category: Category,
        preemptible: bool,
        done: Optional[Event],
        seq: int,
        internal: bool = False,
    ) -> None:
        self.remaining = remaining
        self.priority = priority
        self.owner = owner
        self.category = category
        self.preemptible = preemptible
        self.done = done
        self.seq = seq
        self.internal = internal

    def __lt__(self, other: "Job") -> bool:
        # The ready heap stores (priority, seq, job) tuples so the C heap
        # never calls back into Python; this stays for direct comparisons
        # (sorting job lists in tools/tests).
        priority = self.priority
        other_priority = other.priority
        if priority != other_priority:
            return priority < other_priority
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job owner={self.owner!r} prio={self.priority} "
            f"remaining={self.remaining:.1f} {self.category}>"
        )


class CPU:
    """A single simulated processor core.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Used in traces and error messages.
    switch_cost:
        Optional ``f(old_owner, new_owner) -> us`` charged (as SYSTEM time)
        when CPU ownership changes.  Only consulted when both owners are
        non-``None``; kernel/ISR work should pass ``owner=None`` so it
        never triggers a context-switch charge by itself.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str = "cpu",
        switch_cost: Optional[Callable[[Optional[str], Optional[str]], float]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.timeline = Timeline(name)
        self.switch_cost = switch_cost
        #: Min-heap of (priority, seq, job): scalar tuple keys keep every
        #: comparison inside the C heap implementation (no Job.__lt__
        #: callbacks).  (priority, seq) pairs are unique among queued
        #: jobs, so the Job itself is never compared.
        self._ready: list[tuple[int, int, Job]] = []
        self._current: Optional[Job] = None
        self._started_at: float = 0.0
        self._end_handle: Optional["Handle"] = None
        self._last_owner: Optional[str] = None
        self._seq = 0
        # One bound method for every completion handle, instead of
        # allocating ``self._complete`` fresh on each dispatch.
        self._complete_cb = self._complete
        #: Busy time charged so far, split USER / SYSTEM (context
        #: switches count as SYSTEM).  Always kept, scope or not.
        self.user_us: float = 0.0
        self.system_us: float = 0.0
        #: Count of context switches charged (paper: 80 us each), backed
        #: by this node's vstat registry.
        self._m_switches = sim.vstat.registry(name).counter(
            "cpu.context_switches"
        )

    @property
    def context_switches(self) -> int:
        return int(self._m_switches.value)

    # -- public API --------------------------------------------------------
    def execute(
        self,
        duration: float,
        priority: int = PRIORITY_USER,
        owner: Optional[str] = None,
        category: Category = Category.USER,
        preemptible: bool = True,
    ) -> Event:
        """Charge ``duration`` us of CPU time; fires when the charge completes.

        The charge competes with everything else on this CPU at the given
        priority and may be preempted by higher-priority charges.
        """
        if duration < 0:
            raise ValueError(f"negative execution time: {duration}")
        # ``Event.__init__`` inlined (one completion event per charge) --
        # mirror of the constructor's five slot stores.
        done = Event.__new__(Event)
        done.sim = self.sim
        done.callbacks = []
        done._value = _PENDING
        done._ok = None
        done._defused = False
        if duration == 0:
            done.succeed()
            return done
        # ``Job.__init__`` inlined (one Job per charge, plain slot
        # stores): this is the busiest allocation site on every node.
        job = Job.__new__(Job)
        job.remaining = duration
        job.priority = priority
        job.owner = owner
        job.category = category
        job.preemptible = preemptible
        job.done = done
        seq = self._seq
        job.seq = seq
        job.internal = False
        self._seq = seq + 1
        ready = self._ready
        current = self._current
        if current is None and not ready:
            # Idle CPU, nothing queued: start directly, skipping the
            # ready-heap round trip (the common serialized case).
            self._dispatch_job(job)
        else:
            # ``_maybe_preempt`` inlined (runs on every contended charge).
            heappush(ready, (priority, seq, job))
            if current is None:
                self._dispatch_job(heappop(ready)[2])
            elif current.preemptible and ready[0][0] < current.priority:
                self._suspend_current()
                self._dispatch_job(heappop(ready)[2])
        return done

    @property
    def busy(self) -> bool:
        """True if a job is running right now."""
        return self._current is not None

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not counting the running one)."""
        return len(self._ready)

    @property
    def current_owner(self) -> Optional[str]:
        """Owner of the running job, if any."""
        return self._current.owner if self._current else None

    def set_idle_reason(self, reason: Category) -> None:
        """Tell the timeline why subsequent idle time occurs."""
        self.timeline.mark_idle_reason(self.sim.now, reason)

    # -- scheduling internals ------------------------------------------------
    def _suspend_current(self) -> None:
        """Preempt the running job, accounting for partial progress."""
        job = self._current
        assert job is not None and self._end_handle is not None
        self._end_handle.cancel()
        self._end_handle = None
        now = self.sim._now
        elapsed = now - self._started_at
        if job.category is _USER:
            self.user_us += elapsed
        else:
            self.system_us += elapsed
        timeline = self.timeline
        if timeline.armed_at is not None:
            timeline.record(self._started_at, now, job.category, job.owner)
        job.remaining = max(0.0, job.remaining - elapsed)
        # Preserve FIFO order among equals: it keeps its original seq.
        heappush(self._ready, (job.priority, job.seq, job))
        self._current = None

    def _dispatch_job(self, job: Job) -> None:
        """Start ``job`` (already removed from / never on the ready heap)."""
        # Charge a context switch if ownership changes between two named
        # (subprocess) owners.
        if (
            self.switch_cost is not None
            and not job.internal
            and job.owner is not None
            and self._last_owner is not None
            and job.owner != self._last_owner
        ):
            cost = self.switch_cost(self._last_owner, job.owner)
            if cost > 0:
                # Put the real job back; run a non-preemptible switch first.
                heappush(self._ready, (job.priority, job.seq, job))
                switch = Job(
                    cost,
                    job.priority,
                    job.owner,
                    Category.SYSTEM,
                    False,
                    None,
                    job.seq,  # same seq: runs immediately before the job
                    internal=True,
                )
                self._m_switches.inc()
                job = switch
        sim = self.sim
        self._current = job
        now = sim._now
        self._started_at = now
        # ``Simulator.call_later`` inlined (one end-of-charge handle per
        # dispatch): Handle slot stores plus the flat-queue push, as in
        # the engine's own inline sites.  ``remaining`` is never
        # negative, so the public negative-delay check is vacuous.
        delay = job.remaining
        handle = Handle.__new__(Handle)
        handle._sim = sim
        handle.time = now + delay
        handle.fn = self._complete_cb
        handle.args = ()
        handle.cancelled = False
        seq = sim._seq
        sim._seq = seq + 1
        if delay == 0.0:
            sim._imm_normal.append((now, seq, handle))
        else:
            keys = sim._keys
            time = now + delay
            key = -time
            if keys:
                far_keys = sim._far_keys
                if key > keys[0] or (
                    not far_keys and len(keys) < _FAR_LANE_MIN
                ):
                    pos = bisect_left(keys, key)
                    keys.insert(pos, key)
                    sim._order.insert(pos, _PRIO_STRIDE + seq)
                    sim._items.insert(pos, handle)
                elif not far_keys or time >= far_keys[-1]:
                    far_keys.append(time)
                    sim._far_order.append(_PRIO_STRIDE + seq)
                    sim._far_items.append(handle)
                else:
                    sim._push_far(time, _PRIO_STRIDE + seq, handle)
            elif sim._far_keys:
                sim._push_far(time, _PRIO_STRIDE + seq, handle)
            else:
                keys.append(key)
                sim._order.append(_PRIO_STRIDE + seq)
                sim._items.append(handle)
        self._end_handle = handle

    def _complete(self) -> None:
        job = self._current
        assert job is not None
        now = self.sim._now
        started = self._started_at
        if job.category is _USER:
            self.user_us += now - started
        else:
            self.system_us += now - started
        timeline = self.timeline
        if timeline.armed_at is not None:
            timeline.record(started, now, job.category, job.owner)
        self._current = None
        self._end_handle = None
        self._last_owner = job.owner if job.owner is not None else self._last_owner
        done = job.done
        if done is not None:
            # ``Event.succeed`` inlined (one completion per charge); a
            # job's done event is triggered only here, so the
            # double-trigger guard is vacuous.
            done._ok = True
            done._value = None
            sim = self.sim
            sim._imm_normal.append((sim._now, sim._seq, done))
            sim._seq += 1
        # ``_dispatch`` inlined: every completed charge comes through
        # here, and ``_complete`` just cleared ``_current``.
        if self._ready:
            self._dispatch_job(heappop(self._ready)[2])
