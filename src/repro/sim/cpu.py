"""A preemptive, priority-scheduled simulated CPU.

Every processing node and workstation owns one :class:`CPU`.  Simulated
software charges execution time by yielding :meth:`CPU.execute`; the CPU
serializes all charges, preempts lower-priority work when higher-priority
work arrives (the VORX scheduler is preemptive, paper Section 5), and
always keeps two O(1) busy sums, :attr:`CPU.user_us` and
:attr:`CPU.system_us`.  Its :class:`~repro.sim.trace.Timeline` records
full segments for the software oscilloscope only once a scope arms it.

A charge is one object, the :class:`Job` that :meth:`CPU.execute`
returns as its completion event.  Each CPU queues one standing end
handle per dispatch and a preemption unqueues it.

Dispatch rule: a finished charge's own continuation has first claim on
the CPU.  When a charge completes and work is queued, the CPU does not
start the queued head at once; it dispatches it from a callback that
runs after the charge's waiters.  A waiter that issues its next charge
(a kernel path's next step, an ISR's next burst) therefore meets an idle
CPU, and :meth:`CPU.execute` starts the best of that charge and the
queue by ``(priority, seq)`` -- the schedule eager dispatch would reach
by starting the head and preempting it 0 us later, without the
preemption.

Priority convention: **lower number = higher priority**.  The stack uses:

====================  ========
Interrupt service         0
Kernel paths              2
Real-time subprocess    5-9
Normal subprocess      10-99
====================  ========

The CPU charges only what it is given: the kernels charge the
documented 80 us context switch themselves, as SYSTEM time, each time
they dispatch a subprocess (``KernelCore.spawn`` and ``block``).
"""

from __future__ import annotations

from heapq import heappop, heappush, heappushpop
from typing import TYPE_CHECKING, Optional

from repro.sim.engine import standing_handle
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
_INFINITY = float("inf")


class Job(Event):
    """One execution charge on a CPU, and the event its completion fires.

    Built only by :meth:`CPU.execute`, with plain slot stores and no
    constructor; the ready heap orders ``(priority, seq, job)`` tuples,
    so jobs themselves are never compared.
    """

    __slots__ = (
        "remaining",
        "priority",
        "owner",
        "category",
        "preemptible",
        "seq",
    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Job owner={self.owner!r} prio={self.priority} "
            f"remaining={self.remaining:.1f} {self.category}>"
        )


class CPU:
    """A single simulated processor core.

    Runs one :class:`Job` at a time, ending at ``_ends_at``.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Used in traces and error messages.
    """

    def __init__(self, sim: "Simulator", name: str = "cpu") -> None:
        self.sim = sim
        self.name = name
        self.timeline = Timeline(name)
        #: Min-heap of (priority, seq, job): scalar tuple keys keep every
        #: comparison inside the C heap implementation.  (priority, seq)
        #: pairs are unique among queued jobs, so the Job itself is never
        #: compared.
        self._ready: list[tuple[int, int, Job]] = []
        self._current: Optional[Job] = None
        self._started_at: float = 0.0
        self._ends_at: float = 0.0
        self._seq = 0
        # The end of every job this CPU runs, queued for ``_ends_at``;
        # likewise one bound method for every deferred dispatch.
        self._end = standing_handle(self._complete)
        self._dispatch_next_cb = self._dispatch_next
        #: Busy time charged so far, split USER / SYSTEM.  Always kept,
        #: scope or not.
        self.user_us: float = 0.0
        self.system_us: float = 0.0

    # -- public API --------------------------------------------------------
    def execute(
        self,
        duration: float,
        priority: int = PRIORITY_USER,
        owner: Optional[str] = None,
        category: Category = Category.USER,
        preemptible: bool = True,
    ) -> Job:
        """Charge ``duration`` us of CPU time; the job fires when done.

        The charge competes with everything else on this CPU at the given
        priority and may be preempted by higher-priority charges.
        """
        if not 0.0 <= duration < _INFINITY:
            raise ValueError(
                f"execution time must be finite and non-negative: {duration}"
            )
        # One Job per charge, built with ``Event.__init__``'s five slot
        # stores and its own, no constructor frame: this is the busiest
        # allocation site on every node.
        job = Job.__new__(Job)
        job.sim = self.sim
        job.callbacks = []
        job._value = _PENDING
        job._ok = None
        job._defused = False
        job.remaining = duration
        job.priority = priority
        job.owner = owner
        job.category = category
        job.preemptible = preemptible
        if duration == 0:
            job.succeed()
            return job
        seq = self._seq
        job.seq = seq
        self._seq = seq + 1
        ready = self._ready
        current = self._current
        if current is None:
            # Idle CPU: start the job, or the best of it and the queue
            # (one heap call, not a push and a pop).
            self._dispatch_job(
                heappushpop(ready, (priority, seq, job))[2] if ready else job
            )
        else:
            # ``_maybe_preempt`` inlined (runs on every contended charge).
            heappush(ready, (priority, seq, job))
            if (
                current.preemptible and ready[0][0] < current.priority
                # A job whose end is due this instant has nothing left
                # to run: the charge queues, and the end handle completes
                # the job in this instant instead of after the charge.
                and self._ends_at != self.sim._now
            ):
                self._suspend_current()
                self._dispatch_job(heappop(ready)[2])
        return job

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
        assert job is not None
        sim = self.sim
        # Due later than now (see the tie rule in ``execute``), so the
        # end handle is in the delayed queue, not on a lane.
        sim._unpush(self._ends_at, self._end)
        now = sim._now
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
        sim = self.sim
        self._current = job
        self._started_at = now = sim._now
        # The standing end handle goes where a ``call_later`` would.
        self._ends_at = ends_at = now + job.remaining
        sim._push(ends_at, self._end)

    def _complete(self) -> None:
        """End the running charge, then hand the CPU on.

        A charge with work queued behind it does not dispatch the queue
        head here: ``_dispatch_next`` is appended to the job's
        callbacks, so it runs after every waiter already registered.
        Whatever those waiters charge in the same instant goes through
        :meth:`execute` on an idle CPU, which starts the best queued
        ``(priority, seq)``; ``_dispatch_next`` then finds the CPU busy
        and does nothing, or starts the head.
        """
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
        # ``Event.succeed`` inlined (one completion per charge); a job
        # is triggered only here, so the double-trigger guard is vacuous.
        job._ok = True
        job._value = None
        self.sim._imm_normal.append(job)
        if self._ready:
            job.callbacks.append(self._dispatch_next_cb)

    def _dispatch_next(self, _event: Event) -> None:
        """Start the queue head if the completed charge's waiters left
        the CPU idle."""
        if self._current is None and self._ready:
            self._dispatch_job(heappop(self._ready)[2])
