"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the pending-occurrence queues.
Occurrences are totally ordered by time, then lane, then arrival: at one
instant every urgent occurrence (a process start or interrupt) runs
before every normal one, and each kind runs first-in first-out.  Two
runs of the same seeded simulation therefore process the same
occurrences in the same order.

Fast path: the dominant scheduling operation is triggering an event with
*zero* delay (``Event.succeed``/``fail``, process starts, interrupts).
Those never need the sorted queue, so they go onto two plain FIFO lanes
of bare items -- the urgent lane (only :meth:`Simulator.start` and
``Process.interrupt`` append there) and the normal lane -- and only
*delayed* occurrences carry a time.  The merge rests on one invariant:
**every lane entry is due now, and every queued entry is due later.**
Proof: a lane entry is appended at ``_now``, and :meth:`Simulator._push`
sends any time equal to ``_now`` (a zero delay, or one too small to move
the clock: ``now + delay == now``) onto the normal lane rather than into
the queue.  The clock advances only when both lanes are empty, and it
advances to the queue's head time, moving every entry due then onto the
normal lane in queue order; nothing due at the new time is left queued.
Each moved entry was queued at an earlier instant, so it precedes every
normal occurrence that callbacks append later at that instant.  The
order therefore reduces to:

1. the urgent lane;
2. the normal lane;
3. only then does the clock advance to the queue's head.

No timestamp or tie-break number is built or compared for a lane entry,
and the order is the exact order of a reference heap of ``(time,
priority, seq)`` tuples (pinned by ``tests/test_determinism.py`` and the
heapq differential tests in ``tests/test_properties_sim.py``).

The delayed-occurrence queue is a *flat parallel-arrays* queue: two
scalar lists moved in lockstep instead of a single list of ``(time,
item)`` tuples.  ``_keys`` holds negated times and ``_items`` the
payload objects.  The arrays are kept sorted by *descending* time -- the
minimum lives at the end -- so a pop is two O(1) ``list.pop()`` calls
and the head's time is one scalar load (the drain loop indexes no
tuple).  A push locates its slot with one C ``bisect_left`` over
``_keys``: the leftmost slot of an equal-time run is the one that pops
*last* among its ties, so equal times pop first-in first-out with no
sequence number.  A hand-rolled parallel-array binary-heap sift was
benchmarked first and lost by ~3x: interpreted sift loops cannot compete
with C ``bisect`` + ``memmove`` at realistic queue depths (~100-200
pending occurrences).  Lazy-cancel compaction rewrites the arrays in
place, keeping the survivors' relative order, so drain-local bindings
stay valid and ties still pop first-in first-out.

Every delayed occurrence enters through one method,
:meth:`Simulator._push`.  Its cost is the C memmove of the entries that
pop before it (they sit to its right in the descending layout), so a
far-future arm on a deep queue -- a new global-maximum time lands at
index 0 -- moves both arrays.  At the depths the benchmark workloads
reach (a median of ~130-180 pending occurrences) that memmove is cheap:
a separate ascending lane that took such arms as appends measured no
faster.  Besides pops and compaction, only :meth:`Simulator._unpush`
takes an entry out: it deletes one slot from both arrays.

A *standing* handle (:func:`standing_handle`) is legal on the normal
lane and in the delayed queue.  It is a :class:`Handle` made once per
wait point of a callback state machine (the fabric's links and cluster
forwarders, and each CPU's end of charge) and reused for every wait
there, so a wait costs no fresh ``Event`` or callback list.  It is
never cancelled, so the cancelled count and compaction never see it.
It may sit on a lane more than once over a run -- each time its owner
waits -- and its ``args`` carry the value of that wait; its owner never
queues it again while it is queued (a preempting CPU takes its end
handle out with :meth:`Simulator._unpush` before it queues it anew).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from math import nextafter
from typing import Any, Callable, Generator, Optional

from repro.metrics.events import Vstat
from repro.sim.events import Event

#: Lazy-cancel compaction trigger: compact the heap when more than half
#: of it is cancelled handles (and there are enough of them to matter) --
#: the asyncio approach, keeping queue growth bounded under
#: ``call_later(...).cancel()`` churn.
_MIN_CANCELLED_TO_COMPACT = 64

_INFINITY = float("inf")


class Handle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later`, which builds it without a
    constructor call, and by :func:`standing_handle` (a reusable one that
    is never cancelled).  Cancellation is lazy: the queue entry stays in
    place and is skipped when popped, but the simulator counts cancelled
    entries and compacts the queue when they dominate it.  ``_sim`` is
    cleared when the callback runs, so a cancel after that point has no
    queued entry to count.
    """

    __slots__ = ("fn", "args", "cancelled", "time", "_sim")

    #: A handle has no callback list; :meth:`Simulator._drain` reads
    #: ``callbacks is None`` as "run ``fn`` instead" (a queued event's
    #: list is never ``None`` until it is processed).
    callbacks = None

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        The count and the compaction check live here, not behind a
        ``Simulator`` method, for timers cancelled and re-armed in a
        loop (``cancel_churn`` in ``scripts/perf.py``).  CPU preemption
        does not cancel: it takes its standing end handle back out of
        the queue with :meth:`Simulator._unpush`.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is None:  # already ran: nothing left in a queue
                return
            cancelled = sim._cancelled + 1
            sim._cancelled = cancelled
            if (
                cancelled > _MIN_CANCELLED_TO_COMPACT
                and cancelled * 2 > len(sim._keys)
            ):
                sim._compact()

    def _process(self) -> None:
        """Run the callback.  Called by the engine (never when cancelled)."""
        self._sim = None
        self.fn(*self.args)


def standing_handle(fn: Callable[..., None]) -> Handle:
    """A reusable, never-cancelled handle that runs ``fn(*handle.args)``.

    The owner appends it to the normal lane, passes it to
    :meth:`Simulator._push`, or parks it as a waiter on a
    :class:`~repro.sim.resources.Semaphore` or
    :class:`~repro.sim.resources.Store` (whose grant rule appends it as
    it is) -- each where the ``Event`` it stands in for would have gone,
    so the schedule is that event's.  The waited-for value rides in
    ``args`` (empty until a wait sets it).
    """
    handle = Handle.__new__(Handle)
    handle._sim = None
    handle.time = None
    handle.fn = fn
    handle.args = ()
    handle.cancelled = False
    return handle


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when the queue is exhausted."""


class Simulator:
    """The event loop: simulated clock plus pending-occurrence queues.

    Time is a float in **microseconds** (see :mod:`repro.model.units`).
    """

    __slots__ = (
        "_now",
        "_keys",
        "_items",
        "_imm_urgent",
        "_imm_normal",
        "_cancelled",
        "processed",
        "vstat",
        "faults",
    )

    def __init__(self) -> None:
        self._now: float = 0.0
        #: Flat parallel-arrays queue for *delayed* occurrences, sorted by
        #: descending time, first-queued last among equal times: entry
        #: ``i`` has time ``-_keys[i]`` and payload ``_items[i]`` (an
        #: Event or a Handle); the next to pop is the last entry.  Both
        #: move in lockstep: :meth:`_push` is the only insert, pops take
        #: the end; compaction rewrites them in place (never rebinds)
        #: because :meth:`_drain` holds local references.
        self._keys: list[float] = []
        self._items: list[Any] = []
        #: FIFO lanes of bare items due at ``_now`` (see the module
        #: docstring): starts and interrupts on the urgent lane,
        #: everything else on the normal lane.
        #: The normal lane may hold cancelled zero-delay
        #: :class:`Handle`\\ s (skipped at pop time); the urgent lane
        #: only ever holds events.
        self._imm_urgent: deque[Event] = deque()
        self._imm_normal: deque[Any] = deque()
        #: Cancelled handles still sitting in a queue (lazy cancellation).
        self._cancelled: int = 0
        #: Occurrences processed so far (the event count behind the
        #: events/sec rates of ``perfbench`` and ``scripts/perf.py``).
        self.processed: int = 0
        #: Unified instrumentation hub: every component sharing this
        #: simulator registers its metrics and trace events here.
        self.vstat = Vstat()
        #: Attached fault injector (:mod:`repro.faults`), or ``None``.
        #: When ``None`` every transport fault hook is a no-op and the
        #: simulation is bit-identical to an uninstrumented run.
        self.faults = None

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time (microseconds)."""
        return self._now

    # -- the flat queue ----------------------------------------------------
    def _push(self, time: float, item: Any) -> None:
        """Queue normal ``item`` to run at ``time`` (never before ``_now``).

        A time equal to ``_now`` -- a zero delay, or one too small to
        move the clock -- goes onto the normal lane, after every entry
        already due now.  Anything later finds its slot with one C
        bisect over the negated-time keys: ``bisect_left`` lands on the
        leftmost slot of an equal-time run, which in the descending
        layout pops *last* among its ties, so equal times pop in the
        order they were pushed.
        """
        if time == self._now:
            self._imm_normal.append(item)
            return
        keys = self._keys
        key = -time
        pos = bisect_left(keys, key)
        keys.insert(pos, key)
        self._items.insert(pos, item)

    def _unpush(self, time: float, item: Any) -> None:
        """Take ``item``, queued by :meth:`_push` for ``time`` (later
        than ``_now``), back out of the delayed queue.

        The search starts at the leftmost slot of ``time``'s equal-time
        run, and the one slot is deleted from both arrays, so the queue
        stays sorted, the other ties keep their order, and the item can
        be pushed again.
        """
        keys = self._keys
        pos = self._items.index(item, bisect_left(keys, -time))
        del keys[pos]
        del self._items[pos]

    def _heap_pop(self) -> Any:
        """Remove and return the next queued item: two O(1) end pops."""
        self._keys.pop()
        return self._items.pop()

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle.

        A zero-delay callback shares the normal lane with zero-delay
        events; the pop paths skip it if it is cancelled before it runs.
        """
        if not 0.0 <= delay < _INFINITY:
            raise ValueError(f"delay must be finite and non-negative: {delay}")
        time = self._now + delay
        # ``Handle.__init__`` inlined (a NIC arms one per receive
        # interrupt): plain slot stores, no constructor frame.
        handle = Handle.__new__(Handle)
        handle._sim = self
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        if delay == 0.0:  # :meth:`_push`'s lane branch, minus a frame
            self._imm_normal.append(handle)
        else:
            self._push(time, handle)
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry and recount ``_cancelled`` exactly.

        The two queue arrays are rewritten *in place* (slice
        assignment, never rebinding) because the drain loop in
        :meth:`run` holds local references to them.  Filtering preserves
        the sorted layout, so the pop order of the survivors is
        unchanged.  The normal immediate lane is purged too: zero-delay
        handles live there, and leaving cancelled ones uncounted would
        let ``_cancelled`` drift from reality (going negative defers
        every future compaction -- see
        ``test_cancelled_counter_invariant``).
        """
        live = [
            entry
            for entry in zip(self._keys, self._items)
            if not entry[1].cancelled
        ]
        self._keys[:] = [entry[0] for entry in live]
        self._items[:] = [entry[1] for entry in live]
        normal = self._imm_normal
        if normal:
            kept = [item for item in normal if not item.cancelled]
            if len(kept) != len(normal):
                normal.clear()
                normal.extend(kept)
        # Recount (not decrement): every cancelled entry is gone now.
        self._cancelled = 0

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that triggers with ``value`` ``delay`` from now."""
        # ``Event.__init__`` inlined, already triggered: a timeout is
        # created per wire transfer and watchdog arm.
        if not 0.0 <= delay < _INFINITY:
            raise ValueError(
                f"timeout delay must be finite and non-negative: {delay}"
            )
        event = Event.__new__(Event)
        event.sim = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event._defused = False
        if delay == 0.0:  # :meth:`_push`'s lane branch, minus a frame
            self._imm_normal.append(event)
        else:
            self._push(self._now + delay, event)
        return event

    def process(self, generator: Generator) -> "Process":
        """Start a new simulated process running ``generator``."""
        return Process(self, generator)

    def start(self, callback: Callable[[Event], None]) -> Event:
        """Run ``callback(event)`` now, ahead of normal occurrences.

        This is the urgent zero-delay start event every :class:`Process`
        begins with, so a state machine of callbacks started here (the
        interrupt-level counterpart of :meth:`process`) keeps the
        schedule of the process it stands in for.
        """
        start = Event.__new__(Event)
        start.sim = self
        start.callbacks = [callback]
        start._ok = True
        start._value = None
        start._defused = False
        self._imm_urgent.append(start)
        return start

    # -- execution -------------------------------------------------------------
    def _skip_cancelled(self) -> None:
        """Pop cancelled handles off the delayed queue's head and the
        normal lane's head, so both heads are live (or absent)."""
        items = self._items
        while items and items[-1].cancelled:
            self._heap_pop()
            if self._cancelled > 0:
                self._cancelled -= 1
        normal = self._imm_normal
        while normal and normal[0].cancelled:
            normal.popleft()
            if self._cancelled > 0:
                self._cancelled -= 1

    def _advance(self) -> None:
        """Move the clock to the delayed queue's head and every entry
        due then onto the normal lane, in queue order."""
        keys = self._keys
        key = keys[-1]
        self._now = -key
        while keys and keys[-1] == key:
            self._imm_normal.append(self._heap_pop())

    def peek(self) -> float:
        """Time of the next occurrence, or ``inf`` if the queue is empty."""
        self._skip_cancelled()
        if self._imm_urgent or self._imm_normal:
            return self._now
        keys = self._keys
        return -keys[-1] if keys else _INFINITY

    def _pop_next(self) -> Any:
        """Remove and return the next occurrence, advancing the clock.

        Raises :class:`EmptySchedule` when nothing is pending at all.
        """
        self._skip_cancelled()
        urgent = self._imm_urgent
        normal = self._imm_normal
        if not (urgent or normal):
            if not self._keys:
                raise EmptySchedule()
            self._advance()
        self.processed += 1
        return urgent.popleft() if urgent else normal.popleft()

    def step(self) -> None:
        """Process exactly one occurrence."""
        self._pop_next()._process()

    def _drain(self, stop: Optional[Event], deadline: float) -> None:
        """The run loop: process occurrences in time, then lane, order.

        Stops when the schedule empties, when ``stop`` (if given) has been
        processed, or when the next occurrence lies beyond ``deadline``.
        This is :meth:`_pop_next` inlined into the loop with every queue
        bound to a local -- the single hottest function in the repository,
        so it trades a little repetition for one frame (and several
        attribute loads) less per processed occurrence.  By the lane
        invariant a lane pop reads no time at all; only a clock advance
        reads the delayed queue's head, and it alone tests ``deadline``
        (everything pending on entry is due at ``_now`` or later, so one
        test up front covers the lanes).  The head runs directly; the
        entries tied with it join the normal lane (:meth:`_advance`
        inlined).
        """
        keys = self._keys
        items = self._items
        urgent = self._imm_urgent
        normal = self._imm_normal
        urgent_popleft = urgent.popleft
        normal_popleft = normal.popleft
        # :meth:`_heap_pop` inlined as two bound C pops.  Compaction
        # rewrites the arrays in place (slice assignment), so these bound
        # methods keep pointing at the live arrays.
        keys_pop = keys.pop
        items_pop = items.pop
        if self._now > deadline:
            return
        processed = 0
        try:
            while True:
                if stop is not None and stop.callbacks is None:
                    return
                if urgent:
                    item = urgent_popleft()
                elif normal:
                    item = normal_popleft()
                elif keys:
                    if items[-1].cancelled:
                        keys_pop()
                        items_pop()
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    key = keys[-1]
                    if -key > deadline:
                        return
                    self._now = -key
                    keys_pop()
                    item = items_pop()
                    while keys and keys[-1] == key:
                        keys_pop()
                        normal.append(items_pop())
                else:
                    return
                # ``Event._process`` / ``Handle._process`` inlined: the
                # hop path runs as event callbacks, so a frame per
                # processed occurrence is a frame per link traversal.
                callbacks = item.callbacks
                if callbacks is None:
                    if item.cancelled:
                        # A handle cancelled while it sat on a lane.
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    processed += 1
                    item._sim = None
                    item.fn(*item.args)
                    continue
                processed += 1
                item.callbacks = None
                for callback in callbacks:
                    callback(item)
                if item._ok is False and not item._defused:
                    raise item._value
        finally:
            self.processed += processed

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue empties, a deadline passes, or an event fires.

        ``until`` may be:

        * ``None`` -- run to queue exhaustion;
        * a finite number -- run until simulated time reaches it;
        * an :class:`Event` -- run until it is processed, returning its
          value (raising its exception if it failed).
        """
        if until is None:
            self._drain(None, _INFINITY)
            return None
        if isinstance(until, Event):
            stop = until
            self._drain(stop, _INFINITY)
            if stop.callbacks is not None:  # schedule emptied first
                raise RuntimeError(
                    "simulation ran out of events before the awaited "
                    f"event triggered: {stop!r}"
                )
            if stop.ok:
                return stop.value
            stop.defuse()
            raise stop.value
        deadline = float(until)
        if not self._now <= deadline < _INFINITY:  # also rejects NaN
            raise ValueError(
                f"deadline {deadline} is not finite or is in the past "
                f"(now={self._now})"
            )
        self._drain(None, deadline)
        self._now = deadline
        return None

    def run_window(self, bound: float) -> None:
        """Process every occurrence *strictly before* ``bound``.

        The conservative-parallel shard loop (:mod:`repro.sim.parallel`)
        runs each shard in windows: occurrences *at* the window boundary
        must not run until the orchestrator has delivered any cross-shard
        messages arriving exactly at ``bound``, so the drain deadline is
        the largest float below ``bound`` (the inner loop's deadline test
        is inclusive).  Unlike :meth:`run`, the clock is left at the last
        processed occurrence rather than advanced to ``bound`` -- the
        next window's injected arrivals are all at or beyond ``bound``,
        so delays computed against ``now`` stay non-negative either way,
        and :meth:`peek` keeps exporting the true next-occurrence time
        (the shard's LBTS contribution).
        """
        self._drain(None, nextafter(bound, -_INFINITY))


# Bottom import: Process subclasses Event and only type-references
# Simulator, but keeping the import here (not at the top) avoids ever
# creating an import cycle while letting ``Simulator.process`` skip a
# per-call local import.
from repro.sim.process import Process  # noqa: E402
