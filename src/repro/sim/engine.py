"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the pending-occurrence queues.
Occurrences are totally ordered by ``(time, priority, sequence)`` so
that simultaneous occurrences are processed in a deterministic order and
urgent occurrences (process interrupts) precede normal ones at the same
instant.

Fast path: the dominant scheduling operation is triggering an event with
*zero* delay (``Event.succeed``/``fail``, process starts, interrupts).
Those never need the binary heap -- at the moment they are scheduled
they already sort after everything currently pending at the same
``(time, priority)`` -- so they go onto plain FIFO lanes (one per
priority) and only *delayed* occurrences pay the heap.  Because
simulation time never moves backwards, each lane stays sorted by
``(time, sequence)`` and a three-way head comparison reproduces the
exact heap order bit-for-bit (pinned by ``tests/test_determinism.py``).

The delayed-occurrence queue is a *flat parallel-arrays* priority
queue: scalar lists moved in lockstep instead of a single list of
``(time, priority, seq, item)`` tuples.  ``_keys`` holds negated times,
``_order`` the priority and sequence packed into one integer (priority
times :data:`_PRIO_STRIDE` plus sequence -- lexicographic ``(priority,
seq)`` order as a single C ``int`` compare), and ``_items`` the payload
objects.  The arrays are kept sorted by *descending* ``(time, priority,
seq)`` -- the minimum lives at the end -- so a pop is three O(1)
``list.pop()`` calls and the head's sort key is readable as two scalar
loads (no tuple indexing in the drain loop's merge).  Pushes locate
their slot with one C ``bisect`` over ``_keys``: sequence numbers grow
monotonically, so a new normal-priority entry always sorts *last* among
equal ``(time, priority)`` keys, which in the descending layout is the
leftmost slot of the equal-time run -- exactly where ``bisect_left``
lands, no tie-break scan.  A hand-rolled parallel-array binary-heap
sift was benchmarked first and lost by ~3x: interpreted sift loops
cannot compete with C ``bisect`` + ``memmove`` at realistic queue
depths (~100-200 pending occurrences).  Lazy-cancel compaction rewrites
the arrays in place so drain-local bindings stay valid.

Every delayed occurrence enters through one method,
:meth:`Simulator._push`.  Its cost is the C memmove of the entries that
pop before it (they sit to its right in the descending layout), so a
far-future arm on a deep queue -- a new global-maximum time lands at
index 0 -- moves all three arrays.  At the depths the benchmark
workloads reach (a median of ~130-180 pending occurrences) that memmove
is cheap: a separate ascending lane that took such arms as appends
measured no faster.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from math import nextafter
from typing import Any, Callable, Generator, Optional

from repro.metrics.events import Vstat
from repro.sim.events import Event, Timeout, NORMAL

#: Lazy-cancel compaction trigger: compact the heap when more than half
#: of it is cancelled handles (and there are enough of them to matter) --
#: the asyncio approach, keeping queue growth bounded under
#: ``call_later(...).cancel()`` churn.
_MIN_CANCELLED_TO_COMPACT = 64

#: Packed-order stride: ``order = priority * _PRIO_STRIDE + seq`` compares
#: identically to the tuple ``(priority, seq)`` as long as sequence
#: numbers stay below the stride -- far beyond any reachable run length.
_PRIO_STRIDE = 1 << 62

_INFINITY = float("inf")


class Handle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later`.  Cancellation is lazy: the
    queue entry stays in place and is skipped when popped, but the
    simulator counts cancelled entries and compacts the heap when they
    dominate it.  ``_sim`` is cleared when the callback runs, so a
    cancel after that point has no queued entry to count.
    """

    __slots__ = ("fn", "args", "cancelled", "time", "_sim")

    #: A handle has no callback list; :meth:`Simulator._drain` reads
    #: ``callbacks is None`` as "run ``fn`` instead" (a queued event's
    #: list is never ``None`` until it is processed).
    callbacks = None

    def __init__(
        self, sim: "Simulator", time: float, fn: Callable[..., None],
        args: tuple,
    ) -> None:
        self._sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        The count and the compaction check live here, not behind a
        ``Simulator`` method: CPU preemption cancels one completion
        handle per suspended charge, so the cancel -> count ->
        maybe-compact path is hot.
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


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when the queue is exhausted."""


class Simulator:
    """The event loop: simulated clock plus pending-occurrence queues.

    Time is a float in **microseconds** (see :mod:`repro.model.units`).
    """

    __slots__ = (
        "_now",
        "_seq",
        "_keys",
        "_order",
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
        self._seq: int = 0
        #: Flat parallel-arrays queue for *delayed* occurrences, sorted by
        #: descending ``(time, priority, seq)``: entry ``i`` has time
        #: ``-_keys[i]``, packed priority+sequence ``_order[i]``, and
        #: payload ``_items[i]`` (an Event or a Handle); the *minimum* is
        #: the last entry.  All three move in lockstep: :meth:`_push` is
        #: the only insert, pops take the end; compaction rewrites them
        #: in place (never rebinds) because :meth:`_drain` holds local
        #: references.
        self._keys: list[float] = []
        self._order: list[int] = []
        self._items: list[Any] = []
        #: FIFO lanes of (time, seq, item) for zero-delay occurrences,
        #: one per priority level.  Drained ahead of the heap whenever
        #: their head sorts first.  The normal lane may hold cancelled
        #: zero-delay :class:`Handle`\\ s (skipped at pop time); the
        #: urgent lane only ever holds events.
        self._imm_urgent: deque[tuple[float, int, Event]] = deque()
        self._imm_normal: deque[tuple[float, int, Any]] = deque()
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
    def _push(self, time: float, order: int, item: Any) -> None:
        """Insert one delayed entry, moving all arrays in lockstep.

        ``order`` is the packed ``priority * _PRIO_STRIDE + seq``.  One C
        bisect over the negated-time keys finds the slot.  Sequence
        numbers are handed out monotonically, so among entries with equal
        ``(time, priority)`` the new one always pops *last* -- which in
        the descending layout is the leftmost slot of the equal-time run,
        exactly where ``bisect_left`` lands for a normal-priority push.
        Urgent pushes (which sort before every normal entry at the same
        time) walk right past equal-time entries with a greater packed
        order; no caller schedules a *delayed* urgent occurrence today,
        so the scan is cold.
        """
        keys = self._keys
        key = -time
        pos = bisect_left(keys, key)
        if order < _PRIO_STRIDE:  # URGENT == 0
            orders = self._order
            n = len(keys)
            while pos < n and keys[pos] == key and orders[pos] > order:
                pos += 1
        keys.insert(pos, key)
        self._order.insert(pos, order)
        self._items.insert(pos, item)

    def _heap_pop(self) -> Any:
        """Remove and return the minimum item: three O(1) end pops."""
        self._keys.pop()
        self._order.pop()
        return self._items.pop()

    # -- scheduling ----------------------------------------------------------
    def _schedule_event(self, event: Event, delay: float, priority: int) -> None:
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            # Immediate lane: no heap traffic for the dominant case.
            if priority == NORMAL:
                self._imm_normal.append((self._now, seq, event))
            else:
                self._imm_urgent.append((self._now, seq, event))
        else:
            self._push(self._now + delay, priority * _PRIO_STRIDE + seq, event)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self._now
        time = now + delay
        # ``Handle.__init__`` inlined (CPU charge completions create one
        # handle per dispatch): plain slot stores, no constructor frame.
        handle = Handle.__new__(Handle)
        handle._sim = self
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            # Same immediate lane as zero-delay events: a zero-delay
            # callback already sorts after everything pending at
            # ``(now, NORMAL)``, so it needs no heap either.  The lane
            # pop paths skip it if it is cancelled before it runs.
            self._imm_normal.append((now, seq, handle))
        else:
            self._push(time, _PRIO_STRIDE + seq, handle)
        return handle

    def _compact(self) -> None:
        """Drop every cancelled entry and recount ``_cancelled`` exactly.

        The three queue arrays are rewritten *in place* (slice
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
            for entry in zip(self._keys, self._order, self._items)
            if not entry[2].cancelled
        ]
        self._keys[:] = [entry[0] for entry in live]
        self._order[:] = [entry[1] for entry in live]
        self._items[:] = [entry[2] for entry in live]
        normal = self._imm_normal
        if normal:
            kept = [entry for entry in normal if not entry[2].cancelled]
            if len(kept) != len(normal):
                normal.clear()
                normal.extend(kept)
        # Recount (not decrement): every cancelled entry is gone now.
        self._cancelled = 0

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` from now."""
        # ``Timeout.__init__`` inlined -- its constructor chain (Event
        # ctor + ``_schedule_event``) costs three extra frames, and a
        # timeout is created per wire transfer and watchdog arm.  The
        # Timeout class itself keeps a working constructor for direct
        # construction.
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event._defused = False
        event.delay = delay
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0:
            self._imm_normal.append((self._now, seq, event))
        else:
            self._push(self._now + delay, _PRIO_STRIDE + seq, event)
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
        self._imm_urgent.append((self._now, self._seq, start))
        self._seq += 1
        return start

    # -- execution -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next occurrence, or ``inf`` if the queue is empty."""
        keys = self._keys
        items = self._items
        while items and items[-1].cancelled:
            self._heap_pop()
            if self._cancelled > 0:
                self._cancelled -= 1
        time = -keys[-1] if keys else _INFINITY
        if self._imm_urgent:
            t = self._imm_urgent[0][0]
            if t < time:
                time = t
        normal = self._imm_normal
        while normal and normal[0][2].cancelled:
            normal.popleft()
            if self._cancelled > 0:
                self._cancelled -= 1
        if normal:
            t = normal[0][0]
            if t < time:
                time = t
        return time

    def _pop_next(self, deadline: float = _INFINITY) -> Optional[Any]:
        """Remove and return the next occurrence, advancing the clock.

        The three lane heads (urgent FIFO, normal FIFO, heap) are
        compared under the global ``(time, priority, seq)`` order; the
        winner is popped.  Every branch carries the *full* key forward
        -- the time plus the packed ``(priority, seq)`` order -- so the
        merge stays correct no matter which lane is examined first.
        Returns ``None`` -- popping nothing -- when the next occurrence
        lies beyond ``deadline``; raises :class:`EmptySchedule` when
        nothing is pending at all.
        """
        items = self._items
        while items and items[-1].cancelled:
            self._heap_pop()
            if self._cancelled > 0:
                self._cancelled -= 1
        lane = -1
        if items:
            best_time = -self._keys[-1]
            best_order = self._order[-1]
            lane = 0
        urgent = self._imm_urgent
        if urgent:
            time, seq, _ = urgent[0]
            # URGENT == 0: the packed order of an urgent entry is its seq.
            if lane < 0 or (time, seq) < (best_time, best_order):
                best_time, best_order = time, seq
                lane = 1
        normal = self._imm_normal
        while normal and normal[0][2].cancelled:
            normal.popleft()
            if self._cancelled > 0:
                self._cancelled -= 1
        if normal:
            time, seq, _ = normal[0]
            order = _PRIO_STRIDE + seq  # NORMAL == 1
            if lane < 0 or (time, order) < (best_time, best_order):
                best_time, best_order = time, order
                lane = 2
        if lane < 0:
            raise EmptySchedule()
        if best_time > deadline:
            return None
        self._now = best_time
        self.processed += 1
        if lane == 2:
            return normal.popleft()[2]
        if lane == 1:
            return urgent.popleft()[2]
        return self._heap_pop()

    def step(self) -> None:
        """Process exactly one occurrence."""
        self._pop_next()._process()

    def _drain(self, stop: Optional[Event], deadline: float) -> None:
        """The run loop: process occurrences in ``(time, priority, seq)`` order.

        Stops when the schedule empties, when ``stop`` (if given) has been
        processed, or when the next occurrence lies beyond ``deadline``.
        This is :meth:`_pop_next` inlined into the loop with every queue
        bound to a local -- the single hottest function in the repository,
        so it trades a little repetition for one frame (and several
        attribute loads) less per processed occurrence.  The flat heap's
        head key is read as two scalar loads; no tuple is built or
        compared anywhere in the merge (the packed order makes the
        priority tie-break a single int compare).
        """
        keys = self._keys
        order = self._order
        items = self._items
        urgent = self._imm_urgent
        normal = self._imm_normal
        urgent_popleft = urgent.popleft
        normal_popleft = normal.popleft
        # :meth:`_heap_pop` inlined as three bound C pops.  Compaction
        # rewrites the arrays in place (slice assignment), so these bound
        # methods keep pointing at the live arrays.
        keys_pop = keys.pop
        order_pop = order.pop
        items_pop = items.pop
        stride = _PRIO_STRIDE
        processed = 0
        try:
            while True:
                if stop is not None and stop.callbacks is None:
                    return
                if keys:
                    if items[-1].cancelled:
                        keys_pop()
                        order_pop()
                        items_pop()
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    best_time = -keys[-1]
                    best_order = order[-1]
                    lane = 0
                else:
                    lane = -1
                if urgent:
                    head = urgent[0]
                    time = head[0]
                    # URGENT == 0: packed order of an urgent entry == seq.
                    if (
                        lane < 0
                        or time < best_time
                        or (time == best_time and head[1] < best_order)
                    ):
                        best_time = time
                        best_order = head[1]
                        lane = 1
                if normal:
                    head = normal[0]
                    if head[2].cancelled:
                        # A zero-delay handle cancelled before it ran.
                        normal_popleft()
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    time = head[0]
                    if lane < 0 or time < best_time or (
                        time == best_time and stride + head[1] < best_order
                    ):
                        best_time = time
                        best_order = stride + head[1]
                        lane = 2
                if lane < 0:
                    return
                if best_time > deadline:
                    return
                self._now = best_time
                processed += 1
                if lane == 2:
                    item = normal_popleft()[2]
                elif lane == 1:
                    item = urgent_popleft()[2]
                else:
                    keys_pop()
                    order_pop()
                    item = items_pop()
                # ``Event._process`` / ``Handle._process`` inlined: the
                # hop path runs as event callbacks, so a frame per
                # processed occurrence is a frame per link traversal.
                callbacks = item.callbacks
                if callbacks is None:
                    item._sim = None
                    item.fn(*item.args)
                    continue
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
        * a number -- run until simulated time reaches it;
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
        if deadline < self._now:
            raise ValueError(
                f"deadline {deadline} is in the past (now={self._now})"
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
