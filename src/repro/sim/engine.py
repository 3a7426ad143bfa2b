"""The discrete-event simulation engine.

:class:`Simulator` owns the clock and the pending-occurrence queues.
Occurrences are totally ordered by ``(time, priority, sequence)`` so
that simultaneous occurrences are processed in a deterministic order and
urgent occurrences (process interrupts) precede normal ones at the same
instant.

Fast path: the dominant scheduling operation is triggering an event with
*zero* delay (``Event.succeed``/``fail``, process starts, interrupts).
Those never need the sorted queue, so they go onto plain FIFO lanes of
bare items, one per priority, and only *delayed* occurrences carry a
time and a sequence number.  The merge rests on one invariant: **every
lane entry is due now, and every queued entry is due later.**  Proof: a
lane entry is appended at ``_now``, and :meth:`Simulator._push` sends
any time equal to ``_now`` (a zero delay, or one too small to move the
clock: ``now + delay == now``) onto a lane rather than into the queue.
The clock advances only when both lanes are empty, and it advances to
the queue's head time, moving every entry due then onto the lane of its
priority in queue order; nothing due at the new time is left queued.
Under the ``(time, priority, seq)`` order each moved entry sorts before
every lane entry that callbacks append later at that instant, since it
was queued at an earlier instant and so holds an older sequence number,
and urgent entries sort before normal ones.  The order therefore reduces to:

1. the urgent lane;
2. the normal lane;
3. only then does the clock advance to the queue's head.

No timestamp or sequence number is built or compared for a lane entry,
and the order is the exact heap order bit for bit (pinned by
``tests/test_determinism.py`` and the heapq differential tests in
``tests/test_properties_sim.py``).

The delayed-occurrence queue is a *flat parallel-arrays* priority
queue: scalar lists moved in lockstep instead of a single list of
``(time, priority, seq, item)`` tuples.  ``_keys`` holds negated times,
``_order`` the priority and sequence packed into one integer (priority
times :data:`_PRIO_STRIDE` plus sequence -- lexicographic ``(priority,
seq)`` order as a single C ``int`` compare), and ``_items`` the payload
objects.  The arrays are kept sorted by *descending* ``(time, priority,
seq)`` -- the minimum lives at the end -- so a pop is three O(1)
``list.pop()`` calls and the head's time is one scalar load (the
drain loop indexes no tuple).  Pushes locate
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
from repro.sim.events import Event, Timeout, NORMAL, URGENT

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
        #: FIFO lanes of bare items due at ``_now``, one per priority
        #: level (see the module docstring).
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
    def _push(self, time: float, priority: int, item: Any) -> None:
        """Queue ``item`` to run at ``time`` (never before ``_now``).

        A time equal to ``_now`` -- a zero delay, or one too small to
        move the clock -- goes onto the lane of its priority: its
        sequence number would have sorted it after every entry already
        due now at that priority and before every later one, which is
        the lane's FIFO position.  Anything later takes the next
        sequence number (it breaks ties only here, in the sorted queue)
        and one C bisect over the negated-time keys finds its slot.
        Sequence numbers grow monotonically, so among entries with
        equal ``(time, priority)`` the new one always pops *last* --
        which in the descending layout is the leftmost slot of the
        equal-time run, exactly where ``bisect_left`` lands for a
        normal-priority push.  Urgent pushes (which sort before every
        normal entry at the same time) walk right past equal-time
        entries with a greater packed order; no caller schedules a
        *delayed* urgent occurrence today, so the scan is cold.
        """
        if time == self._now:
            if priority == NORMAL:
                self._imm_normal.append(item)
            else:
                self._imm_urgent.append(item)
            return
        seq = self._seq
        self._seq = seq + 1
        order = priority * _PRIO_STRIDE + seq
        keys = self._keys
        key = -time
        pos = bisect_left(keys, key)
        if priority == URGENT:
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
        self._push(self._now + delay, priority, event)

    def call_later(self, delay: float, fn: Callable[..., None], *args: Any) -> Handle:
        """Run ``fn(*args)`` after ``delay``; returns a cancellable handle.

        A zero-delay callback shares the normal lane with zero-delay
        events; the pop paths skip it if it is cancelled before it runs.
        """
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        time = self._now + delay
        # ``Handle.__init__`` inlined (CPU charge completions create one
        # handle per dispatch): plain slot stores, no constructor frame.
        handle = Handle.__new__(Handle)
        handle._sim = self
        handle.time = time
        handle.fn = fn
        handle.args = args
        handle.cancelled = False
        if delay == 0.0:  # :meth:`_push`'s lane branch, minus a frame
            self._imm_normal.append(handle)
        else:
            self._push(time, NORMAL, handle)
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
        if delay == 0.0:  # :meth:`_push`'s lane branch, minus a frame
            self._imm_normal.append(event)
        else:
            self._push(self._now + delay, NORMAL, event)
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
        due then onto the lane of its priority, in queue order."""
        keys = self._keys
        key = keys[-1]
        self._now = -key
        while keys and keys[-1] == key:
            order = self._order[-1]
            item = self._heap_pop()
            if order < _PRIO_STRIDE:  # URGENT == 0
                self._imm_urgent.append(item)
            else:
                self._imm_normal.append(item)

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
        """The run loop: process occurrences in ``(time, priority, seq)`` order.

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
        entries tied with it join the lanes (:meth:`_advance` inlined).
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
                        order_pop()
                        items_pop()
                        if self._cancelled > 0:
                            self._cancelled -= 1
                        continue
                    key = keys[-1]
                    if -key > deadline:
                        return
                    self._now = -key
                    keys_pop()
                    order_pop()
                    item = items_pop()
                    while keys and keys[-1] == key:
                        keys_pop()
                        if order_pop() < stride:  # URGENT == 0
                            urgent.append(items_pop())
                        else:
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
