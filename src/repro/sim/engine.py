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

The descending layout makes *near-term* pushes cheap (they land near
the end, a short memmove) but *far-future* pushes expensive: a new
global-maximum time lands at index 0 and memmoves all three arrays.
That is exactly the retransmission-watchdog pattern (``call_later`` a
long way out, ``cancel()`` on every ack), so entries scheduled at or
beyond the current maximum go to a separate **far lane** instead: three
parallel arrays sorted *ascending*, where a monotonically later arm is
three O(1) ``append`` calls.  The invariant is that every far entry
sorts strictly after every main entry in the global ``(time, priority,
seq)`` order, so the main arrays always hold the minimum; whenever the
main arrays empty (or a delayed urgent push would violate the
invariant) the far lane is spliced back in one O(k) reversal.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

#: Main-queue size at which a push at/past the current maximum time
#: starts using the far lane.  Below this an index-0 insert's memmove is
#: cheaper than the far lane's append/merge bookkeeping (a tiny C
#: memmove beats the extra Python branches); above it the O(n) memmove
#: per push dominates and the far lane's O(1) appends win.
_FAR_LANE_MIN = 128

_INFINITY = float("inf")


class Handle:
    """A cancellable scheduled callback.

    Returned by :meth:`Simulator.call_later`.  Cancellation is lazy: the
    queue entry stays in place and is skipped when popped, but the
    simulator counts cancelled entries and compacts the heap when they
    dominate it.
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

        This is ``Simulator._note_cancelled`` inlined: CPU preemption
        cancels one completion handle per suspended charge, so the
        cancel -> count -> maybe-compact path is hot.
        """
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            cancelled = sim._cancelled + 1
            sim._cancelled = cancelled
            if (
                cancelled > _MIN_CANCELLED_TO_COMPACT
                and cancelled * 2 > len(sim._keys) + len(sim._far_keys)
            ):
                sim._compact()

    def _process(self) -> None:
        """Run the callback.  Called by the engine (never when cancelled)."""
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
        "_far_keys",
        "_far_order",
        "_far_items",
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
        #: the last entry.  All three move in lockstep under
        #: :meth:`_heap_push`/:meth:`_heap_pop`; compaction rewrites them
        #: in place (never rebinds) because :meth:`_drain` holds local
        #: references.
        self._keys: list[float] = []
        self._order: list[int] = []
        self._items: list[Any] = []
        #: The far lane: delayed normal-priority occurrences scheduled at
        #: or beyond the main arrays' maximum time.  Sorted *ascending* by
        #: ``(time, seq)`` with times stored un-negated, so the common
        #: monotone far-future arm (watchdog rearm) is three O(1) appends
        #: instead of an ``insert(0)`` memmove of the whole main queue.
        #: Invariant: every far entry sorts after every main entry in the
        #: global ``(time, priority, seq)`` order (see :meth:`_merge_far`).
        self._far_keys: list[float] = []
        self._far_order: list[int] = []
        self._far_items: list[Any] = []
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
    def _heap_push(self, time: float, prio: int, seq: int, item: Any) -> None:
        """Insert one entry, moving all arrays in lockstep.

        One C bisect over the negated-time keys finds the slot.  Sequence
        numbers are handed out monotonically, so among entries with equal
        ``(time, priority)`` the new one always pops *last* -- which in
        the descending layout is the leftmost slot of the equal-time run,
        exactly where ``bisect_left`` lands for a normal-priority push.
        Urgent pushes (which sort before every normal entry at the same
        time) walk right past equal-time entries with a greater packed
        order; no caller schedules a *delayed* urgent occurrence today,
        so the scan is cold.

        An urgent push at or beyond the far lane's minimum time would
        break the far invariant (an urgent entry at time ``t`` sorts
        *before* a normal far entry at the same ``t``), so the far lane
        is folded back into the main arrays first.  Cold for the same
        reason the tie-break scan is.
        """
        far_keys = self._far_keys
        if far_keys and time >= far_keys[0]:
            self._merge_far()
        keys = self._keys
        key = -time
        pos = bisect_left(keys, key)
        order = prio * _PRIO_STRIDE + seq
        if prio != NORMAL:
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

    def _push_far(self, time: float, order: int, item: Any) -> None:
        """Slow-path insert for a normal delayed entry at/past the main max.

        Called by the inlined push sites when ``-time <= _keys[0]`` (the
        entry would land at index 0 of the main arrays, the worst-case
        memmove) or when the main arrays are empty.  A new entry whose
        time is at least the far maximum -- the monotone watchdog-rearm
        pattern this lane exists for -- is three O(1) appends; anything
        earlier takes one bisect over the (much shorter) far lane.
        Sequence monotonicity makes ``bisect_right`` exact for ties, the
        mirror of the ``bisect_left`` argument on the descending main
        arrays.
        """
        far_keys = self._far_keys
        if self._keys:
            if not far_keys or time >= far_keys[-1]:
                far_keys.append(time)
                self._far_order.append(order)
                self._far_items.append(item)
            else:
                pos = bisect_right(far_keys, time)
                far_keys.insert(pos, time)
                self._far_order.insert(pos, order)
                self._far_items.insert(pos, item)
            return
        # Main arrays empty: nothing to memmove, so fold any far backlog
        # back in and insert normally -- keeps the invariant that the
        # main arrays hold the global minimum whenever they are nonempty.
        if far_keys:
            self._merge_far()
        keys = self._keys
        key = -time
        pos = bisect_left(keys, key)
        keys.insert(pos, key)
        self._order.insert(pos, order)
        self._items.insert(pos, item)

    def _merge_far(self) -> None:
        """Splice the far lane back into the main arrays, in place.

        Every far entry sorts after every main entry (the lane's
        invariant), so no element-wise merge is needed: the far lane
        reversed is exactly the descending prefix of the combined queue.
        The main arrays are extended via slice assignment (never rebound)
        because :meth:`_drain` holds local references to them.
        """
        far_keys = self._far_keys
        far_keys.reverse()
        self._far_order.reverse()
        self._far_items.reverse()
        self._keys[:0] = [-t for t in far_keys]
        self._order[:0] = self._far_order
        self._items[:0] = self._far_items
        del far_keys[:]
        del self._far_order[:]
        del self._far_items[:]

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
        elif priority == NORMAL:
            # :meth:`_heap_push` inlined for the hot delayed case
            # (``Timeout``): one C bisect plus three C inserts, no extra
            # Python frame.  Entries at or beyond the current maximum
            # time (``key <= keys[0]``) would memmove the whole queue,
            # so once the queue is ``_FAR_LANE_MIN`` deep they take the
            # far lane; the dominant far case (in-order append) is
            # inlined too, only the rare shapes pay the method call.
            keys = self._keys
            time = self._now + delay
            key = -time
            if keys:
                far_keys = self._far_keys
                if key > keys[0] or (
                    not far_keys and len(keys) < _FAR_LANE_MIN
                ):
                    pos = bisect_left(keys, key)
                    keys.insert(pos, key)
                    self._order.insert(pos, _PRIO_STRIDE + seq)
                    self._items.insert(pos, event)
                elif not far_keys or time >= far_keys[-1]:
                    far_keys.append(time)
                    self._far_order.append(_PRIO_STRIDE + seq)
                    self._far_items.append(event)
                else:
                    self._push_far(time, _PRIO_STRIDE + seq, event)
            elif self._far_keys:
                self._push_far(time, _PRIO_STRIDE + seq, event)
            else:
                keys.append(key)
                self._order.append(_PRIO_STRIDE + seq)
                self._items.append(event)
        else:
            self._heap_push(self._now + delay, priority, seq, event)

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
            # :meth:`_heap_push` inlined, as in :meth:`_schedule_event`.
            # Far-future arms on a deep queue (watchdogs) go to the far
            # lane: O(1) appends instead of an index-0 memmove per rearm.
            keys = self._keys
            key = -time
            if keys:
                far_keys = self._far_keys
                if key > keys[0] or (
                    not far_keys and len(keys) < _FAR_LANE_MIN
                ):
                    pos = bisect_left(keys, key)
                    keys.insert(pos, key)
                    self._order.insert(pos, _PRIO_STRIDE + seq)
                    self._items.insert(pos, handle)
                elif not far_keys or time >= far_keys[-1]:
                    far_keys.append(time)
                    self._far_order.append(_PRIO_STRIDE + seq)
                    self._far_items.append(handle)
                else:
                    self._push_far(time, _PRIO_STRIDE + seq, handle)
            elif self._far_keys:
                self._push_far(time, _PRIO_STRIDE + seq, handle)
            else:
                keys.append(key)
                self._order.append(_PRIO_STRIDE + seq)
                self._items.append(handle)
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
        # The far lane is where watchdog arms live, so under
        # ``call_later(big).cancel()`` churn most cancelled entries are
        # *here* -- filter it the same way.
        far_live = [
            entry
            for entry in zip(self._far_keys, self._far_order, self._far_items)
            if not entry[2].cancelled
        ]
        self._far_keys[:] = [entry[0] for entry in far_live]
        self._far_order[:] = [entry[1] for entry in far_live]
        self._far_items[:] = [entry[2] for entry in far_live]
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
            keys = self._keys
            time = self._now + delay
            key = -time
            if keys:
                far_keys = self._far_keys
                if key > keys[0] or (
                    not far_keys and len(keys) < _FAR_LANE_MIN
                ):
                    pos = bisect_left(keys, key)
                    keys.insert(pos, key)
                    self._order.insert(pos, _PRIO_STRIDE + seq)
                    self._items.insert(pos, event)
                elif not far_keys or time >= far_keys[-1]:
                    far_keys.append(time)
                    self._far_order.append(_PRIO_STRIDE + seq)
                    self._far_items.append(event)
                else:
                    self._push_far(time, _PRIO_STRIDE + seq, event)
            elif self._far_keys:
                self._push_far(time, _PRIO_STRIDE + seq, event)
            else:
                keys.append(key)
                self._order.append(_PRIO_STRIDE + seq)
                self._items.append(event)
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
        while True:
            while items and items[-1].cancelled:
                self._heap_pop()
                if self._cancelled > 0:
                    self._cancelled -= 1
            if keys or not self._far_keys:
                break
            self._merge_far()
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
        while True:
            while items and items[-1].cancelled:
                self._heap_pop()
                if self._cancelled > 0:
                    self._cancelled -= 1
            if items or not self._far_keys:
                break
            self._merge_far()
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
                elif self._far_keys:
                    # Main arrays drained: fold the far lane back in
                    # (in place -- the local bindings stay valid) and
                    # re-run the merge with a nonempty heap.
                    self._merge_far()
                    continue
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
