"""Property-based tests (hypothesis) for the DES engine invariants."""

import heapq
import itertools
from heapq import heappop

from hypothesis import example, given, strategies as st

from repro.sim import CPU, Interrupt, Simulator, Store, Semaphore
from repro.sim.engine import EmptySchedule, standing_handle
from repro.sim.cpu import PRIORITY_ISR
from repro.sim.trace import Category, Timeline


# ---------------------------------------------------------------- engine
@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=40))
def test_events_always_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.call_later(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e4,
                                 allow_nan=False), min_size=1, max_size=20),
       seed=st.integers(0, 2**16))
def test_simulation_is_deterministic(delays, seed):
    def run():
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append((sim.now, name))

        for i, delay in enumerate(delays):
            sim.process(worker(i, delay))
        sim.run()
        return log

    assert run() == run()


@given(durations=st.lists(st.floats(min_value=0.1, max_value=1e3,
                                    allow_nan=False), min_size=1,
                          max_size=20))
def test_clock_never_goes_backwards(durations):
    sim = Simulator()
    observed = []

    def watcher():
        for duration in durations:
            yield sim.timeout(duration)
            observed.append(sim.now)

    sim.process(watcher())
    sim.run()
    assert observed == sorted(observed)
    assert abs(observed[-1] - sum(durations)) < 1e-6 * max(1.0, sum(durations))


# ---------------------------------------------------------------- store
@given(items=st.lists(st.integers(), min_size=1, max_size=50),
       capacity=st.integers(min_value=1, max_value=10))
def test_store_is_fifo_and_loses_nothing(items, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)
            yield sim.timeout(1.0)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)
            yield sim.timeout(1.5)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == items


@given(n_waiters=st.integers(1, 20), units=st.integers(1, 25))
def test_semaphore_conservation(n_waiters, units):
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    acquired = []

    def waiter(i):
        yield sem.acquire()
        acquired.append(i)

    for i in range(n_waiters):
        sim.process(waiter(i))
    sem.release(units)
    sim.run()
    # Exactly min(waiters, units) acquisitions happen, in FIFO order.
    expected = min(n_waiters, units)
    assert acquired == list(range(expected))
    assert sem.value == max(0, units - n_waiters)


# ---------------------------------------------------------------- CPU
@given(jobs=st.lists(
    st.tuples(st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
              st.integers(0, 3),
              st.sampled_from([Category.USER, Category.SYSTEM])),
    min_size=1, max_size=15))
def test_cpu_work_is_conserved(jobs):
    """Total busy time equals total requested time, whatever the mix of
    priorities and preemptions -- in the timeline and in the CPU's
    always-on busy sums alike."""
    sim = Simulator()
    cpu = CPU(sim)
    cpu.timeline.arm(0.0)

    def submit(duration, priority, category, delay):
        yield sim.timeout(delay)
        yield cpu.execute(duration, priority=priority, category=category)

    for i, (duration, priority, category) in enumerate(jobs):
        sim.process(submit(duration, priority, category, i * 7.0))
    sim.run()

    def close(measured, charged):
        return abs(measured - charged) < 1e-6 * max(1.0, charged)

    total = sum(duration for duration, _, _ in jobs)
    user = sum(d for d, _, category in jobs if category is Category.USER)
    assert close(cpu.timeline.busy_time(), total)
    assert close(cpu.user_us, user)
    assert close(cpu.system_us, total - user)
    # The sums add the same intervals in the same order as the timeline.
    assert cpu.user_us == cpu.timeline.busy_time(Category.USER)
    assert cpu.system_us == cpu.timeline.busy_time(Category.SYSTEM)


@given(jobs=st.lists(
    st.tuples(st.floats(min_value=0.5, max_value=50.0, allow_nan=False),
              st.integers(0, 2)),
    min_size=2, max_size=12))
def test_cpu_timeline_segments_never_overlap(jobs):
    sim = Simulator()
    cpu = CPU(sim)
    cpu.timeline.arm(0.0)

    def submit(duration, priority, delay):
        yield sim.timeout(delay)
        yield cpu.execute(duration, priority=priority)

    for i, (duration, priority) in enumerate(jobs):
        sim.process(submit(duration, priority, i * 3.0))
    sim.run()
    segments = cpu.timeline.segments
    assert segments
    for a, b in zip(segments, segments[1:]):
        assert a.end <= b.start + 1e-9


class EagerCPU(CPU):
    """The reference model: a CPU that dispatches the queue head the
    moment a charge completes, before the charge's waiters run.  A
    waiter's higher-priority follow-up then preempts that head 0 us
    after it started."""

    def _complete(self):
        job = self._current
        now = self.sim._now
        if job.category is Category.USER:
            self.user_us += now - self._started_at
        else:
            self.system_us += now - self._started_at
        self._current = None
        job.succeed()
        if self._ready:
            self._dispatch_job(heappop(self._ready)[2])


# A charge: (duration, priority, gap).  ``gap`` is the wait before the
# program's next charge: 0 issues it from the waiter in the same instant.
# Priority 0 is interrupt level, charged non-preemptible as the kernels
# charge it.  Small integer durations and start times make completions,
# arrivals and equal priorities coincide often.  Gaps of 1 and 3 end
# timeouts in the instant a job dispatched after them ends, the tie the
# two CPUs order differently (see
# ``test_sim_cpu.py::test_dispatched_job_end_ties_after_waiter_timeout``):
# the job must still end in that instant.
_charge = st.tuples(st.integers(1, 12), st.sampled_from([0, 2, 5, 10, 10]),
                    st.sampled_from([0, 0, 0, 1, 3, 13, 17]))
_program = st.tuples(st.integers(0, 20),
                     st.lists(_charge, min_size=1, max_size=6))


def _run_script(cpu_class, programs):
    sim = Simulator()
    cpu = cpu_class(sim)
    ends = {}

    def program(index, start, charges):
        yield sim.timeout(start)
        for step, (duration, priority, gap) in enumerate(charges):
            yield cpu.execute(
                float(duration),
                priority=priority,
                category=Category.SYSTEM if priority < 10 else Category.USER,
                preemptible=priority != PRIORITY_ISR,
            )
            ends[index, step] = sim.now
            if gap:
                yield sim.timeout(gap)

    for index, (start, charges) in enumerate(programs):
        sim.process(program(index, start, charges))
    sim.run()
    return ends, cpu.user_us, cpu.system_us


@given(programs=st.lists(_program, min_size=1, max_size=8))
# A kernel chain whose queued user job would be dispatched and thrown off
# 0 us later at each step under eager dispatch.
@example(programs=[(0, [(5, 2, 0), (5, 2, 0), (5, 2, 0)]), (1, [(20, 10, 0)])])
# An ISR burst, then a kernel path, ahead of a queued user job.
@example(programs=[(0, [(4, 0, 0), (6, 2, 0), (3, 10, 0)]),
                   (2, [(8, 10, 0)]), (4, [(2, 0, 0)])])
# Charges from other programs arriving in the instant a charge ends.
@example(programs=[(0, [(5, 10, 0), (5, 2, 0)]), (5, [(3, 2, 0)]),
                   (5, [(3, 10, 0)]), (1, [(9, 10, 0)])])
# A kernel job resumed after an ISR ends as the ISR's 3 us timeout fires.
@example(programs=[(0, [(3, 2, 0)]), (0, [(1, 0, 3), (1, 0, 0)])])
def test_deferred_dispatch_matches_eager_dispatch(programs):
    """The CPU's dispatch rule -- a completed charge's waiters run before
    the queue head is started -- changes no schedule: every charge ends
    at the same instant and the busy sums are identical to a CPU that
    dispatches eagerly and preempts 0 us later."""
    assert _run_script(CPU, programs) == _run_script(EagerCPU, programs)


# ---------------------------------------------------------------- timeline
@given(
    busy=st.lists(
        st.tuples(st.floats(0.0, 100.0), st.floats(0.1, 20.0)),
        min_size=0, max_size=10),
    window=st.tuples(st.floats(0.0, 50.0), st.floats(60.0, 200.0)),
)
def test_timeline_breakdown_sums_to_window(busy, window):
    timeline = Timeline()
    timeline.arm(0.0)
    cursor = 0.0
    for start_offset, duration in busy:
        start = cursor + start_offset
        timeline.record(start, start + duration, Category.USER)
        cursor = start + duration
    t0, t1 = window
    breakdown = timeline.breakdown(t0, t1)
    assert abs(sum(breakdown.values()) - (t1 - t0)) < 1e-6 * (t1 - t0)
    assert all(v >= -1e-9 for v in breakdown.values())


# ---------------------------------------------------------- flat event queue
#: A delayed arm is NORMAL (``timeout``/``call_later``); an URGENT arm is
#: a zero-delay ``start``, the only way to make one besides an interrupt.
_URGENT_ARM = (0.0, 0)


def _arms(max_delay, max_size):
    return st.lists(st.one_of(
        st.tuples(st.floats(min_value=0.0, max_value=max_delay,
                            allow_nan=False), st.just(1)),
        st.just(_URGENT_ARM),
    ), max_size=max_size)


@given(
    depth=st.integers(min_value=0, max_value=300),
    entries=_arms(100.0, 80),
    reactions=st.lists(_arms(5_000.0, 3), max_size=200),
)
# A deep queue, then a near arm and two monotone far-future arms.
@example(depth=128, entries=[(1.5, 1), (1_000.0, 1), (2_000.0, 1)],
         reactions=[])
# Arms made while the near part of the queue has drained: the t=200
# occurrence arms t=210, which must beat the earlier-made t=500/900.
@example(depth=128, entries=[(500.0, 1), (900.0, 1), (200.0, 1)],
         reactions=[[]] * 128 + [[(10.0, 1)]])
# Out-of-order far arms on a deep queue.
@example(depth=128,
         entries=[(1.5, 1), (3_000.0, 1), (1_000.0, 1), (2_000.0, 1)],
         reactions=[])
# A shallow queue with out-of-order far arms.
@example(depth=0, entries=[(1.0, 1), (2_000.0, 1), (1_000.0, 1)],
         reactions=[])
# The watchdog pattern: every occurrence re-arms a timer at the queue's
# new maximum time, on a queue deeper than 128, and keeps doing so after
# the seed arms drain.
@example(depth=200, entries=[], reactions=[[(5_000.0, 1)]] * 260)
# Every arm made while the delayed queue is empty.
@example(depth=0, entries=[(1.0, 1)],
         reactions=[[(2_000.0, 1)], [_URGENT_ARM], [(7.0, 1)]])
# Zero-delay urgent arms made at the instant delayed normals land, on
# top of ties among the delayed normals themselves.
@example(depth=150, entries=[(3.0, 1), _URGENT_ARM, (3.0, 1)],
         reactions=[[(2.0, 1), (2.0, 1), _URGENT_ARM]] * 40)
def test_flat_queue_matches_heapq_order(depth, entries, reactions):
    """Differential test: the flat parallel-arrays queue plus the
    immediate lanes must process occurrences in exactly the order a
    reference ``heapq`` of ``(time, priority, seq)`` tuples yields.

    ``depth`` seed arms and ``entries`` are scheduled before the run; the
    ``k``-th occurrence processed then arms ``reactions[k]``, so arms are
    also made mid-run, at the queue's maximum, and after it drains.
    """
    arms = [(1.0 + i, 1) for i in range(depth)] + list(entries)

    # The reference model: a heapq event loop with its own sequence.
    reference = []
    seq = 0
    for delay, priority in arms:
        heapq.heappush(reference, (delay, priority, seq))
        seq += 1
    expected = []
    while reference:
        now, priority, label = heapq.heappop(reference)
        expected.append((now, priority, label))
        k = len(expected) - 1
        for delay, child_priority in (reactions[k] if k < len(reactions) else ()):
            heapq.heappush(reference, (now + delay, child_priority, seq))
            seq += 1

    sim = Simulator()
    log = []
    labels = itertools.count()

    def arm(delay, priority):
        label = next(labels)
        if priority == 0:
            sim.start(lambda _e: fire(priority, label))
        elif label % 2:
            sim.call_later(delay, fire, priority, label)
        else:
            sim.timeout(delay).callbacks.append(
                lambda _e: fire(priority, label))

    def fire(priority, label):
        log.append((sim.now, priority, label))
        k = len(log) - 1
        for delay, child_priority in (reactions[k] if k < len(reactions) else ()):
            arm(delay, child_priority)

    for delay, priority in arms:
        arm(delay, priority)
    sim.run()
    assert log == expected


#: Few distinct times, so pushes build long equal-time runs.
_UNPUSH_OP = st.one_of(
    st.tuples(st.just("push"), st.sampled_from([1.0, 2.0, 2.0, 3.0])),
    st.tuples(st.just("unpush"), st.integers(0, 63)),
    st.tuples(st.just("repush"), st.sampled_from([1.0, 2.0, 3.0])),
)


@given(ops=st.lists(_UNPUSH_OP, max_size=60))
# One equal-time run: take out the first pushed (the run's right end,
# next to pop), then the last pushed (its left end), then the middle.
@example(ops=[("push", 2.0)] * 5
         + [("unpush", 0), ("unpush", 3), ("unpush", 1)])
# The same between runs of other times, so the run sits mid-array.
@example(ops=[("push", 1.0), ("push", 3.0)] + [("push", 2.0)] * 4
         + [("push", 1.0), ("push", 3.0)]
         + [("unpush", 2), ("unpush", 4), ("unpush", 3)])
# A taken-out entry pushed again joins the end of its new run.
@example(ops=[("push", 2.0)] * 3 + [("unpush", 0), ("repush", 2.0),
                                     ("unpush", 1), ("repush", 1.0)])
def test_unpush_matches_heapq_removal(ops):
    """Differential test of :meth:`Simulator._unpush`: taking an entry
    out of the delayed queue, from anywhere in an equal-time run, leaves
    the survivors to pop in the order a reference ``heapq`` of ``(time,
    seq)`` yields once the same entry is deleted from it, and a
    taken-out handle can be pushed again as a new arm.  ``unpush`` picks
    a queued arm by its index in push order."""
    sim = Simulator()
    log = []
    reference = []
    queued = {}  # seq -> (time, handle) of every arm still queued
    out = []  # handles taken out, most recent last
    for seq, (op, arg) in enumerate(ops):
        if op == "unpush":
            if queued:
                victim = sorted(queued)[arg % len(queued)]
                time, handle = queued.pop(victim)
                sim._unpush(time, handle)
                reference.remove((time, victim))
                heapq.heapify(reference)
                out.append(handle)
            continue
        if op == "push":
            handle = standing_handle(log.append)
        elif out:
            handle = out.pop()
        else:
            continue
        handle.args = (seq,)
        sim._push(arg, handle)
        queued[seq] = (arg, handle)
        heapq.heappush(reference, (arg, seq))
    assert len(sim._keys) == len(sim._items) == len(reference)
    expected = [heapq.heappop(reference)[1] for _ in range(len(reference))]
    sim.run()
    assert log == expected
    assert sim.processed == len(expected)


#: Delays that tie on purpose.  Every arm lands at or after t=5000,
#: where one ulp is ~9.1e-13, so ``now + 1e-13 == now``: that delay
#: rounds away and must behave exactly as a zero delay made at the
#: same moment would under ``(time, priority, seq)`` order.
_TIE_DELAYS = st.sampled_from([0.0, 1e-13, 0.25, 1.0])
_TIE_ARM = st.tuples(
    _TIE_DELAYS,
    # NORMAL arms: ``timeout``, ``call_later`` and a cancelled one, and
    # the zero-delay ``succeed``; URGENT arms, zero-delay only:
    # ``start`` and ``Process.interrupt``.  The last three ignore the
    # delay.
    st.sampled_from(["timeout", "call", "cancelled", "succeed", "start",
                     "interrupt"]),
)


def _tie_key(now, delay, kind):
    """The ``(time, priority)`` a :data:`_TIE_ARM` is due at."""
    if kind in ("timeout", "call", "cancelled"):
        return now + delay, 1
    return now, 1 if kind == "succeed" else 0


@given(
    entries=st.lists(_TIE_ARM, min_size=1, max_size=12),
    reactions=st.lists(st.lists(_TIE_ARM, max_size=3), max_size=120),
    mode=st.sampled_from(["run", "step", "until", "window"]),
)
# Zero-delay and rounded-away arms made at the instant delayed arms land.
@example(entries=[(1.0, "timeout"), (1.0, "call"), (1.0, "timeout")],
         reactions=[[(0.0, "succeed"), (0.0, "interrupt"),
                     (1e-13, "call"), (0.0, "start")]] * 3,
         mode="run")
# Stop and resume in the middle of one instant.
@example(entries=[(0.0, "timeout")] * 4,
         reactions=[[(0.0, "start"), (0.0, "cancelled")]] * 6,
         mode="until")
def test_lanes_match_heapq_order_under_ties(entries, reactions, mode):
    """Differential test of the lane invariant: occurrences armed with
    zero or rounded-away delays from callbacks, at the instant delayed
    arms land, run in the order a reference ``heapq`` of ``(time,
    priority, seq)`` yields -- whether the run is one ``run()``,
    ``step()`` by ``step()`` (with ``peek()`` naming each next time),
    ``run(until=event)`` stopping and resuming mid-instant, or a series
    of ``run_window`` calls.  Cancelled handles are armed but never run.
    """
    base = 5_000.0
    reference = []
    seq = 0
    for delay, kind in entries:
        if kind != "cancelled":
            heapq.heappush(reference, (*_tie_key(base, delay, kind), seq))
        seq += 1
    expected = []
    while reference:
        now, priority, label = heapq.heappop(reference)
        expected.append((now, priority, label))
        k = len(expected) - 1
        for delay, kind in (reactions[k] if k < len(reactions) else ()):
            if kind != "cancelled":
                heapq.heappush(reference, (*_tie_key(now, delay, kind), seq))
            seq += 1

    sim = Simulator()
    log = []
    labels = itertools.count()
    armed = []

    def sleeper():
        # Waits forever; each interrupt carries the label to fire.  A
        # process cannot interrupt itself while it runs, so there are two
        # and an interrupt goes to one that is waiting.
        never = sim.event()
        while True:
            try:
                yield never
            except Interrupt as interrupt:
                fire(0, interrupt.cause)

    def arm(delay, kind):
        label = next(labels)
        _, priority = _tie_key(0.0, delay, kind)
        if kind == "start":
            armed.append(sim.start(lambda _e: fire(priority, label)))
        elif kind == "interrupt":
            first, second = sleepers
            (first if first.target is not None else second).interrupt(label)
        elif kind in ("timeout", "succeed"):
            if kind == "succeed":
                event = sim.event()
                event.succeed(label)
            else:
                event = sim.timeout(delay, label)
            event.callbacks.append(lambda _e: fire(priority, label))
            armed.append(event)
        else:
            handle = sim.call_later(delay, fire, 1, label)
            if kind == "cancelled":
                handle.cancel()

    def fire(priority, label):
        log.append((sim.now, priority, label))
        k = len(log) - 1
        for arm_args in (reactions[k] if k < len(reactions) else ()):
            arm(*arm_args)

    sleepers = (sim.process(sleeper()), sim.process(sleeper()))
    # The seed arms are made at t=5000 itself, by one occurrence the
    # run stops after: the zero-delay ones wait on the lanes.
    seed = sim.timeout(base)
    seed.callbacks.append(lambda _e: [arm(*entry) for entry in entries])
    sim.run(until=seed)
    assert sim.processed == 3  # the sleepers' starts and the seed
    if mode == "run":
        sim.run()
    elif mode == "step":
        while True:
            next_time = sim.peek()
            try:
                sim.step()
            except EmptySchedule:
                assert next_time == float("inf")
                break
            assert log and log[-1][0] == next_time == sim.now
    elif mode == "until":
        while True:
            pending = [event for event in armed if not event.processed]
            if not pending:
                sim.run()
                break
            stop = pending[len(pending) // 2]
            assert sim.run(until=stop) == stop.value
            assert stop.processed
    else:
        while sim.peek() < float("inf"):
            bound = sim.peek() + 0.5
            done = len(log)
            sim.run_window(bound)
            assert all(time < bound for time, _, _ in log[done:])
            assert sim.peek() >= bound
    assert log == expected
    assert sim.processed == 3 + len(expected)
    if expected:
        assert sim.now == expected[-1][0]
    assert sim._cancelled == 0


@given(ops=st.lists(
    st.one_of(
        st.tuples(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                  st.booleans()),
        st.just("run"),
    ),
    min_size=1, max_size=150))
def test_cancelled_counter_invariant(ops):
    """``_cancelled`` counts exactly the cancelled entries still queued.

    It must never go negative (an underflow would defer every future
    compaction) and must reach zero once the queues drain.  Exercises
    both the heap and the zero-delay immediate lane, with idempotent
    double-cancels thrown in.  A ``"run"`` op drains the queue and then
    cancels every handle armed so far: a handle that already ran has no
    queued entry, so that cancel must count nothing.
    """
    sim = Simulator()
    fired = []
    handles = []
    expected = 0

    def cancel_all():
        for handle in handles:
            handle.cancel()

    for op in ops:
        if op == "run":
            sim.run()
            cancel_all()
        else:
            delay, do_cancel = op
            handle = sim.call_later(delay, lambda: fired.append(sim.now))
            handles.append(handle)
            if do_cancel:
                handle.cancel()
                handle.cancel()  # idempotent: must not double-count
            else:
                expected += 1
        queued_cancelled = (
            sum(1 for item in sim._items if item.cancelled)
            + sum(1 for item in sim._imm_normal if item.cancelled)
        )
        assert sim._cancelled == queued_cancelled
    sim._compact()
    assert sim._cancelled == 0
    assert not any(item.cancelled for item in sim._items)
    assert not any(item.cancelled for item in sim._imm_normal)
    sim.run()
    assert sim._cancelled == 0
    cancel_all()
    assert sim._cancelled == 0
    assert len(fired) == expected
    assert fired == sorted(fired)
