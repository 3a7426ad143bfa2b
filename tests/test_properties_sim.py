"""Property-based tests (hypothesis) for the DES engine invariants."""

import heapq
import itertools

from hypothesis import example, given, strategies as st

from repro.sim import CPU, Simulator, Store, Semaphore
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
def _arms(max_delay, max_size):
    return st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=max_delay, allow_nan=False),
        st.sampled_from([0, 1]),  # URGENT, NORMAL
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
         reactions=[[(2_000.0, 1)], [(0.5, 0)], [(7.0, 1)]])
# Delayed urgent arms tying with normal ones, during the run.
@example(depth=150, entries=[(3.0, 0), (3.0, 1)],
         reactions=[[(2.0, 0), (2.0, 1), (0.0, 0)]] * 40)
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
        event = sim.event()
        event._ok = True
        label = next(labels)
        event.callbacks.append(lambda _e: fire(priority, label))
        sim._schedule_event(event, delay, priority)

    def fire(priority, label):
        log.append((sim.now, priority, label))
        k = len(log) - 1
        for delay, child_priority in (reactions[k] if k < len(reactions) else ()):
            arm(delay, child_priority)

    for delay, priority in arms:
        arm(delay, priority)
    sim.run()
    assert log == expected


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
            + sum(1 for entry in sim._imm_normal if entry[2].cancelled)
        )
        assert sim._cancelled == queued_cancelled
    sim._compact()
    assert sim._cancelled == 0
    assert not any(item.cancelled for item in sim._items)
    assert not any(entry[2].cancelled for entry in sim._imm_normal)
    sim.run()
    assert sim._cancelled == 0
    cancel_all()
    assert sim._cancelled == 0
    assert len(fired) == expected
    assert fired == sorted(fired)
