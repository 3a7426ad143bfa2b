"""Unit tests for the DES engine core (events, clock, queue ordering)."""

import pytest

from repro.sim import Simulator, AnyOf, AllOf, Interrupt


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    assert sim.now == 10.0


def test_run_until_time_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return "done"

    p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert sim.now == 5.0


def test_run_until_past_deadline_rejected():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=5.0)


def test_events_process_in_time_order():
    sim = Simulator()
    order = []
    for delay in (30.0, 10.0, 20.0):
        sim.call_later(delay, order.append, delay)
    sim.run()
    assert order == [10.0, 20.0, 30.0]


def test_simultaneous_events_process_in_schedule_order():
    sim = Simulator()
    order = []
    for i in range(5):
        sim.call_later(7.0, order.append, i)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_call_later_cancel():
    sim = Simulator()
    fired = []
    handle = sim.call_later(5.0, fired.append, 1)
    handle.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("delay", _NON_FINITE)
def test_non_finite_call_later_rejected(delay):
    """A NaN arm used to land anywhere in the sorted queue: arms of 2,
    NaN, 5, 1, 3 and 4 ran at 2, NaN, 1, 3, ... with the clock running
    backwards."""
    sim = Simulator()
    fired = []
    for good in (2.0, 5.0, 1.0):
        sim.call_later(good, fired.append, good)
    with pytest.raises(ValueError, match=str(delay)):
        sim.call_later(delay, fired.append, delay)
    sim.run()
    assert fired == [1.0, 2.0, 5.0]


@pytest.mark.parametrize("delay", _NON_FINITE)
def test_non_finite_timeout_rejected(delay):
    sim = Simulator()
    with pytest.raises(ValueError, match=str(delay)):
        sim.timeout(delay)
    assert sim.peek() == float("inf")


def test_nan_deadline_rejected():
    """``run(until=nan)`` used to run everything and leave ``now`` at
    NaN for good."""
    sim = Simulator()
    sim.timeout(10.0)
    with pytest.raises(ValueError, match="nan"):
        sim.run(until=float("nan"))
    assert sim.now == 0.0
    sim.run(until=20.0)
    assert sim.now == 20.0 and sim.processed == 1


@pytest.mark.parametrize("until", [float("inf"), float("-inf")])
def test_non_finite_deadline_rejected(until):
    """``run(until=inf)`` used to run the queue dry and leave ``now`` at
    inf for good."""
    sim = Simulator()
    sim.timeout(10.0)
    with pytest.raises(ValueError, match=str(until)):
        sim.run(until=until)
    assert sim.now == 0.0 and sim.processed == 0
    sim.run(until=20.0)
    assert sim.now == 20.0 and sim.processed == 1


def test_event_succeed_value():
    sim = Simulator()
    ev = sim.event()
    assert not ev.triggered
    ev.succeed(99)
    assert ev.triggered
    assert ev.ok
    assert ev.value == 99


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(ValueError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value
    with pytest.raises(RuntimeError):
        _ = ev.ok


def test_failed_event_with_no_waiter_propagates():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("unhandled failure"))
    with pytest.raises(ValueError, match="unhandled failure"):
        sim.run()


def test_failed_event_defused_does_not_propagate():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("handled"))
    ev.defuse()
    sim.run()  # no raise


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_anyof_fires_on_first():
    sim = Simulator()
    a, b = sim.timeout(10.0, "a"), sim.timeout(20.0, "b")
    done = {}

    def proc():
        result = yield AnyOf(sim, [a, b])
        done.update(result)

    sim.process(proc())
    sim.run()
    assert list(done.values()) == ["a"]


def test_allof_waits_for_all():
    sim = Simulator()
    a, b = sim.timeout(10.0, "a"), sim.timeout(20.0, "b")
    times = []

    def proc():
        result = yield AllOf(sim, [a, b])
        times.append(sim.now)
        assert set(result.values()) == {"a", "b"}

    sim.process(proc())
    sim.run()
    assert times == [20.0]


def test_empty_condition_triggers_immediately():
    sim = Simulator()
    cond = AllOf(sim, [])
    assert cond.triggered
    assert cond.value == {}


def test_peek_skips_cancelled_handles():
    sim = Simulator()
    h = sim.call_later(1.0, lambda: None)
    sim.call_later(5.0, lambda: None)
    h.cancel()
    assert sim.peek() == 5.0


def test_peek_empty_queue_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_determinism_two_identical_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(name, delay):
            for i in range(3):
                yield sim.timeout(delay)
                log.append((sim.now, name, i))

        for n, d in [("a", 3.0), ("b", 5.0), ("c", 3.0)]:
            sim.process(worker(n, d))
        sim.run()
        return log

    assert build() == build()


def test_lazy_cancel_churn_keeps_heap_compact():
    """call_later().cancel() churn must not grow the heap without bound.

    Cancellation is lazy (the entry is skipped at pop time), so the
    engine compacts the heap once cancelled entries dominate it -- the
    asyncio approach.  Without compaction this loop would leave ~10_000
    dead entries in the queue.
    """
    sim = Simulator()
    fired = []
    sim.call_later(50_000.0, lambda: fired.append(True))
    peak = 0
    for _ in range(10_000):
        sim.call_later(1_000.0, lambda: None).cancel()
        peak = max(peak, len(sim._keys))
    assert peak < 300  # bounded by the >50%-cancelled compaction trigger
    assert len(sim._keys) < 300
    sim.run()
    assert fired == [True]  # the live handle survived every compaction
    assert sim.now == 50_000.0


# The four tests below keep the names they had when the engine routed
# far-future arms on a deep queue to a separate lane.  That lane is gone;
# every delayed arm now goes through one push into one sorted queue,
# and these pin the same ordering scenarios against it.

def _seed_deep_queue(sim, n=128):
    """Arm ``n`` no-op timers at t=1..n so the queue is deep."""
    for i in range(n):
        sim.call_later(1.0 + i, lambda: None)


def test_far_lane_absorbs_far_future_arms():
    """Watchdog-style arms at a deep queue's max time fire in order."""
    sim = Simulator()
    fired = []
    _seed_deep_queue(sim)
    sim.call_later(1.5, fired.append, "near")
    sim.call_later(1_000.0, fired.append, "far-a")
    sim.call_later(2_000.0, fired.append, "far-b")
    assert len(sim._keys) == 128 + 3  # one queue holds every arm
    sim.run()
    assert fired == ["near", "far-a", "far-b"]
    assert not sim._keys


def test_far_lane_splice_keeps_global_order():
    """An arm made after the seed arms drain still beats earlier-made
    arms with later times."""
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(200.0)  # outlives every seed arm
        # Only t=500/900 are queued now; a new near-term arm must
        # still beat both.
        sim.call_later(10.0, log.append, "near-late")

    _seed_deep_queue(sim)
    sim.call_later(500.0, log.append, "far-early")
    sim.call_later(900.0, log.append, "far-late")
    sim.process(proc())
    sim.run()
    assert log == ["near-late", "far-early", "far-late"]


def test_far_lane_out_of_order_arm_inserts_sorted():
    sim = Simulator()
    log = []
    _seed_deep_queue(sim)
    sim.call_later(1.5, log.append, "near")
    sim.call_later(3_000.0, log.append, "c")
    sim.call_later(1_000.0, log.append, "a")  # armed after a later time
    sim.call_later(2_000.0, log.append, "b")
    assert len(sim._keys) == 128 + 4
    sim.run()
    assert log == ["near", "a", "b", "c"]


def test_shallow_queue_skips_far_lane_and_stays_ordered():
    """Out-of-order arms on a shallow queue fire in time order."""
    sim = Simulator()
    log = []
    sim.call_later(1.0, log.append, "near")
    sim.call_later(2_000.0, log.append, "far-b")
    sim.call_later(1_000.0, log.append, "far-a")
    assert len(sim._keys) == 3
    sim.run()
    assert log == ["near", "far-a", "far-b"]


def test_compaction_preserves_order_among_survivors():
    # Two inputs: distinct times, and one shared time, where the only
    # record of the arm order is each entry's slot in the queue.
    for time_of in (lambda i: float(1 + i), lambda i: 7.0):
        sim = Simulator()
        order = []
        handles = []
        for i in range(400):
            if i % 4 == 0:
                sim.call_later(time_of(i), lambda i=i: order.append(i))
            else:
                handles.append(sim.call_later(time_of(i), lambda: None))
        for handle in handles:
            handle.cancel()  # 300 of 400 cancelled -> compaction has run
        assert len(sim._keys) < 400
        sim.run()
        assert order == [i for i in range(400) if i % 4 == 0]


def test_three_lane_merge_orders_by_priority_then_seq():
    """Urgent lane, normal lane and the delayed queue merge under
    ``(time, priority, seq)`` order.

    At one instant a zero-delay urgent occurrence (a start or an
    interrupt) runs before every normal one, however late it was made,
    and normal occurrences run in the order they were armed: a delayed
    entry landing now was armed before anything made at this instant.
    """
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1_000.0)
        except Interrupt:
            log.append("interrupt-20")

    def at_ten():
        # A zero-delay normal occurrence (the normal lane) ...
        lane_normal = sim.event()
        lane_normal.callbacks.append(lambda _e: log.append("lane-normal"))
        lane_normal.succeed()
        # ... then an urgent one, made *after* it: it still runs first.
        sim.start(lambda _e: log.append("lane-urgent"))
        # Two delayed normals landing together at t=20; the first makes
        # urgent occurrences there, which run before the second.
        sim.call_later(10.0, at_twenty)
        sim.timeout(10.0).callbacks.append(
            lambda _e: log.append("delayed-normal-20"))

    def at_twenty():
        log.append("at-twenty")
        sim.start(lambda _e: log.append("start-20"))
        sleeping.interrupt()

    sleeping = sim.process(sleeper())
    sim.call_later(10.0, at_ten)
    # A delayed normal occurrence due at t=10 too, armed before anything
    # at_ten makes.
    sim.call_later(10.0, log.append, "delayed-normal")
    sim.run()
    assert log == [
        "lane-urgent",     # urgent beats both normals at t=10
        "delayed-normal",  # armed before the lane entry
        "lane-normal",
        "at-twenty",
        "start-20",        # urgent beats the earlier-armed normal at t=20
        "interrupt-20",
        "delayed-normal-20",
    ]


def test_zero_delay_call_later_uses_immediate_lane():
    sim = Simulator()
    fired = []
    sim.call_later(0.0, fired.append, "x")
    assert not sim._keys  # no heap traffic for a zero-delay callback
    assert sim._imm_normal
    sim.run()
    assert fired == ["x"]
    assert sim.now == 0.0


def test_zero_delay_call_later_interleaves_with_events_in_seq_order():
    sim = Simulator()
    log = []
    first = sim.event()
    first.callbacks.append(lambda _e: log.append("event"))
    first.succeed()
    sim.call_later(0.0, log.append, "handle")
    second = sim.event()
    second.callbacks.append(lambda _e: log.append("event-2"))
    second.succeed()
    sim.run()
    assert log == ["event", "handle", "event-2"]


def test_zero_delay_call_later_cancelled_is_skipped():
    sim = Simulator()
    fired = []
    doomed = sim.call_later(0.0, fired.append, 1)
    sim.call_later(0.0, fired.append, 2)
    doomed.cancel()
    sim.run()
    assert fired == [2]
    assert sim._cancelled == 0  # the skipped pop decremented the count


def test_peek_skips_cancelled_zero_delay_handles():
    sim = Simulator()
    doomed = sim.call_later(0.0, lambda: None)
    sim.call_later(5.0, lambda: None)
    doomed.cancel()
    assert sim.peek() == 5.0


def test_compaction_purges_cancelled_lane_handles_and_recounts():
    sim = Simulator()
    doomed = [sim.call_later(0.0, lambda: None) for _ in range(5)]
    survivor = []
    sim.call_later(0.0, survivor.append, True)
    for handle in doomed:
        handle.cancel()
    sim._compact()
    assert sim._cancelled == 0
    assert len(sim._imm_normal) == 1
    sim.run()
    assert survivor == [True]
