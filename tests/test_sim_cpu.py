"""Unit tests for the preemptive priority CPU and its timeline recording."""

import pytest

from repro.sim import Simulator, CPU, Category
from repro.sim.engine import Handle
from repro.sim.cpu import PRIORITY_ISR, PRIORITY_KERNEL, PRIORITY_USER, Job


def test_single_charge_takes_duration():
    sim = Simulator()
    cpu = CPU(sim)
    done = cpu.execute(50.0)
    sim.run(until=done)
    assert sim.now == 50.0


def test_zero_duration_completes_immediately():
    sim = Simulator()
    cpu = CPU(sim)
    done = cpu.execute(0.0)
    assert done.triggered


def test_negative_duration_rejected():
    sim = Simulator()
    cpu = CPU(sim)
    with pytest.raises(ValueError):
        cpu.execute(-1.0)


@pytest.mark.parametrize("duration", [float("nan"), float("inf"),
                                      float("-inf")])
def test_non_finite_duration_rejected(duration):
    """A NaN charge would queue its end handle at NaN and run the clock
    backwards; an infinite one would never end."""
    sim = Simulator()
    cpu = CPU(sim)
    cpu.execute(5.0)
    with pytest.raises(ValueError, match=str(duration)):
        cpu.execute(duration)
    sim.run()
    assert sim.now == 5.0
    assert not cpu.busy and cpu.queue_length == 0


def test_charges_serialize():
    sim = Simulator()
    cpu = CPU(sim)
    ends = []

    def proc(duration):
        yield cpu.execute(duration)
        ends.append(sim.now)

    sim.process(proc(10.0))
    sim.process(proc(20.0))
    sim.run()
    assert ends == [10.0, 30.0]


def test_same_priority_is_fifo():
    sim = Simulator()
    cpu = CPU(sim)
    order = []

    def proc(name):
        yield cpu.execute(5.0)
        order.append(name)

    for name in "abc":
        sim.process(proc(name))
    sim.run()
    assert order == ["a", "b", "c"]


def test_higher_priority_preempts():
    sim = Simulator()
    cpu = CPU(sim)
    log = []

    def low():
        yield cpu.execute(100.0, priority=PRIORITY_USER)
        log.append(("low-done", sim.now))

    def high():
        yield sim.timeout(10.0)
        yield cpu.execute(20.0, priority=PRIORITY_ISR)
        log.append(("high-done", sim.now))

    sim.process(low())
    sim.process(high())
    sim.run()
    # High runs 10..30; low resumes with 90 remaining, finishes at 120.
    assert log == [("high-done", 30.0), ("low-done", 120.0)]


def test_non_preemptible_job_blocks_higher_priority():
    sim = Simulator()
    cpu = CPU(sim)
    log = []

    def isr_like():
        yield cpu.execute(50.0, priority=PRIORITY_KERNEL, preemptible=False)
        log.append(("kernel-done", sim.now))

    def intr():
        yield sim.timeout(10.0)
        yield cpu.execute(5.0, priority=PRIORITY_ISR)
        log.append(("isr-done", sim.now))

    sim.process(isr_like())
    sim.process(intr())
    sim.run()
    assert log == [("kernel-done", 50.0), ("isr-done", 55.0)]


def test_timeline_records_categories():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.timeline.arm(0.0)

    def proc():
        yield cpu.execute(30.0, category=Category.USER, owner="app")
        yield cpu.execute(10.0, category=Category.SYSTEM)

    sim.process(proc())
    sim.run()
    assert cpu.timeline.busy_time(Category.USER) == 30.0
    assert cpu.timeline.busy_time(Category.SYSTEM) == 10.0
    assert cpu.timeline.busy_time() == 40.0


def test_preemption_splits_timeline_segments():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.timeline.arm(0.0)

    def low():
        yield cpu.execute(100.0, priority=PRIORITY_USER, owner="low")

    def high():
        yield sim.timeout(40.0)
        yield cpu.execute(10.0, priority=PRIORITY_ISR, owner=None,
                          category=Category.SYSTEM)

    sim.process(low())
    sim.process(high())
    sim.run()
    segments = cpu.timeline.segments
    assert [(s.start, s.end) for s in segments] == [
        (0.0, 40.0),
        (40.0, 50.0),
        (50.0, 110.0),
    ]
    assert cpu.timeline.busy_time(Category.USER) == 100.0


def test_busy_sums_kept_without_a_timeline():
    sim = Simulator()
    cpu = CPU(sim)

    def low():
        yield cpu.execute(100.0, priority=PRIORITY_USER, owner="low")

    def high():
        yield sim.timeout(40.0)
        yield cpu.execute(10.0, priority=PRIORITY_ISR,
                          category=Category.SYSTEM)

    sim.process(low())
    sim.process(high())
    sim.run()
    # The preempted charge counts its 40 us of partial progress.
    assert (cpu.user_us, cpu.system_us) == (100.0, 10.0)
    assert cpu.timeline.segments == ()


def _kernel_chain(queued_user):
    """Three same-instant kernel charges (10, 5, 5 us), optionally with a
    100 us user charge queued behind the first.  Returns the chain's and
    the user charge's end times and how many occurrences ran from the
    moment the user charge was queued."""
    sim = Simulator()
    cpu = CPU(sim)
    ends = []

    def chain():
        for duration in (10.0, 5.0, 5.0):
            yield cpu.execute(duration, priority=PRIORITY_KERNEL,
                              category=Category.SYSTEM)
            ends.append(sim.now)

    sim.process(chain())
    sim.step()  # the chain starts and charges its first step
    processed = sim.processed
    user = cpu.execute(100.0) if queued_user else None
    sim.run()
    user_end = sim.now if user is not None and user.processed else None
    return ends, user_end, sim.processed - processed


def test_kernel_chain_keeps_cpu_from_queued_user_job(monkeypatch):
    """Each step of a kernel path issues its next charge from the
    completed charge's waiter: the queued user job is neither started
    nor preempted in between, so no completion handle is cancelled and
    the user charge adds only its own two occurrences (its end handle
    and its completion event) to ``sim.processed``."""
    cancelled = []
    cancel = Handle.cancel

    def counting_cancel(handle):
        cancelled.append(handle)
        cancel(handle)

    monkeypatch.setattr(Handle, "cancel", counting_cancel)
    alone_ends, _, alone_ran = _kernel_chain(False)
    ends, user_end, ran = _kernel_chain(True)
    assert ends == alone_ends == [10.0, 15.0, 20.0]
    assert user_end == 120.0
    assert cancelled == []
    assert ran == alone_ran + 2


def test_preempting_run_arms_no_fresh_handle(monkeypatch):
    """A charge is one object: ``execute`` returns the Job, the CPU's
    standing end handle is queued per dispatch and unqueued per
    preemption, so nothing goes through ``call_later`` and no cancelled
    entry is left for lazy skipping."""
    arms = []
    call_later = Simulator.call_later

    def counting_call_later(sim, *args):
        arms.append(args)
        return call_later(sim, *args)

    monkeypatch.setattr(Simulator, "call_later", counting_call_later)
    sim = Simulator()
    cpu = CPU(sim)
    charges = []

    def low():
        charge = cpu.execute(100.0, priority=PRIORITY_USER)
        charges.append(charge)
        yield charge

    def high():
        for _ in range(3):
            yield sim.timeout(10.0)
            charge = cpu.execute(5.0, priority=PRIORITY_ISR,
                                 category=Category.SYSTEM)
            charges.append(charge)
            yield charge

    sim.process(low())
    sim.process(high())
    sim.run()
    assert [type(charge) for charge in charges] == [Job] * 4
    assert all(charge.processed and charge.ok for charge in charges)
    # Three preemptions: low ends at 100 + 3 * 5.
    assert (cpu.user_us, cpu.system_us, sim.now) == (100.0, 15.0, 115.0)
    assert arms == []
    assert sim._cancelled == 0
    assert not sim._keys and not sim._items


def test_dispatched_job_end_ties_after_waiter_timeout():
    """The tie the dispatch rule orders differently.  The queued kernel
    job starts at t=1 after the ISR's waiter has armed its 1 us timeout,
    so at t=2 the timeout (armed first) fires before the kernel job's
    end handle.  The second ISR charge finds the kernel job with nothing
    left to run: it completes at t=2, as on a CPU that dispatched it
    before the waiter ran, instead of waiting out the ISR charge."""
    sim = Simulator()
    cpu = CPU(sim)
    ends = {}

    def isr():
        for step in (1, 2):
            yield cpu.execute(1.0, priority=PRIORITY_ISR,
                              category=Category.SYSTEM, preemptible=False)
            ends[f"isr{step}"] = sim.now
            if step == 1:
                yield sim.timeout(1.0)

    def kernel():
        yield cpu.execute(1.0, priority=PRIORITY_KERNEL,
                          category=Category.SYSTEM)
        ends["kernel"] = sim.now

    sim.process(isr())
    sim.process(kernel())
    sim.run()
    assert ends == {"isr1": 1.0, "isr2": 3.0, "kernel": 2.0}
    assert cpu.system_us == 3.0


def test_queue_length_and_busy():
    sim = Simulator()
    cpu = CPU(sim)
    assert not cpu.busy
    cpu.execute(10.0, owner="x")
    cpu.execute(10.0, owner="y")
    assert cpu.busy
    assert cpu.queue_length == 1
    assert cpu.current_owner == "x"
    sim.run()
    assert not cpu.busy


def test_idle_reason_marks():
    sim = Simulator()
    cpu = CPU(sim)
    cpu.timeline.arm(0.0)

    def proc():
        yield cpu.execute(10.0)
        cpu.set_idle_reason(Category.IDLE_INPUT)
        yield sim.timeout(30.0)
        yield cpu.execute(10.0)

    p = sim.process(proc())
    sim.run(until=p)
    breakdown = cpu.timeline.breakdown(0.0, 50.0)
    assert breakdown[Category.USER] == 20.0
    assert breakdown[Category.IDLE_INPUT] == 30.0
    assert sum(breakdown.values()) == pytest.approx(50.0)
