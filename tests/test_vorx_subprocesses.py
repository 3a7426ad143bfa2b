"""Unit tests for subprocesses, kernel semaphores, and scheduling
(Section 5)."""

import pytest

from repro import VorxSystem
from repro.vorx.subprocesses import (
    BlockReason,
    KernelSemaphore,
    Subprocess,
    SubprocessState,
)


def test_subprocess_lifecycle_states():
    system = VorxSystem(n_nodes=1)
    seen = []

    def program(env):
        seen.append(env.subprocess.state)
        yield from env.sleep(10.0)
        return 42

    sp = system.spawn(0, program)
    assert sp.state is SubprocessState.READY
    system.run()
    assert seen == [SubprocessState.RUNNING]
    assert sp.state is SubprocessState.DONE
    assert sp.result == 42
    assert not sp.is_live


def test_subprocess_failure_state():
    system = VorxSystem(n_nodes=1)

    def crasher(env):
        yield from env.compute(1.0)
        raise RuntimeError("app bug")

    sp = system.spawn(0, crasher)
    with pytest.raises(RuntimeError, match="app bug"):
        system.run()
    assert sp.state is SubprocessState.FAILED


@pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
def test_bad_compute_time_leaves_no_prof_sample(duration):
    system = VorxSystem(n_nodes=1)

    def program(env):
        yield from env.compute(duration, label="bad")

    system.spawn(0, program)
    with pytest.raises(ValueError, match="finite and non-negative"):
        system.run()
    assert system.node(0).prof_samples == {}


def test_priority_validation():
    system = VorxSystem(n_nodes=1)
    with pytest.raises(ValueError):
        Subprocess(system.node(0), "bad", priority=-1)


def test_three_subprocess_structure_with_semaphores():
    """The paper's canonical structure: input, compute, output."""
    system = VorxSystem(n_nodes=1)
    log = []

    def driver(env):
        in_ready = env.semaphore(0, name="in")
        out_ready = env.semaphore(0, name="out")

        def input_sp(env2):
            for i in range(3):
                yield from env2.compute(10.0)
                log.append(("in", i))
                yield from env2.v(in_ready)

        def compute_sp(env2):
            for i in range(3):
                yield from env2.p(in_ready)
                yield from env2.compute(50.0)
                log.append(("compute", i))
                yield from env2.v(out_ready)

        def output_sp(env2):
            for i in range(3):
                yield from env2.p(out_ready)
                yield from env2.compute(10.0)
                log.append(("out", i))

        sps = [env.spawn(input_sp, name="in"),
               env.spawn(compute_sp, name="mid"),
               env.spawn(output_sp, name="out")]
        for sp in sps:
            yield from env.join(sp)
        return "done"

    sp = system.spawn(0, driver)
    system.run()
    assert sp.result == "done"
    # Pipeline ordering per item: in -> compute -> out.
    for i in range(3):
        assert log.index(("in", i)) < log.index(("compute", i)) \
            < log.index(("out", i))


def test_semaphore_v_from_value_and_waiter_paths():
    system = VorxSystem(n_nodes=1)

    def program(env):
        sem = env.semaphore(0)
        yield from env.v(sem)  # no waiter: value increments
        assert sem.value == 1
        yield from env.p(sem)  # immediate
        assert sem.value == 0
        return "ok"

    sp = system.spawn(0, program)
    system.run()
    assert sp.result == "ok"


def test_semaphore_initial_value_and_validation():
    system = VorxSystem(n_nodes=1)
    kernel = system.node(0)
    sem = KernelSemaphore(kernel, value=3)
    assert sem.try_p() and sem.try_p() and sem.try_p()
    assert not sem.try_p()
    with pytest.raises(ValueError):
        KernelSemaphore(kernel, value=-1)


def test_semaphore_blocks_and_wakes_in_order():
    system = VorxSystem(n_nodes=1)
    order = []

    def driver(env):
        sem = env.semaphore(0)

        def waiter(env2, name):
            yield from env2.p(sem)
            order.append(name)

        sps = [env.spawn(lambda env2, n=n: waiter(env2, n), name=f"w{n}")
               for n in range(3)]
        yield from env.sleep(1_000.0)
        for _ in range(3):
            yield from env.v(sem)
        for sp in sps:
            yield from env.join(sp)

    system.spawn(0, driver)
    system.run()
    assert order == [0, 1, 2]


def test_join_finished_subprocess_returns_immediately():
    system = VorxSystem(n_nodes=1)

    def driver(env):
        def quick(env2):
            yield from env2.compute(1.0)
            return "quick-result"

        sp = env.spawn(quick)
        yield from env.sleep(10_000.0)  # let it finish first
        value = yield from env.join(sp)
        return value

    sp = system.spawn(0, driver)
    system.run()
    assert sp.result == "quick-result"


def test_context_switches_counted_per_block():
    system = VorxSystem(n_nodes=1)

    def sleeper(env):
        for _ in range(5):
            yield from env.sleep(100.0)

    system.spawn(0, sleeper)
    system.run()
    kernel = system.node(0)
    # 1 initial dispatch + 5 block/wake cycles.
    assert kernel.context_switches == 6


def test_blocked_subprocess_reports_reason():
    system = VorxSystem(n_nodes=2)

    def reader(env):
        ch = yield from env.open("never")
        yield from env.read(ch)

    sp = system.spawn(0, reader)
    system.run()
    assert sp.state is SubprocessState.BLOCKED
    assert sp.blocked_on is BlockReason.INPUT
