"""Tests for the development tools: cdb, oscilloscope, prof, vdb."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import VorxSystem
from repro.sim.trace import Category
from repro.tools import Cdb, Prof, SoftwareOscilloscope, Vdb


# ------------------------------------------------------------------- cdb
def build_deadlock():
    """Two processes each reading the channel the other should write."""
    system = VorxSystem(n_nodes=2)

    def a(env):
        ab = yield from env.open("a-to-b")
        ba = yield from env.open("b-to-a")
        # Reads first -- but so does b: classic deadlock.
        yield from env.read(ba)
        yield from env.write(ab, 64)

    def b(env):
        ab = yield from env.open("a-to-b")
        ba = yield from env.open("b-to-a")
        yield from env.read(ab)
        yield from env.write(ba, 64)

    sa = system.spawn(0, a, name="procA")
    sb = system.spawn(1, b, name="procB")
    system.run()
    return system, sa, sb


def test_cdb_reports_blocked_channel_states():
    system, sa, sb = build_deadlock()
    assert sa.process.is_alive and sb.process.is_alive  # truly stuck
    cdb = Cdb(system)
    rows = cdb.channels(blocked_only=True)
    assert len(rows) == 2
    assert all(row.state == "blocked-reading" for row in rows)
    names = {row.name for row in rows}
    assert names == {"a-to-b", "b-to-a"}


def test_cdb_finds_deadlock_cycle():
    system, sa, sb = build_deadlock()
    cdb = Cdb(system)
    cycles = cdb.find_deadlocks()
    assert len(cycles) == 1
    assert set(cycles[0]) == {sa.uid, sb.uid}
    report = cdb.report_deadlocks()
    assert "deadlock" in report
    assert sa.uid in report


def test_cdb_deadlock_cycle_starts_at_smallest_subprocess():
    # networkx picks each cycle's first node in hash-seed-dependent set
    # order; cdb rotates it so reports match across interpreters.
    system, sa, sb = build_deadlock()
    (cycle,) = Cdb(system).find_deadlocks()
    assert cycle == sorted([sa.uid, sb.uid])


def test_import_repro_does_not_load_networkx():
    """Only cdb's deadlock search uses networkx; it imports it lazily."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, repro; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "False"


def test_cdb_no_deadlock_on_healthy_app():
    system = VorxSystem(n_nodes=2)

    def sender(env):
        ch = yield from env.open("fine")
        yield from env.write(ch, 10)

    def receiver(env):
        ch = yield from env.open("fine")
        yield from env.read(ch)

    system.spawn(0, sender)
    system.spawn(1, receiver)
    system.run()
    cdb = Cdb(system)
    assert cdb.find_deadlocks() == []
    assert cdb.report_deadlocks() == ""


def test_cdb_message_counters_and_filters():
    system = VorxSystem(n_nodes=2)

    def sender(env):
        ch = yield from env.open("counted")
        for _ in range(7):
            yield from env.write(ch, 32)

    def receiver(env):
        ch = yield from env.open("counted")
        for _ in range(7):
            yield from env.read(ch)

    system.spawn(0, sender)
    system.spawn(1, receiver)
    system.run()
    cdb = Cdb(system)
    rows = cdb.channels(name="counted")
    assert len(rows) == 2
    by_sent = {row.sent: row for row in rows}
    assert by_sent[7].received == 0
    assert by_sent[0].received == 7
    table = cdb.format(rows)
    assert "counted" in table and "CHANNEL" in table


# ----------------------------------------------------------- oscilloscope
def test_oscilloscope_categories_on_imbalanced_app():
    system = VorxSystem(n_nodes=2)

    def busy(env):
        ch = yield from env.open("work")
        yield from env.compute(100_000.0)
        yield from env.write(ch, 64)

    def idle(env):
        ch = yield from env.open("work")
        yield from env.read(ch)  # waits for input nearly the whole time

    system.spawn(0, busy)
    system.spawn(1, idle)
    scope = SoftwareOscilloscope.for_system(system)
    system.run()
    view = scope.capture()
    assert view.utilisation("node0") > 0.8
    assert view.utilisation("node1") < 0.2
    b1 = view.breakdown["node1"]
    assert b1[Category.IDLE_INPUT] > 0.8 * view.window
    assert view.load_imbalance() > 1.5


def test_oscilloscope_windows_are_synchronized():
    system = VorxSystem(n_nodes=3)

    def worker(env):
        yield from env.compute(5_000.0)

    for i in range(3):
        system.spawn(i, worker)
    scope = SoftwareOscilloscope.for_system(system)
    system.run()
    view = scope.capture(t0=1_000.0, t1=4_000.0, bins=10)
    assert view.t0 == 1_000.0 and view.t1 == 4_000.0
    for name, breakdown in view.breakdown.items():
        assert sum(breakdown.values()) == pytest.approx(view.window)
        assert len(view.strips[name]) == 10


def test_oscilloscope_render_is_readable():
    system = VorxSystem(n_nodes=2)

    def worker(env):
        yield from env.compute(1_000.0)

    system.spawn(0, worker)
    system.spawn(1, worker)
    scope = SoftwareOscilloscope.for_system(system)
    system.run()
    text = scope.render()
    assert "node0" in text and "node1" in text
    assert "%USER" in text


def test_oscilloscope_rejects_empty_window():
    system = VorxSystem(n_nodes=1)
    scope = SoftwareOscilloscope.for_system(system)
    with pytest.raises(ValueError):
        scope.capture(t0=10.0, t1=10.0)


# ------------------------------------------------------------------- prof
def test_prof_finds_the_hotspot():
    system = VorxSystem(n_nodes=1)

    def app(env):
        yield from env.compute(1_000.0, label="setup")
        for _ in range(10):
            yield from env.compute(5_000.0, label="inner-loop")
        yield from env.compute(500.0, label="teardown")

    system.spawn(0, app, process_name="myapp")
    system.run()
    prof = Prof(system.nodes)
    hot = prof.hotspot("myapp")
    assert hot is not None
    assert hot.label == "inner-loop"
    assert hot.percent > 90.0
    report = prof.format("myapp")
    assert "inner-loop" in report


def test_prof_percentages_sum_to_100():
    system = VorxSystem(n_nodes=1)

    def app(env):
        yield from env.compute(100.0, label="a")
        yield from env.compute(300.0, label="b")

    system.spawn(0, app)
    system.run()
    lines = Prof(system.nodes).report()
    assert sum(line.percent for line in lines) == pytest.approx(100.0)
    assert lines[-1].cumulative_percent == pytest.approx(100.0)


# ------------------------------------------------------------------- vdb
def test_vdb_attach_and_backtrace_of_blocked_process():
    system, sa, sb = build_deadlock()
    vdb = Vdb(system)
    info = vdb.attach(sa.uid)
    assert info.state == "blocked"
    assert info.blocked_on == "input"
    # The backtrace walks through env.read down to the kernel block.
    assert any("read" in frame for frame in info.backtrace)
    text = info.format()
    assert sa.uid in text and "backtrace" in text


def test_vdb_switch_between_processes():
    system, sa, sb = build_deadlock()
    vdb = Vdb(system)
    vdb.attach(sa.uid)
    info_b = vdb.switch(sb.uid)
    assert vdb.current is sb
    assert info_b.uid == sb.uid


def test_vdb_lists_all_processes():
    system = VorxSystem(n_nodes=3)

    def app(env):
        yield from env.compute(10.0)

    for i in range(3):
        system.spawn(i, app)
    system.run()
    vdb = Vdb(system)
    assert len(vdb.processes()) == 3
    info = vdb.inspect(vdb.processes()[0])
    assert info.state == "done"
    assert info.backtrace == ("<not running>",)


def test_vdb_names_a_cpu_charge_wait_job():
    """A subprocess in the middle of a CPU charge waits on the charge's
    Job, which is its completion event."""
    system = VorxSystem(n_nodes=1)

    def cruncher(env):
        yield from env.compute(1_000_000.0)

    sp = system.spawn(0, cruncher)
    system.run(until=500_000.0)
    info = Vdb(system).inspect(sp)
    assert info.state == "running"
    assert info.waiting_for == "Job"
    assert "  waiting:  Job" in info.format().splitlines()
    assert any("compute" in frame for frame in info.backtrace)


def test_vdb_unknown_process():
    system = VorxSystem(n_nodes=1)
    with pytest.raises(KeyError):
        Vdb(system).attach("nonexistent")
