"""Tests for zero-overhead-when-idle tracing.

The tentpole claim: with the structured trace stream disabled,
``TraceStream.emit`` call sites cost one attribute load and a branch --
no ``TraceEvent``, no list append, no tally update, no allocations in
the stream layer.  The ring-buffer mode bounds memory for long runs
that still want a recent-history window.
"""

import tracemalloc

import pytest

from repro.metrics.events import TraceStream, Vstat
from repro.sim.trace import Timeline, TraceLog, Category
from repro.tools import SoftwareOscilloscope
from repro.vorx.system import VorxSystem
from tests.test_determinism import fingerprint


# ---------------------------------------------------------------------------
# enable/disable gate
# ---------------------------------------------------------------------------
def test_disabled_stream_records_nothing():
    stream = TraceStream()
    stream.emit(1.0, node="a", subsystem="s", name="kept")
    stream.disable()
    assert stream.emit(2.0, node="a", subsystem="s", name="lost") is None
    stream.enable()
    stream.emit(3.0, node="a", subsystem="s", name="kept")
    assert len(stream) == 2
    assert stream.count("kept") == 2
    assert stream.count("lost") == 0


def test_vstat_emit_respects_gate():
    vstat = Vstat()
    vstat.events.disable()
    assert vstat.emit(0.0, node="n", subsystem="s", name="x") is None
    assert len(vstat.events) == 0


def test_tracelog_log_respects_gate():
    log = TraceLog()
    log.stream.disable()
    log.log(1.0, "tag", data=123)
    assert log.entries == []
    log.stream.enable()
    log.log(2.0, "tag", data=456)
    assert log.entries == [(2.0, "tag", 456)]


def test_disabled_emit_allocates_nothing_in_stream_layer():
    """tracemalloc, filtered to the stream module, sees zero allocations."""
    stream = TraceStream()
    stream.disable()
    emit = stream.emit  # bound-method fast path used by hot call sites
    emit(0.0, node="n", subsystem="s", name="warm", index=-1)  # warm-up
    events_py = TraceStream.emit.__code__.co_filename
    filters = [tracemalloc.Filter(True, events_py)]
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(filters)
        for i in range(2_000):
            emit(float(i), node="n", subsystem="s", name="e", index=i)
        after = tracemalloc.take_snapshot().filter_traces(filters)
    finally:
        tracemalloc.stop()
    grown = [
        stat for stat in after.compare_to(before, "lineno")
        if stat.size_diff > 0
    ]
    assert grown == [], f"disabled emit allocated: {grown}"
    assert len(stream) == 0


def test_kernel_emit_call_site_is_gated():
    """A whole system runs without touching the stream once disabled."""
    system = VorxSystem(n_nodes=2)
    system.sim.vstat.events.disable()

    def client(env):
        with (yield from env.channel("gate")) as ch:
            yield from env.write(ch, 4, payload=1)

    def server(env):
        with (yield from env.channel("gate")) as ch:
            yield from env.read(ch)

    system.spawn(0, client)
    system.spawn(1, server)
    system.run()
    # channel-open/close events would normally be recorded.
    assert len(system.sim.vstat.events) == 0
    # Counters stay always-on regardless of the trace gate.
    kernel = system.nodes[0]
    assert kernel.metrics.value("kernel.syscalls") > 0


# ---------------------------------------------------------------------------
# ring-buffer mode
# ---------------------------------------------------------------------------
def test_ring_buffer_keeps_last_n():
    stream = TraceStream(capacity=4)
    for i in range(10):
        stream.emit(float(i), name=f"e{i}")
    assert [e.name for e in stream.events] == ["e6", "e7", "e8", "e9"]
    assert stream.dropped == 6
    assert stream.count("e0") == 1  # tallies still count everything


def test_set_capacity_switches_modes():
    stream = TraceStream()
    for i in range(5):
        stream.emit(float(i), name=f"e{i}")
    stream.set_capacity(3)
    assert [e.name for e in stream.events] == ["e2", "e3", "e4"]
    assert stream.dropped == 2
    stream.emit(5.0, name="e5")
    assert [e.name for e in stream.events] == ["e3", "e4", "e5"]
    stream.set_capacity(None)
    for i in range(6, 12):
        stream.emit(float(i), name=f"e{i}")
    assert len(stream) == 9  # unbounded again


# ---------------------------------------------------------------------------
# oscilloscope timeline gate
# ---------------------------------------------------------------------------
def test_timeline_gate_skips_recording():
    timeline = Timeline("cpu")  # unarmed until a scope arms it
    timeline.record(0.0, 5.0, Category.USER)
    timeline.mark_idle_reason(1.0, Category.IDLE_INPUT)
    assert timeline.segments == ()
    assert timeline.idle_reason_at(2.0) is Category.IDLE_OTHER
    with pytest.raises(ValueError, match="before run"):
        timeline.busy_time()
    timeline.arm(5.0)
    timeline.record(5.0, 6.0, Category.SYSTEM)
    assert len(timeline.segments) == 1


def _channel_workload(armed: bool) -> VorxSystem:
    """Two producer/consumer channel pairs, optionally under a scope."""
    system = VorxSystem(n_nodes=4)
    if armed:
        SoftwareOscilloscope.for_system(system)

    def producer(env, pair):
        with (yield from env.channel(f"zc{pair}")) as ch:
            for i in range(6):
                yield from env.compute(300.0 * (pair + 1))
                yield from env.write(ch, 512, payload=i)

    def consumer(env, pair):
        with (yield from env.channel(f"zc{pair}")) as ch:
            for _ in range(6):
                yield from env.read(ch)
                yield from env.compute(100.0)

    for pair in range(2):
        system.spawn(2 * pair, lambda env, pair=pair: producer(env, pair))
        system.spawn(2 * pair + 1, lambda env, pair=pair: consumer(env, pair))
    system.run()
    return system


def test_oscilloscope_costs_nothing_when_off_and_changes_nothing_when_on():
    plain = _channel_workload(armed=False)
    scoped = _channel_workload(armed=True)
    for kernel in plain.nodes:
        timeline = kernel.cpu.timeline
        assert timeline.segments == ()
        assert timeline._idle_marks == [(0.0, Category.IDLE_OTHER)]
    # Arming observes the run without changing it.
    assert fingerprint(plain.sim) == fingerprint(scoped.sim)
    assert plain.sim.processed == scoped.sim.processed
    # The always-on sums equal what the armed timeline recorded.
    for bare, kernel in zip(plain.nodes, scoped.nodes):
        timeline = kernel.cpu.timeline
        assert timeline.segments
        assert bare.cpu.user_us == timeline.busy_time(Category.USER)
        assert bare.cpu.system_us == timeline.busy_time(Category.SYSTEM)
        assert bare.cpu.user_us > 0.0 and bare.cpu.system_us > 0.0


def test_scope_created_after_the_run_refuses_to_read():
    system = _channel_workload(armed=False)
    scope = SoftwareOscilloscope.for_system(system)
    reads = [
        scope.capture,
        scope.capture_aggregated,
        scope.render,
        scope.render_aggregated,
        lambda: list(scope.playback(window_us=1_000.0)),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="before run"):
            read()

