"""Unit tests for the vstat metrics registry and structured trace stream."""

import json

import pytest

from repro.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TraceStream,
    Vstat,
)
from repro.metrics.report import (
    format_node_summary,
    node_summary_rows,
    render_histogram,
)
from repro.sim.trace import TraceLog


# ---------------------------------------------------------------------------
# metric primitives
# ---------------------------------------------------------------------------
def test_counter_increments_and_rejects_decrease():
    counter = Counter("pkts")
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_tracks_high_water_mark():
    gauge = Gauge("depth")
    gauge.set(3)
    gauge.set(7)
    gauge.dec(5)
    assert gauge.value == 2
    assert gauge.max_value == 7
    gauge.inc(1)
    assert gauge.value == 3
    assert gauge.max_value == 7


def test_histogram_buckets_and_exact_stats():
    histogram = Histogram("lat", buckets=(10.0, 100.0, 1000.0))
    for value in (5.0, 50.0, 60.0, 5000.0):
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.sum == 5115.0
    assert histogram.mean == pytest.approx(1278.75)
    assert histogram.min == 5.0
    assert histogram.max == 5000.0
    # 5 -> first bucket, 50/60 -> second, 5000 -> overflow slot.
    assert histogram.counts == [1, 2, 0, 1]


def test_histogram_percentile_clips_to_observed_range():
    """Tightly clustered values report accurately even in one bucket:
    the Table 2 anchor (~303 us writes) must not come back as the bucket
    midpoint."""
    histogram = Histogram("rtt", buckets=(300.0, 350.0))
    for _ in range(100):
        histogram.observe(303.0)
    assert histogram.percentile(50) == pytest.approx(303.0)
    assert histogram.percentile(99) == pytest.approx(303.0)


def test_histogram_percentile_interpolates_across_buckets():
    histogram = Histogram("spread", buckets=(100.0, 200.0))
    for value in (10.0, 110.0, 120.0, 190.0):
        histogram.observe(value)
    p50 = histogram.percentile(50)
    assert 100.0 <= p50 <= 200.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_histogram_snapshot_shape():
    histogram = Histogram("h", buckets=(10.0,))
    histogram.observe(3.0)
    histogram.observe(30.0)
    snap = histogram.snapshot()
    assert snap["count"] == 2
    assert snap["buckets"] == {"10.0": 1, "+inf": 1}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_registry_get_or_create_and_labels():
    registry = MetricsRegistry("node0")
    a = registry.counter("io.ops", labels=("read",))
    b = registry.counter("io.ops", labels=("read",))
    c = registry.counter("io.ops", labels=("write",))
    assert a is b and a is not c
    a.inc(2)
    c.inc()
    assert registry.value("io.ops", labels=("read",)) == 2
    assert registry.value("io.ops", labels=("missing",)) == 0.0
    assert set(registry.labelled("io.ops")) == {("read",), ("write",)}


def test_registry_kind_conflict_raises():
    registry = MetricsRegistry("n")
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_registry_snapshot_renders_label_keys():
    registry = MetricsRegistry("node0")
    registry.counter("ops", labels=("read",)).inc(4)
    registry.gauge("depth").set(2)
    snap = registry.snapshot()
    assert snap["node"] == "node0"
    assert snap["counters"] == {"ops{read}": 4.0}
    assert snap["gauges"]["depth"] == {"value": 2, "max": 2}


# ---------------------------------------------------------------------------
# trace stream + hub
# ---------------------------------------------------------------------------
def test_trace_stream_select_and_jsonl():
    stream = TraceStream()
    stream.emit(1.0, node="n0", subsystem="channel", name="open", eid=1)
    stream.emit(2.0, node="n1", subsystem="channel", name="open", eid=2)
    stream.emit(3.0, node="n0", subsystem="kernel", name="drop")
    assert len(stream) == 3
    assert stream.count("open") == 2
    assert [e.node for e in stream.select(name="open")] == ["n0", "n1"]
    assert [e.name for e in stream.select(node="n0")] == ["open", "drop"]
    lines = list(stream.to_jsonl())
    first = json.loads(lines[0])
    assert first == {"t": 1.0, "node": "n0", "subsystem": "channel",
                     "event": "open", "fields": {"eid": 1}}


def test_vstat_registries_and_rename_merge():
    vstat = Vstat()
    vstat.registry("nic5").counter("nic.packets_sent").inc(3)
    vstat.registry("ws0").counter("kernel.syscalls").inc()
    vstat.rename("nic5", "ws0")
    merged = vstat.registry("ws0")
    assert merged.value("nic.packets_sent") == 3
    assert merged.value("kernel.syscalls") == 1
    assert "nic5" not in vstat.registries


def test_vstat_jsonl_contains_events_then_snapshots():
    vstat = Vstat()
    vstat.emit(5.0, node="n0", subsystem="app", name="tick")
    vstat.registry("n0").counter("c").inc()
    lines = [json.loads(line) for line in vstat.to_jsonl()]
    assert lines[0]["event"] == "tick"
    assert lines[1]["snapshot"] == "n0"
    assert lines[1]["counters"] == {"c": 1.0}


def test_tracelog_compat_is_node_scoped_over_shared_stream():
    vstat = Vstat()
    log0 = TraceLog(stream=vstat.events, node="n0")
    log1 = TraceLog(stream=vstat.events, node="n1")
    log0.log(1.0, "sample", {"k": 1})
    log1.log(2.0, "sample", "other")
    log0.log(3.0, "done")
    assert log0.count("sample") == 1
    assert log0.select("sample") == [(1.0, {"k": 1})]
    assert log0.entries == [(1.0, "sample", {"k": 1}), (3.0, "done", None)]
    assert list(log0.tags()) == ["sample", "done"]
    # Both nodes' records share one stream for the unified export.
    assert vstat.events.count("sample") == 2


def test_render_histogram_summary_line():
    histogram = Histogram("rtt", buckets=(100.0, 400.0))
    for _ in range(10):
        histogram.observe(303.0)
    text = render_histogram(histogram)
    assert "n=10" in text
    assert "p50=303.0us" in text
    assert render_histogram(Histogram("empty")).endswith("(no observations)")


def test_histogram_out_of_range_observations_clamp():
    """Out-of-range values clamp into the end buckets instead of raising."""
    h = Histogram("lat", buckets=(10.0, 20.0))
    h.observe(1e12)  # far beyond the last edge -> implicit overflow bucket
    h.observe(-5.0)  # below every edge -> first bucket
    assert h.counts[-1] == 1
    assert h.counts[0] == 1
    assert h.count == 2
    assert h.snapshot()["buckets"]["+inf"] == 1


# ---------------------------------------------------------------------------
# report rows
# ---------------------------------------------------------------------------
def test_node_summary_rows_say_where_cpu_time_went():
    from repro import VorxSystem

    system = VorxSystem(n_nodes=2)

    def producer(env):
        with (yield from env.channel("rows")) as ch:
            yield from env.compute(1_000.0)
            yield from env.write(ch, 64)

    def consumer(env):
        with (yield from env.channel("rows")) as ch:
            yield from env.read(ch)

    system.spawn(0, producer)
    system.spawn(1, consumer)
    system.run()
    rows = node_summary_rows(system)
    assert [row["node"] for row in rows] == ["node0", "node1"]
    for row, kernel in zip(rows, system.nodes):
        assert row["cpu_user_us"] == kernel.cpu.user_us
        assert row["cpu_system_us"] == kernel.cpu.system_us
        assert row["cpu_system_us"] > 0.0
        assert row["syscalls"] == int(kernel.metrics.value("kernel.syscalls"))
    assert rows[0]["cpu_user_us"] == pytest.approx(1_000.0)
    assert rows[0]["chan_frags_sent"] == 1
    assert rows[1]["chan_frags_received"] == 1
    table = format_node_summary(rows).splitlines()
    assert table[0].split()[-2:] == ["USER-US", "SYS-US"]
    assert table[2].split()[-2] == "1000"

