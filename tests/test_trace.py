"""Unit tests for the trace recording substrate (timelines + logs)."""

import pytest

from repro.sim.trace import Category, Segment, Timeline, TraceLog


def _armed(*args, **kwargs) -> Timeline:
    """A timeline recording from t=0."""
    timeline = Timeline(*args, **kwargs)
    timeline.arm(0.0)
    return timeline


def test_segment_clipping():
    seg = Segment(10.0, 20.0, Category.USER)
    assert seg.duration == 10.0
    clipped = seg.clipped(15.0, 30.0)
    assert clipped is not None and (clipped.start, clipped.end) == (15.0, 20.0)
    assert seg.clipped(25.0, 30.0) is None
    assert seg.clipped(0.0, 10.0) is None


def test_timeline_rejects_bad_segments():
    timeline = _armed()
    timeline.record(0.0, 10.0, Category.USER)
    with pytest.raises(ValueError):
        timeline.record(5.0, 15.0, Category.USER)  # overlaps
    with pytest.raises(ValueError):
        timeline.record(20.0, 15.0, Category.USER)  # ends before start


def test_timeline_drops_zero_length_segments():
    timeline = _armed()
    timeline.record(5.0, 5.0, Category.USER)
    assert timeline.segments == ()


def test_busy_time_by_category_and_window():
    timeline = _armed()
    timeline.record(0.0, 10.0, Category.USER)
    timeline.record(10.0, 14.0, Category.SYSTEM)
    timeline.record(20.0, 30.0, Category.USER)
    assert timeline.busy_time() == 24.0
    assert timeline.busy_time(Category.SYSTEM) == 4.0
    assert timeline.busy_time(Category.USER, t0=5.0, t1=25.0) == 10.0


def test_idle_reasons_partition_gaps():
    timeline = _armed()
    timeline.record(0.0, 10.0, Category.USER)
    timeline.mark_idle_reason(10.0, Category.IDLE_INPUT)
    timeline.record(40.0, 50.0, Category.USER)
    timeline.mark_idle_reason(50.0, Category.IDLE_OUTPUT)
    segments = list(timeline.idle_segments(0.0, 60.0))
    assert [(s.start, s.end, s.category) for s in segments] == [
        (10.0, 40.0, Category.IDLE_INPUT),
        (50.0, 60.0, Category.IDLE_OUTPUT),
    ]


def test_idle_reason_mark_dedup_and_ordering():
    timeline = _armed()
    timeline.mark_idle_reason(5.0, Category.IDLE_INPUT)
    timeline.mark_idle_reason(5.0, Category.IDLE_INPUT)  # dedup: no-op
    assert timeline.idle_reason_at(6.0) is Category.IDLE_INPUT
    with pytest.raises(ValueError):
        timeline.mark_idle_reason(1.0, Category.IDLE_OUTPUT)  # out of order
    with pytest.raises(ValueError):
        timeline.mark_idle_reason(10.0, Category.USER)  # not an idle reason


def test_idle_gap_splits_at_reason_change():
    timeline = _armed()
    timeline.record(0.0, 10.0, Category.USER)
    timeline.mark_idle_reason(10.0, Category.IDLE_INPUT)
    timeline.mark_idle_reason(25.0, Category.IDLE_MIXED)
    breakdown = timeline.breakdown(0.0, 40.0)
    assert breakdown[Category.USER] == 10.0
    assert breakdown[Category.IDLE_INPUT] == 15.0
    assert breakdown[Category.IDLE_MIXED] == 15.0


def test_breakdown_empty_window_rejected():
    with pytest.raises(ValueError):
        _armed().breakdown(5.0, 5.0)


def test_tracelog_counters_and_selection():
    log = TraceLog()
    log.log(1.0, "send", {"to": 2})
    log.log(2.0, "send", {"to": 3})
    log.log(3.0, "recv", {"from": 2})
    assert log.count("send") == 2
    assert log.count("missing") == 0
    assert log.select("recv") == [(3.0, {"from": 2})]
    assert set(log.tags()) == {"send", "recv"}


# ---------------------------------------------------------------- ring mode
def test_timeline_ring_buffer_keeps_recent_segments():
    timeline = _armed("cpu", capacity=3)
    for i in range(5):
        timeline.record(float(i), float(i) + 0.5, Category.USER)
    assert timeline.capacity == 3
    assert timeline.dropped == 2
    assert [s.start for s in timeline.segments] == [2.0, 3.0, 4.0]
    # Queries reflect the retained window only.
    assert timeline.busy_time() == pytest.approx(1.5)
    assert timeline.end_time == 4.5


def test_timeline_set_capacity_shrinks_and_unbounds():
    timeline = _armed()
    for i in range(4):
        timeline.record(float(i), float(i) + 0.5, Category.SYSTEM)
    assert timeline.dropped == 0
    timeline.set_capacity(2)
    assert timeline.dropped == 2
    assert [s.start for s in timeline.segments] == [2.0, 3.0]
    timeline.record(4.0, 4.5, Category.USER)
    assert timeline.dropped == 3  # ring full: one more discarded
    timeline.set_capacity(None)
    timeline.record(5.0, 5.5, Category.USER)
    assert timeline.capacity is None
    assert len(timeline.segments) == 3
    assert timeline.dropped == 3  # unbounded again: no further drops


def test_timeline_ring_rejects_bad_capacity():
    timeline = _armed()
    with pytest.raises(ValueError):
        timeline.set_capacity(0)


def test_armed_timeline_refuses_windows_before_arming():
    timeline = Timeline("cpu")
    timeline.arm(10.0)
    timeline.arm(20.0)  # already armed: keeps the first instant
    timeline.record(12.0, 15.0, Category.SYSTEM)
    assert timeline.busy_time(t0=10.0) == 3.0
    assert timeline.breakdown(10.0, 20.0)[Category.SYSTEM] == 3.0
    with pytest.raises(ValueError, match="recording began at 10.0"):
        timeline.breakdown(5.0, 20.0)
    with pytest.raises(ValueError, match="before run"):
        list(timeline.idle_segments(0.0, 20.0))
