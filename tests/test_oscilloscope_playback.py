"""Tests for the oscilloscope's playback/seek feature (Section 6.2)."""

import pytest

from repro import VorxSystem
from repro.tools import SoftwareOscilloscope


def build_phased_scope():
    """Node computes for 10 ms, idles for 10 ms, computes for 10 ms; the
    scope is armed before the run."""
    system = VorxSystem(n_nodes=1)
    scope = SoftwareOscilloscope.for_system(system)

    def program(env):
        yield from env.compute(10_000.0)
        yield from env.sleep(10_000.0)
        yield from env.compute(10_000.0)

    system.spawn(0, program)
    system.run()
    return scope


def test_playback_yields_consecutive_frames():
    scope = build_phased_scope()
    frames = list(scope.playback(window_us=10_000.0, bins=5))
    assert len(frames) >= 3
    # Frames tile the run in order.
    for a, b in zip(frames, frames[1:]):
        assert b.t0 == pytest.approx(a.t1)


def test_playback_shows_the_phases():
    scope = build_phased_scope()
    frames = list(scope.playback(window_us=10_000.0))
    busy = [frame.utilisation("node0") for frame in frames[:3]]
    # Busy, idle, busy.
    assert busy[0] > 0.8
    assert busy[1] < 0.3
    assert busy[2] > 0.7


def test_playback_slow_motion_overlapping_frames():
    scope = build_phased_scope()
    frames = list(scope.playback(window_us=10_000.0, step_us=5_000.0))
    # Half-window steps: roughly twice the frame count.
    plain = list(scope.playback(window_us=10_000.0))
    assert len(frames) >= 2 * len(plain) - 2


def test_playback_seek():
    scope = build_phased_scope()
    frames = list(scope.playback(window_us=5_000.0, t0=12_000.0,
                                 t1=18_000.0))
    assert frames[0].t0 == 12_000.0
    # Seeked into the idle phase.
    assert frames[0].utilisation("node0") < 0.3


def test_playback_validation():
    scope = build_phased_scope()
    with pytest.raises(ValueError):
        list(scope.playback(window_us=0.0))
    with pytest.raises(ValueError):
        list(scope.playback(window_us=10.0, step_us=0.0))
