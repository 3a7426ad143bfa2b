"""Functional tests for the paper's applications."""

import pytest

from repro.apps import (
    run_bitmap_stream,
    run_fft2d,
    run_linda,
    run_many_to_one,
    run_pingpong,
    run_spice_solver,
)
from repro.apps.spice import measure_userdefined_latency


# ----------------------------------------------------------------- fft2d
def test_fft2d_point_to_point_is_correct():
    result = run_fft2d(n=16, p=4, strategy="point-to-point")
    assert result.correct


def test_fft2d_multicast_is_correct():
    result = run_fft2d(n=16, p=4, strategy="multicast")
    assert result.correct


def test_fft2d_multicast_reads_more_bytes():
    """Section 4.2's argument: every multicast receiver reads everything."""
    mc = run_fft2d(n=16, p=4, strategy="multicast")
    pp = run_fft2d(n=16, p=4, strategy="point-to-point")
    # Multicast: each node reads ~(p-1)/p of the matrix; p2p: only the
    # fraction it actually needs (1/p of each other node's rows).
    assert mc.bytes_read_per_node > 3 * pp.bytes_read_per_node


def test_fft2d_multicast_waste_grows_with_p():
    """The Section 4.2 scaling argument: with more processors each
    multicast receiver reads the same ~N^2 values but needs only N^2/p
    of them, so the waste ratio grows linearly with p."""
    ratios = {}
    for p in (2, 4, 8):
        mc = run_fft2d(n=16, p=p, strategy="multicast")
        pp = run_fft2d(n=16, p=p, strategy="point-to-point")
        assert pp.correct and mc.correct
        ratios[p] = mc.bytes_read_per_node / pp.bytes_read_per_node
    assert ratios[2] == pytest.approx(2.0)
    assert ratios[4] == pytest.approx(4.0)
    assert ratios[8] == pytest.approx(8.0)


def test_fft2d_point_to_point_wins_when_bytes_dominate():
    """For real image sizes the wasted reading makes multicast slower."""
    mc = run_fft2d(n=32, p=4, strategy="multicast")
    pp = run_fft2d(n=32, p=4, strategy="point-to-point")
    assert pp.correct and mc.correct
    assert pp.elapsed_us < mc.elapsed_us


def test_fft2d_validates_arguments():
    with pytest.raises(ValueError):
        run_fft2d(n=16, p=3)
    with pytest.raises(ValueError):
        run_fft2d(strategy="carrier-pigeon")


# ----------------------------------------------------------------- bitmap
def test_bitmap_stream_reaches_paper_rate():
    result = run_bitmap_stream(frames=2)
    assert result.chunks_received == result.frames * -(
        -result.frame_bytes // 1060
    )
    # Shape target: ~3.2 Mbyte/s, 30 Hz for 900x900 bi-level.
    assert 2.5 < result.mbytes_per_sec < 4.0
    assert result.refreshes_900x900_at_30hz


def test_bitmap_small_frames():
    result = run_bitmap_stream(frames=5, frame_bytes=4096)
    assert result.frames == 5
    assert result.mbytes_per_sec > 1.0


# ----------------------------------------------------------------- spice
def test_userdefined_latency_near_paper():
    result = measure_userdefined_latency(message_bytes=64, rounds=100)
    assert 45.0 < result.one_way_us < 75.0  # paper: ~60 us


def test_spice_solver_converges_to_real_solution():
    result = run_spice_solver(n=48, p=4)
    assert result.converged
    assert result.residual < 1e-6
    assert result.boundary_messages > 0


def test_spice_solver_partition_validation():
    with pytest.raises(ValueError):
        run_spice_solver(n=50, p=4)


# ----------------------------------------------------------------- linda
def test_linda_computes_all_results():
    result = run_linda(n_workers=3, n_tasks=12)
    assert result.results == {i: i * i for i in range(12)}
    assert result.server_ops["out"] >= 12
    assert result.server_ops["in"] >= 12


def test_linda_single_worker():
    result = run_linda(n_workers=1, n_tasks=4)
    assert result.results == {0: 0, 1: 1, 2: 4, 3: 9}


# ----------------------------------------------------------------- pingpong
def test_pingpong_user_objects_beat_channels():
    """No-protocol alternation beats stop-and-wait channels (Section 4.1)."""
    user = run_pingpong(transport="user-object", rounds=100)
    chan = run_pingpong(transport="channel", rounds=100)
    assert user.one_way_us < chan.one_way_us


def test_pingpong_channel_one_way_matches_table2():
    result = run_pingpong(transport="channel", rounds=100, message_bytes=64)
    # One-way channel latency for 64 bytes should sit near Table 2's 341.
    assert 300.0 < result.one_way_us < 380.0


# ----------------------------------------------------------------- manytoone
def test_many_to_one_delivers_every_report():
    result = run_many_to_one(n_workers=6, rounds=4)
    assert result.received == 6 * 4


def test_many_to_one_imbalance_visible_to_oscilloscope():
    result = run_many_to_one(n_workers=4, rounds=3, imbalance=3.0)
    view = result.scope.capture()
    # The most-loaded worker computes ~4x the least-loaded one.
    assert view.load_imbalance() > 1.5
