#!/usr/bin/env python
"""Calibration harness: measure every anchor against the paper.

Run after changing anything in :mod:`repro.model.costs`; it reports each
paper anchor with its deviation so constants can be nudged back into
line.  (This is the tool that produced the shipped constants.)

Usage:  python scripts/calibrate.py [--full]
"""

from __future__ import annotations

import sys


def main() -> None:
    full = "--full" in sys.argv
    n_stream = 1000 if full else 300

    from repro.apps.bitmap import run_bitmap_stream
    from repro.apps.spice import measure_userdefined_latency
    from repro.apps.structuring import measure_context_switch
    from repro.bench.experiments import (
        PAPER_BITMAP_MBPS,
        PAPER_CHANNEL_KBPS,
        PAPER_CONTEXT_SWITCH_US,
        PAPER_DOWNLOAD_PER_PROCESS_S,
        PAPER_DOWNLOAD_TREE_S,
        PAPER_TABLE1,
        PAPER_TABLE2,
        PAPER_UD_LATENCY_US,
    )
    from repro.vorx.sliding_window import run_channel_stream, run_sliding_window

    rows: list[tuple[str, float, float]] = []

    def anchor(label: str, paper: float, measured: float) -> None:
        rows.append((label, paper, measured))

    # Table 2 + bandwidth.
    for size, paper in PAPER_TABLE2.items():
        result = run_channel_stream(size, n_messages=n_stream)
        anchor(f"T2 channel {size}B (us/msg)", paper, result.us_per_message)
        if size == 1024:
            anchor("channel bandwidth (kbyte/s)", PAPER_CHANNEL_KBPS,
                   result.kbytes_per_sec)

    # Table 1 corners (full sweep with --full).
    table1_keys = (
        sorted(PAPER_TABLE1) if full
        else [(1, 4), (64, 4), (1, 1024), (64, 1024), (8, 4)]
    )
    for k, size in table1_keys:
        result = run_sliding_window(k, size, n_messages=n_stream)
        anchor(f"T1 sliding k={k} {size}B (us/msg)", PAPER_TABLE1[(k, size)],
               result.us_per_message)

    # In-text anchors.
    anchor("user-defined 64B one-way (us)", PAPER_UD_LATENCY_US,
           measure_userdefined_latency(rounds=300).one_way_us)
    anchor("bitmap stream (Mbyte/s)", PAPER_BITMAP_MBPS,
           run_bitmap_stream(frames=2).mbytes_per_sec)
    anchor("context switch (us)", PAPER_CONTEXT_SWITCH_US,
           measure_context_switch())

    from repro.vorx.download import download_per_process, download_tree
    from repro.vorx.system import VorxSystem

    n = 70 if full else 30
    per = download_per_process(
        VorxSystem(n_nodes=n, n_workstations=1), 0, list(range(n))
    ).seconds
    tree = download_tree(
        VorxSystem(n_nodes=n, n_workstations=1), 0, list(range(n))
    ).seconds
    if full:
        anchor("download per-process 70 (s)", PAPER_DOWNLOAD_PER_PROCESS_S,
               per)
        anchor("download tree 70 (s)", PAPER_DOWNLOAD_TREE_S, tree)
    else:
        print(f"(download @30 nodes: per-process {per:.1f}s, tree {tree:.1f}s"
              f" -- run --full for the 70-node paper anchor)")

    width = max(len(label) for label, _, _ in rows)
    print(f"{'anchor':<{width}}  {'paper':>9}  {'measured':>9}  {'dev':>7}")
    worst = 0.0
    for label, paper, measured in rows:
        deviation = (measured - paper) / paper
        worst = max(worst, abs(deviation))
        print(f"{label:<{width}}  {paper:>9.1f}  {measured:>9.1f}  "
              f"{100 * deviation:>+6.1f}%")
    print(f"\nworst deviation: {100 * worst:.1f}%")


if __name__ == "__main__":
    main()
