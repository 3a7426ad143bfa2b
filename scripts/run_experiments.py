#!/usr/bin/env python
"""Regenerate the E1-E18 block of EXPERIMENTS.md: paper vs. measured.

Runs those experiments at publication fidelity (1000-message streams
etc.) and rewrites only the text between the BEGIN/END marker lines;
everything outside them (the introduction and E19 onwards) is kept as
written.  Takes under a minute.

Usage:  python scripts/run_experiments.py [output-path]
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro.bench.experiments import (
    experiment_allocation,
    experiment_bitmap,
    experiment_cdb,
    experiment_decentralized_syscalls,
    experiment_download,
    experiment_fft2d,
    experiment_fifo_sizing,
    experiment_flow_control,
    experiment_object_manager,
    experiment_oscilloscope,
    experiment_structuring,
    experiment_stubs,
    experiment_table1,
    experiment_table2,
    experiment_topology,
    experiment_userdefined_latency,
)

BEGIN = "<!-- BEGIN GENERATED: python scripts/run_experiments.py -->"
END = "<!-- END GENERATED -->"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def splice(text: str, block: str) -> str:
    """``text`` with the lines between its BEGIN and END markers
    replaced by ``block``; raises ``ValueError`` without both markers."""
    start, end = text.find(BEGIN), text.find(END)
    if start < 0 or end < start:
        raise ValueError(f"no {BEGIN!r} ... {END!r} block to regenerate")
    return f"{text[:start + len(BEGIN)]}\n\n{block.strip()}\n\n{text[end:]}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", nargs="?", type=Path, default=DEFAULT_OUTPUT,
                        help="markdown file holding the marker block "
                             "(default: EXPERIMENTS.md)")
    output = parser.parse_args(argv).output
    text = output.read_text()
    splice(text, "")  # no markers: fail now, not after the long run
    runs = [
        (experiment_table1, dict(n_messages=1000)),
        (experiment_table2, dict(n_messages=1000)),
        (experiment_userdefined_latency, dict(rounds=500)),
        (experiment_bitmap, dict(frames=3)),
        (experiment_fft2d, dict(n=32, ps=(2, 4, 8))),
        (experiment_flow_control, {}),
        (experiment_fifo_sizing, {}),
        (experiment_object_manager, {}),
        (experiment_download, {}),
        (experiment_structuring, {}),
        (experiment_allocation, {}),
        (experiment_topology, {}),
        (experiment_oscilloscope, {}),
        (experiment_cdb, {}),
        (experiment_stubs, {}),
        (experiment_decentralized_syscalls, {}),
    ]
    sections = []
    for runner, kwargs in runs:
        t0 = time.time()
        result = runner(**kwargs)
        wall = time.time() - t0
        print(f"{result.experiment_id:>4}  {result.title}  ({wall:.1f}s)")
        sections.append(result.markdown())
    output.write_text(splice(text, "\n\n".join(sections)))
    print(f"\nwrote {output}")


if __name__ == "__main__":
    main()
