"""Rendering helpers for vstat exports: JSONL dumps and summary tables.

The thin CLI in ``scripts/report.py`` drives these; tests and notebooks
can call them directly.  Everything operates on duck-typed objects (a
``VorxSystem``-like object exposing ``all_kernels`` and ``sim.vstat``)
to keep :mod:`repro.metrics` free of upward imports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.metrics.registry import Histogram

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.events import Vstat


def write_jsonl(vstat: "Vstat", path: str) -> int:
    """Write the full trace + snapshot export; returns the line count."""
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for line in vstat.to_jsonl():
            handle.write(line + "\n")
            lines += 1
    return lines


def render_histogram(histogram: Histogram, width: int = 40) -> str:
    """ASCII bucket bars plus the count/mean/percentile summary line."""
    if histogram.count == 0:
        return f"{histogram.name}: (no observations)"
    lines = [
        f"{histogram.name}: n={histogram.count} mean={histogram.mean:.1f}us "
        f"p50={histogram.percentile(50):.1f}us "
        f"p90={histogram.percentile(90):.1f}us "
        f"min={histogram.min:.1f}us max={histogram.max:.1f}us"
    ]
    peak = max(histogram.counts)
    lo = 0.0
    for edge, count in zip(histogram.buckets, histogram.counts):
        if count:
            bar = "#" * max(1, round(width * count / peak))
            lines.append(f"  [{lo:>9.0f} .. {edge:>9.0f}) {count:>6} |{bar}")
        lo = edge
    if histogram.counts[-1]:
        count = histogram.counts[-1]
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  [{lo:>9.0f} ..      +inf) {count:>6} |{bar}")
    return "\n".join(lines)


def node_summary_rows(system) -> list[dict]:
    """Per-node key counters: packets, context switches, syscalls, channel
    traffic, and where the CPU time went (the CPU's always-on user and
    system busy sums).  ``system`` is any object with ``all_kernels``."""
    rows = []
    for kernel in system.all_kernels:
        metrics = kernel.metrics
        rows.append(
            {
                "node": kernel.name,
                "packets_sent": kernel.iface.packets_sent,
                "packets_received": kernel.iface.packets_received,
                "context_switches": kernel.context_switches,
                "syscalls": int(metrics.value("kernel.syscalls")),
                "chan_frags_sent": int(metrics.value("chan.fragments_sent")),
                "chan_frags_received": int(
                    metrics.value("chan.fragments_received")
                ),
                "cpu_user_us": kernel.cpu.user_us,
                "cpu_system_us": kernel.cpu.system_us,
            }
        )
    return rows


def format_node_summary(rows: list[dict]) -> str:
    header = (
        f"{'NODE':<10} {'PKT-TX':>7} {'PKT-RX':>7} {'CTXSW':>6} "
        f"{'SYSCALL':>8} {'CH-TX':>6} {'CH-RX':>6} {'USER-US':>10} "
        f"{'SYS-US':>10}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['node']:<10} {row['packets_sent']:>7} "
            f"{row['packets_received']:>7} {row['context_switches']:>6} "
            f"{row['syscalls']:>8} {row['chan_frags_sent']:>6} "
            f"{row['chan_frags_received']:>6} {row['cpu_user_us']:>10.0f} "
            f"{row['cpu_system_us']:>10.0f}"
        )
    return "\n".join(lines)


def channel_rtt_histogram(system) -> Optional[Histogram]:
    """The merged channel write round-trip histogram across all nodes."""
    merged: Optional[Histogram] = None
    for kernel in system.all_kernels:
        histogram = kernel.metrics.get("chan.write_rtt_us")
        if histogram is None or histogram.count == 0:
            continue
        if merged is None:
            merged = Histogram("chan.write_rtt_us",
                               buckets=histogram.buckets)
        if merged.buckets != histogram.buckets:  # pragma: no cover
            continue
        for index, count in enumerate(histogram.counts):
            merged.counts[index] += count
        merged.count += histogram.count
        merged.sum += histogram.sum
        merged.min = min(merged.min, histogram.min)
        merged.max = max(merged.max, histogram.max)
    return merged


def window_summary_rows(system) -> list[dict]:
    """Per-node batched-window dynamics: high-water mark and shrink
    count.  Empty unless some endpoint actually moved its window (the
    gauge only registers observations on the batched write path)."""
    rows = []
    for kernel in system.all_kernels:
        gauge = kernel.metrics.get("chan.window.size")
        if gauge is None or gauge.max_value == 0.0:
            continue
        rows.append(
            {
                "node": kernel.name,
                "window_last": int(gauge.value),
                "window_max": int(gauge.max_value),
                "shrinks": int(kernel.metrics.value("chan.window.shrinks")),
            }
        )
    return rows


def fault_summary_rows(system) -> list[dict]:
    """Injected-fault counters, one row per kind (empty without a plan).

    ``system`` only needs ``sim``; the injector hangs off ``sim.faults``
    and its ``summary()`` already aggregates the vstat fault counters.
    """
    injector = getattr(system.sim, "faults", None)
    if injector is None:
        return []
    return [
        {"kind": kind, "count": count}
        for kind, count in sorted(injector.summary().items())
    ]


def format_slo_report(report) -> str:
    """Fixed-width verdict table for a duck-typed ``SLOReport``.

    One row per cell: baseline cells are marked ``base`` instead of a
    PASS/FAIL verdict, failed objectives are spelled out, and the
    Mann-Whitney p-value against the fault-free control is appended
    when a contrast exists.
    """
    header = (
        f"{'policy':<14} {'regime':<16} {'topology':<14} {'inj':>6} "
        f"{'verdict':<8} detail"
    )
    lines = [f"SLO: {report.slo.describe()}", header, "-" * len(header)]
    for verdict in report.verdicts:
        if verdict.is_baseline:
            word = "base"
            detail = ", ".join(str(o) for o in verdict.objectives)
        elif verdict.passed:
            word = "PASS"
            detail = ", ".join(str(o) for o in verdict.objectives)
        else:
            word = "FAIL"
            detail = ", ".join(
                str(o) for o in verdict.failed_objectives
            )
        if verdict.contrast is not None:
            mark = "*" if verdict.contrast.significant else ""
            detail += (f"  [vs fault-free: "
                       f"p={verdict.contrast.p_value:.4g}{mark}]")
        topology = f"{verdict.topology}/{verdict.n_endpoints}"
        lines.append(
            f"{verdict.policy:<14} {verdict.regime:<16} "
            f"{topology:<14} {verdict.injected:>6} {word:<8} {detail}"
        )
    chaos = report.chaos_verdicts
    if chaos:
        lines.append(
            f"{len(report.passed)}/{len(chaos)} chaos cells hold the SLO"
        )
    return "\n".join(lines)


def summarize(system, jsonl_path: Optional[str] = None) -> str:
    """The full report: optional JSONL dump plus the summary tables."""
    lines = []
    if jsonl_path is not None:
        count = write_jsonl(system.sim.vstat, jsonl_path)
        lines.append(f"wrote {count} JSONL records to {jsonl_path}")
        lines.append("")
    lines.append("--- per-node counters (vstat) ---")
    lines.append(format_node_summary(node_summary_rows(system)))
    rtt = channel_rtt_histogram(system)
    if rtt is not None:
        lines.append("")
        lines.append("--- channel stop-and-wait round-trip latency ---")
        lines.append(render_histogram(rtt))
    window_rows = window_summary_rows(system)
    if window_rows:
        lines.append("")
        lines.append("--- batched channel window (vstat) ---")
        for row in window_rows:
            lines.append(
                f"{row['node']:<10} window={row['window_last']} "
                f"(max {row['window_max']}) shrinks={row['shrinks']}"
            )
    fault_rows = fault_summary_rows(system)
    if fault_rows:
        injector = system.sim.faults
        lines.append("")
        lines.append("--- fault injection (vstat) ---")
        lines.append(
            f"{injector.injections} injected: " + ", ".join(
                f"{row['kind']}={row['count']}" for row in fault_rows
            )
        )
    events = system.sim.vstat.events
    if len(events):
        lines.append("")
        tallies = ", ".join(
            f"{name}={events.count(name)}" for name in sorted(events.names())
        )
        lines.append(f"--- trace events ({len(events)} total) ---")
        lines.append(tallies)
    return "\n".join(lines)
