"""The software oscilloscope (paper Section 6.2).

*"[The tool] helps the programmer visualize how well processors of an
application are utilized and how well the computational load is balanced
...  displays a graph for each processor indicating CPU time usage with
different colors used to partition time into several categories ...
user time ... system time ...  idle time can be further partitioned: the
processor may be idle because the program is waiting for input or it may
be idle waiting for output ...  a third possibility ... some threads are
waiting for input and others ... output ...  The software oscilloscope
synchronizes all the graphs with each other ...  It is possible to freeze
the display, run faster or slower than real-time, or seek to any moment
in execution time."*

Recording is opt-in: creating a :class:`SoftwareOscilloscope` arms the
:class:`~repro.sim.trace.Timeline` of every processor it displays, and
from then on each :class:`~repro.sim.cpu.CPU` records its segments.  So
create the scope before ``run()``; a window that starts before the scope
existed raises :class:`ValueError`.  A CPU no scope watches keeps only
its ``user_us``/``system_us`` busy sums.  The colour display becomes an
ASCII strip chart; freeze/seek become the ``t0``/``t1`` window of
:meth:`capture`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.sim.trace import Category

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.kernel import NodeKernel
    from repro.vorx.system import VorxSystem

#: One display character per category (the "colors").
CATEGORY_CHARS = {
    Category.USER: "U",
    Category.SYSTEM: "s",
    Category.IDLE_INPUT: "i",
    Category.IDLE_OUTPUT: "o",
    Category.IDLE_MIXED: "m",
    Category.IDLE_OTHER: ".",
}


@dataclass
class OscilloscopeView:
    """A synchronized capture across processors for one time window."""

    t0: float
    t1: float
    #: kernel name -> category -> seconds of the window.
    breakdown: dict[str, dict[Category, float]]
    #: kernel name -> strip of dominant-category characters.
    strips: dict[str, str]

    @property
    def window(self) -> float:
        return self.t1 - self.t0

    def utilisation(self, name: str) -> float:
        """Busy fraction (user + system) for one processor."""
        b = self.breakdown[name]
        return (b[Category.USER] + b[Category.SYSTEM]) / self.window

    def load_imbalance(self) -> float:
        """Max/mean ratio of user time across processors (1.0 = balanced).

        A window in which no processor ran user code is balanced (1.0).
        """
        user = [b[Category.USER] for b in self.breakdown.values()]
        mean = sum(user) / len(user) if user else 0.0
        return (max(user) / mean) if mean > 0 else 1.0


#: :meth:`SoftwareOscilloscope.metrics_overlay` columns:
#: (title, vstat counter, width).
_OVERLAY_COLUMNS = (
    ("POSTED", "kernel.packets_posted", 7),
    ("INTR", "kernel.interrupts", 6),
    ("CTXSW", "kernel.context_switches", 6),
    ("SYSCALL", "kernel.syscalls", 8),
    ("NAK", "chan.naks", 5),
    ("RETX", "chan.retransmits", 5),
)

#: Shade ramp for aggregated utilisation strips (0% .. 100% busy).
_SHADES = " .:-=+*#%@"


@dataclass
class AggregateView:
    """A many-processor display: groups of processors summarised.

    The paper's Section 6.2 closes with *"This tool works well when the
    application has few enough processors so that all the graphs fit on
    the screen.  We are studying ways to effectively display data for
    more processors."* -- this is that extension: processors are grouped,
    each group shown as one utilisation-shade strip plus distribution
    statistics, so a 70-node machine fits in a dozen lines.
    """

    t0: float
    t1: float
    #: group label -> member kernel names.
    groups: dict[str, list[str]]
    #: group label -> mean category seconds across members.
    mean_breakdown: dict[str, dict[Category, float]]
    #: group label -> utilisation shade strip.
    strips: dict[str, str]
    #: per-processor busy fraction, for the distribution summary.
    utilisation: dict[str, float]

    @property
    def window(self) -> float:
        return self.t1 - self.t0

    def utilisation_percentiles(self) -> dict[str, float]:
        """min / median / max busy fraction across all processors."""
        values = sorted(self.utilisation.values())
        if not values:
            return {"min": 0.0, "median": 0.0, "max": 0.0}
        return {
            "min": values[0],
            "median": values[len(values) // 2],
            "max": values[-1],
        }


class SoftwareOscilloscope:
    """Viewer over the per-processor timelines it arms when created.

    Each timeline records from the simulated time the scope is created.
    Create the scope before ``run()``: when it is armed mid-run, a
    node's idle time reads as idle-other until its next block or wakeup.
    """

    def __init__(self, kernels: Sequence["NodeKernel"]) -> None:
        if not kernels:
            raise ValueError("need at least one processor to display")
        self.kernels = list(kernels)
        for kernel in self.kernels:
            kernel.cpu.timeline.arm(kernel.cpu.sim.now)

    @classmethod
    def for_system(cls, system: "VorxSystem",
                   include_hosts: bool = False) -> "SoftwareOscilloscope":
        kernels = list(system.nodes)
        if include_hosts:
            kernels += list(system.workstations)
        return cls(kernels)

    # ------------------------------------------------------------------
    def _window_end(self, t0: float, t1: Optional[float]) -> float:
        """Check every timeline recorded from ``t0`` on; default ``t1``.

        ``t1`` defaults to the last busy instant on any processor.
        """
        for kernel in self.kernels:
            kernel.cpu.timeline.check_window(t0)
        if t1 is None:
            t1 = max(k.cpu.timeline.end_time for k in self.kernels)
        return t1

    def capture(
        self,
        t0: float = 0.0,
        t1: Optional[float] = None,
        bins: int = 60,
    ) -> OscilloscopeView:
        """Capture one synchronized window across all processors.

        ``t1`` defaults to the last busy instant on any processor.  The
        same ``[t0, t1)`` window is used for every graph -- the paper's
        synchronization property.  ``bins`` controls the strip-chart
        resolution (each character shows the bin's dominant category).
        """
        t1 = self._window_end(t0, t1)
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        breakdown = {}
        strips = {}
        for kernel in self.kernels:
            timeline = kernel.cpu.timeline
            breakdown[kernel.name] = timeline.breakdown(t0, t1)
            step = (t1 - t0) / bins
            chars = []
            for b in range(bins):
                sub = timeline.breakdown(t0 + b * step, t0 + (b + 1) * step)
                dominant = max(sub, key=lambda c: sub[c])
                chars.append(CATEGORY_CHARS[dominant])
            strips[kernel.name] = "".join(chars)
        return OscilloscopeView(t0, t1, breakdown, strips)

    def capture_aggregated(
        self,
        group_size: int = 8,
        t0: float = 0.0,
        t1: Optional[float] = None,
        bins: int = 60,
    ) -> AggregateView:
        """Summarise many processors into groups of ``group_size``.

        Each group's strip shows the group's *mean busy fraction* per
        time bin as a shade character, so imbalance between groups is
        visible at a glance even when individual graphs would not fit on
        the screen.
        """
        if group_size < 1:
            raise ValueError(f"group size must be >= 1, got {group_size}")
        t1 = self._window_end(t0, t1)
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        groups: dict[str, list[str]] = {}
        members: dict[str, list] = {}
        for index in range(0, len(self.kernels), group_size):
            chunk = self.kernels[index:index + group_size]
            label = (
                f"{chunk[0].name}..{chunk[-1].name}"
                if len(chunk) > 1 else chunk[0].name
            )
            groups[label] = [k.name for k in chunk]
            members[label] = chunk
        mean_breakdown = {}
        strips = {}
        utilisation = {}
        step = (t1 - t0) / bins
        for label, chunk in members.items():
            totals = {cat: 0.0 for cat in Category}
            for kernel in chunk:
                breakdown = kernel.cpu.timeline.breakdown(t0, t1)
                for cat, value in breakdown.items():
                    totals[cat] += value
                busy = breakdown[Category.USER] + breakdown[Category.SYSTEM]
                utilisation[kernel.name] = busy / (t1 - t0)
            mean_breakdown[label] = {
                cat: value / len(chunk) for cat, value in totals.items()
            }
            chars = []
            for b in range(bins):
                w0, w1 = t0 + b * step, t0 + (b + 1) * step
                busy = sum(
                    kernel.cpu.timeline.busy_time(t0=w0, t1=w1)
                    for kernel in chunk
                ) / (len(chunk) * step)
                chars.append(_SHADES[min(len(_SHADES) - 1,
                                         int(busy * len(_SHADES)))])
            strips[label] = "".join(chars)
        return AggregateView(t0, t1, groups, mean_breakdown, strips,
                             utilisation)

    def render_aggregated(self, view: Optional[AggregateView] = None,
                          group_size: int = 8, bins: int = 60) -> str:
        """ASCII rendering of the many-processor display."""
        if view is None:
            view = self.capture_aggregated(group_size=group_size, bins=bins)
        lines = [
            f"software oscilloscope (aggregated)  "
            f"[{view.t0:.0f} .. {view.t1:.0f}] us  "
            f"(shade = mean busy fraction)",
        ]
        for label, strip in view.strips.items():
            n = len(view.groups[label])
            lines.append(f"{label:>20} ({n:>2}) |{strip}|")
        stats = view.utilisation_percentiles()
        lines.append(
            f"utilisation across {len(view.utilisation)} processors: "
            f"min {100 * stats['min']:.0f}%  median "
            f"{100 * stats['median']:.0f}%  max {100 * stats['max']:.0f}%"
        )
        return "\n".join(lines)

    def metrics_overlay(self) -> str:
        """Per-processor live-counter strip from the vstat registries.

        Pairs with :meth:`render`: the strip chart shows *where* the time
        went; this overlay shows *what* each processor was doing to the
        network while it went (messages posted, interrupts taken, context
        switches charged, channel retransmissions).  A counter the
        kernel does not keep (Meglos has no VORX channels) prints ``-``.
        """
        header = " ".join(
            f"{title:>{width}}" for title, _name, width in _OVERLAY_COLUMNS
        )
        lines = [f"{'PROCESSOR':>10} {header}"]
        for kernel in self.kernels:
            cells = []
            for _title, name, width in _OVERLAY_COLUMNS:
                counter = kernel.metrics.get(name)
                cell = "-" if counter is None else int(counter.value)
                cells.append(f"{cell:>{width}}")
            lines.append(f"{kernel.name:>10} {' '.join(cells)}")
        return "\n".join(lines)

    def playback(
        self,
        window_us: float,
        step_us: Optional[float] = None,
        t0: float = 0.0,
        t1: Optional[float] = None,
        bins: int = 60,
    ):
        """Iterate synchronized views over time -- the paper's playback.

        *"It is possible to freeze the display, run faster or slower than
        real-time, or seek to any moment in execution time."*  Each
        yielded :class:`OscilloscopeView` covers one ``window_us`` frame;
        ``step_us`` controls the playback rate (defaults to the window,
        i.e. non-overlapping frames; smaller steps give slow motion,
        larger ones fast forward).  Seeking is just choosing ``t0``.
        """
        if window_us <= 0:
            raise ValueError(f"window must be positive: {window_us}")
        step = step_us if step_us is not None else window_us
        if step <= 0:
            raise ValueError(f"step must be positive: {step}")
        t1 = self._window_end(t0, t1)
        cursor = t0
        while cursor < t1:
            end = min(cursor + window_us, t1)
            if end > cursor:
                yield self.capture(cursor, end, bins=bins)
            cursor += step

    def render(self, view: Optional[OscilloscopeView] = None,
               bins: int = 60) -> str:
        """ASCII rendering: one strip per processor plus a summary table."""
        if view is None:
            view = self.capture(bins=bins)
        lines = [
            f"software oscilloscope  [{view.t0:.0f} .. {view.t1:.0f}] us  "
            f"(U=user s=system i=idle-input o=idle-output m=idle-mixed "
            f".=idle)",
        ]
        for name, strip in view.strips.items():
            lines.append(f"{name:>10} |{strip}|")
        lines.append("")
        header = (
            f"{'PROCESSOR':>10} {'%USER':>7} {'%SYS':>6} {'%IN':>6} "
            f"{'%OUT':>6} {'%MIX':>6} {'%IDLE':>6}"
        )
        lines.append(header)
        for name, b in view.breakdown.items():
            w = view.window / 100.0
            lines.append(
                f"{name:>10} {b[Category.USER] / w:>7.1f} "
                f"{b[Category.SYSTEM] / w:>6.1f} "
                f"{b[Category.IDLE_INPUT] / w:>6.1f} "
                f"{b[Category.IDLE_OUTPUT] / w:>6.1f} "
                f"{b[Category.IDLE_MIXED] / w:>6.1f} "
                f"{b[Category.IDLE_OTHER] / w:>6.1f}"
            )
        return "\n".join(lines)
