"""Execution trace recording.

The software oscilloscope (Section 6.2 of the paper) partitions each
processor's time into *user*, *system* and several flavours of *idle*
time.  :class:`Timeline` records exactly that raw data once it is armed
(:meth:`Timeline.arm`, called by the oscilloscope when it is created);
:mod:`repro.tools.oscilloscope` renders it.

:class:`TraceLog` is the per-node view over the unified structured trace
stream (:mod:`repro.metrics.events`): the legacy ``log(time, tag, data)``
interface is kept for applications, but every record lands in the shared
:class:`~repro.metrics.events.TraceStream` as a typed event, so cdb, the
benchmarks and ``scripts/report.py`` all read one stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Iterator, Optional

from repro.metrics.events import TraceStream


class Category(str, Enum):
    """Processor time categories (paper Section 6.2)."""

    #: Application code executing.
    USER = "user"
    #: Operating system code executing (kernel paths, interrupt service).
    SYSTEM = "system"
    #: Idle: every runnable thread is waiting for message input.
    IDLE_INPUT = "idle-input"
    #: Idle: every runnable thread is waiting for message output.
    IDLE_OUTPUT = "idle-output"
    #: Idle: some threads wait for input and others for output.
    IDLE_MIXED = "idle-mixed"
    #: Idle for any other reason (devices, timers, nothing to run).
    IDLE_OTHER = "idle-other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Categories that represent busy CPU time.
BUSY_CATEGORIES = (Category.USER, Category.SYSTEM)
#: Categories that represent idle CPU time.
IDLE_CATEGORIES = (
    Category.IDLE_INPUT,
    Category.IDLE_OUTPUT,
    Category.IDLE_MIXED,
    Category.IDLE_OTHER,
)


@dataclass(slots=True)
class Segment:
    """A half-open interval ``[start, end)`` of CPU activity.

    Plain slots (not frozen): one is created per CPU charge, and the
    frozen dataclass ``object.__setattr__`` construction path showed up
    in engine profiles.  Treat instances as immutable regardless.
    """

    start: float
    end: float
    category: Category
    owner: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def clipped(self, t0: float, t1: float) -> Optional["Segment"]:
        """The part of this segment inside ``[t0, t1)``, or None."""
        start = max(self.start, t0)
        end = min(self.end, t1)
        if end <= start:
            return None
        return Segment(start, end, self.category, self.owner)


class Timeline:
    """Per-processor record of busy segments and idle-reason marks.

    Busy segments are appended by :class:`repro.sim.cpu.CPU`; idle-reason
    marks are appended by the kernel whenever the set of blocked threads
    changes.  Idle intervals are derived as the complement of busy
    segments, subdivided at reason marks.

    A timeline records nothing until :meth:`arm` is called, so a CPU
    that no oscilloscope watches pays nothing for it.  Window queries
    that start before the arming instant raise :class:`ValueError`
    rather than report time that was never recorded.

    Like :class:`~repro.metrics.events.TraceStream`, a timeline can run
    in ring-buffer mode (:meth:`set_capacity`): only the most recent
    ``capacity`` busy segments are retained and :attr:`dropped` counts
    the discarded ones.  Long soak runs use this to watch the *recent*
    oscilloscope picture without unbounded memory.  Queries then reflect
    the retained window only -- time before the oldest kept segment
    reads as idle.
    """

    def __init__(self, name: str = "cpu", capacity: Optional[int] = None) -> None:
        self.name = name
        #: Simulated time recording started, or ``None`` while unarmed:
        #: until :meth:`arm`, every ``record``/``mark_idle_reason`` is a
        #: no-op.
        self.armed_at: Optional[float] = None
        #: Raw (start, end, category, owner) tuples.  One is appended per
        #: CPU charge, so the hot path stores bare tuples; the
        #: :attr:`segments` property materialises :class:`Segment` objects
        #: for readers.  A plain list in unbounded mode, a bounded deque
        #: in ring mode (both support ``append``/``[-1]``/iteration).
        self._segments: Any = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        #: Ring-buffer size, or ``None`` for unbounded recording.
        self.capacity: Optional[int] = capacity
        #: Busy segments discarded by the ring buffer (0 in unbounded mode).
        self.dropped: int = 0
        #: (time, reason) marks; reason applies until the next mark.
        self._idle_marks: list[tuple[float, Category]] = [(0.0, Category.IDLE_OTHER)]

    # -- recording ---------------------------------------------------------
    def arm(self, time: float) -> None:
        """Start recording at simulated ``time`` (no-op if already armed)."""
        if self.armed_at is None:
            self.armed_at = time

    def record(
        self,
        start: float,
        end: float,
        category: Category,
        owner: Optional[str] = None,
    ) -> None:
        """Append a busy segment (zero-length segments are dropped)."""
        if self.armed_at is None:
            return
        if end < start:
            raise ValueError(f"segment ends before it starts: [{start}, {end})")
        if end == start:
            return
        segments = self._segments
        if segments and start < segments[-1][1] - 1e-9:
            raise ValueError(
                f"overlapping busy segments on {self.name}: new [{start}, {end}) "
                f"begins before previous ends at {segments[-1][1]}"
            )
        capacity = self.capacity
        if capacity is not None and len(segments) == capacity:
            self.dropped += 1
        segments.append((start, end, category, owner))

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Switch between unbounded and ring-buffer (keep last N) mode.

        Existing segments are preserved (the newest ``capacity`` of them
        when shrinking into ring mode).  Mirrors
        :meth:`~repro.metrics.events.TraceStream.set_capacity`.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if capacity is None:
            self._segments = list(self._segments)
        else:
            if len(self._segments) > capacity:
                self.dropped += len(self._segments) - capacity
            self._segments = deque(self._segments, maxlen=capacity)
        self.capacity = capacity

    def mark_idle_reason(self, time: float, reason: Category) -> None:
        """Record that *subsequent* idle time has the given cause."""
        if self.armed_at is None:
            return
        if reason not in IDLE_CATEGORIES:
            raise ValueError(f"not an idle category: {reason}")
        last_t, last_r = self._idle_marks[-1]
        if reason == last_r:
            return
        if time < last_t:
            raise ValueError(f"idle mark out of order: {time} < {last_t}")
        self._idle_marks.append((time, reason))

    # -- queries -----------------------------------------------------------
    def check_window(self, t0: float) -> None:
        """Raise unless this timeline was recording from ``t0`` on."""
        armed_at = self.armed_at
        if armed_at is None:
            raise ValueError(
                f"{self.name}: the timeline never recorded; create the "
                f"SoftwareOscilloscope before run()"
            )
        if t0 < armed_at:
            raise ValueError(
                f"{self.name}: window starts at {t0} us but recording began "
                f"at {armed_at} us; create the SoftwareOscilloscope before "
                f"run()"
            )

    @property
    def segments(self) -> tuple[Segment, ...]:
        return tuple(Segment(s, e, c, o) for s, e, c, o in self._segments)

    @property
    def end_time(self) -> float:
        """End of the last recorded busy segment."""
        return self._segments[-1][1] if self._segments else 0.0

    def busy_time(
        self,
        category: Optional[Category] = None,
        t0: float = 0.0,
        t1: float = float("inf"),
    ) -> float:
        """Total busy time (optionally one category) within ``[t0, t1)``."""
        self.check_window(t0)
        total = 0.0
        for start, end, cat, _owner in self._segments:
            if category is not None and cat is not category:
                continue
            lo = start if start > t0 else t0
            hi = end if end < t1 else t1
            if hi > lo:
                total += hi - lo
        return total

    def idle_reason_at(self, time: float) -> Category:
        """The idle reason in effect at ``time``."""
        reason = self._idle_marks[0][1]
        for t, r in self._idle_marks:
            if t > time:
                break
            reason = r
        return reason

    def idle_segments(self, t0: float, t1: float) -> Iterator[Segment]:
        """Idle intervals within ``[t0, t1)``, subdivided at reason marks."""
        self.check_window(t0)
        gaps: list[tuple[float, float]] = []
        cursor = t0
        for start, end, _cat, _owner in self._segments:
            if end <= t0:
                continue
            if start >= t1:
                break
            if start > cursor:
                gaps.append((cursor, min(start, t1)))
            cursor = max(cursor, end)
        if cursor < t1:
            gaps.append((cursor, t1))
        mark_times = [t for t, _ in self._idle_marks]
        for gap_start, gap_end in gaps:
            cuts = [gap_start]
            cuts += [t for t in mark_times if gap_start < t < gap_end]
            cuts.append(gap_end)
            for a, b in zip(cuts, cuts[1:]):
                if b > a:
                    yield Segment(a, b, self.idle_reason_at(a))

    def breakdown(self, t0: float, t1: float) -> dict[Category, float]:
        """Time in every category within ``[t0, t1)`` (sums to ``t1 - t0``)."""
        if t1 <= t0:
            raise ValueError(f"empty window [{t0}, {t1})")
        self.check_window(t0)
        result = {cat: 0.0 for cat in Category}
        for start, end, cat, _owner in self._segments:
            lo = start if start > t0 else t0
            hi = end if end < t1 else t1
            if hi > lo:
                result[cat] += hi - lo
        for seg in self.idle_segments(t0, t1):
            result[seg.category] += seg.duration
        return result


class TraceLog:
    """A node's view over the structured trace stream.

    Standalone construction (no arguments) gives a private stream -- the
    original timestamped-log behaviour.  Kernels pass the simulator's
    shared stream plus their node name, so application events written
    through ``env.log`` land in the unified vstat export alongside the
    kernel's own structured events, while ``count``/``select``/``tags``
    stay scoped to this node.
    """

    def __init__(
        self, stream: Optional[TraceStream] = None, node: str = ""
    ) -> None:
        self.stream = stream if stream is not None else TraceStream()
        self.node = node

    def log(self, time: float, tag: str, data: Any = None) -> None:
        stream = self.stream
        if stream.enabled:
            stream.emit(time, node=self.node, subsystem="app", name=tag,
                        data=data)

    def _mine(self) -> list:
        if self.node:
            return self.stream.select(node=self.node)
        return list(self.stream.events)

    @property
    def entries(self) -> list[tuple[float, str, Any]]:
        """Legacy view: (time, tag, data) tuples for this node."""
        return [(e.time, e.name, e.fields.get("data")) for e in self._mine()]

    def count(self, tag: str) -> int:
        return sum(1 for e in self._mine() if e.name == tag)

    def select(self, tag: str) -> list[tuple[float, Any]]:
        """All (time, data) entries with the given tag."""
        return [
            (e.time, e.fields.get("data"))
            for e in self._mine() if e.name == tag
        ]

    def tags(self) -> Iterable[str]:
        seen: dict[str, None] = {}
        for event in self._mine():
            seen.setdefault(event.name, None)
        return seen.keys()
