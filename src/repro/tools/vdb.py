"""vdb: the symbolic debugger (paper Section 6).

The original vdb descends from sdb: a single-process breakpoint debugger
with the crucial VORX addition that it can *attach to any process that is
running* and *switch between the processes* of an application -- the
programmer no longer has to guess in advance which process to start under
the debugger.

The simulation analogue: :class:`Vdb` enumerates every subprocess on
every node, attaches to any of them by uid, reports its scheduling state
(and why it is blocked), and -- because simulated programs are Python
generators -- recovers a real *backtrace* by walking the suspended
``yield from`` chain.  ``waiting_for`` names the type of the event the
process waits on: ``"Job"`` while it runs or queues for a CPU charge
(the charge is its own completion event), ``"Event"`` while it sleeps
on a timer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.vorx.subprocesses import Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.system import VorxSystem


@dataclass(frozen=True)
class ProcessInspection:
    """A snapshot of one attached subprocess."""

    uid: str
    node: int
    state: str
    blocked_on: Optional[str]
    priority: int
    #: Innermost-first chain of suspended function names + line numbers.
    backtrace: tuple[str, ...]
    waiting_for: Optional[str]

    def format(self) -> str:
        lines = [
            f"process {self.uid} on node {self.node}",
            f"  state:    {self.state}"
            + (f" (on {self.blocked_on})" if self.blocked_on else ""),
            f"  priority: {self.priority}",
        ]
        if self.waiting_for:
            lines.append(f"  waiting:  {self.waiting_for}")
        lines.append("  backtrace (innermost last):")
        for frame in self.backtrace:
            lines.append(f"    {frame}")
        return "\n".join(lines)


class Vdb:
    """Attach-anywhere debugger over a running system."""

    def __init__(self, system: "VorxSystem") -> None:
        self.system = system
        self._current: Optional[Subprocess] = None

    # ------------------------------------------------------------------
    def processes(self) -> list[Subprocess]:
        """Every subprocess on every node (like vdb's process list)."""
        result = []
        for kernel in self.system.all_kernels:
            result.extend(kernel.subprocesses)
        return result

    def attach(self, uid: str) -> ProcessInspection:
        """Attach to a (running or finished) subprocess by uid."""
        for sp in self.processes():
            if sp.uid == uid or sp.name == uid:
                self._current = sp
                return self.inspect(sp)
        raise KeyError(f"no such process: {uid}")

    def switch(self, uid: str) -> ProcessInspection:
        """Switch the debugger to another process of the application."""
        return self.attach(uid)

    @property
    def current(self) -> Optional[Subprocess]:
        return self._current

    # ------------------------------------------------------------------
    def inspect(self, sp: Subprocess) -> ProcessInspection:
        """Snapshot one subprocess's state and backtrace."""
        backtrace = tuple(self._backtrace(sp))
        waiting = None
        if sp.process is not None and sp.process.is_alive:
            target = sp.process.target
            if target is not None:
                waiting = type(target).__name__
        return ProcessInspection(
            uid=sp.uid,
            node=sp.kernel.address,
            state=sp.state.value,
            blocked_on=str(sp.blocked_on) if sp.blocked_on else None,
            priority=sp.priority,
            backtrace=backtrace,
            waiting_for=waiting,
        )

    @staticmethod
    def _backtrace(sp: Subprocess) -> list[str]:
        """Walk the suspended generator chain (outermost first)."""
        frames: list[str] = []
        process = sp.process
        if process is None or not process.is_alive:
            return ["<not running>"]
        generator = process._generator
        while generator is not None:
            frame = getattr(generator, "gi_frame", None)
            if frame is None:
                break
            frames.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
            generator = getattr(generator, "gi_yieldfrom", None)
            if generator is not None and not hasattr(generator, "gi_frame"):
                break
        return frames or ["<no frames>"]
