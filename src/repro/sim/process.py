"""Generator-based simulated processes.

A process is an ordinary Python generator that yields :class:`Event`
objects.  The engine resumes the generator with the event's value when it
triggers (or throws the event's exception into it).  A :class:`Process` is
itself an event that triggers with the generator's return value, so
processes can wait on each other with ``yield other_process``.
"""

from __future__ import annotations

from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.events import Event, Interrupt, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator


class Process(Event):
    """A running simulated process wrapping a generator.

    Create via :meth:`Simulator.process`.  Supports cooperative waiting
    (``yield event``), composition (``yield from subroutine(...)``) and
    asynchronous interruption (:meth:`interrupt`).
    """

    __slots__ = ("_generator", "_send", "_throw", "_wake", "_target", "name")

    def __init__(
        self, sim: "Simulator", generator: Generator, name: Optional[str] = None
    ) -> None:
        if type(generator) is not GeneratorType and (
            not hasattr(generator, "send") or not hasattr(generator, "throw")
        ):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}: "
                f"{generator!r} (did you call a plain function?)"
            )
        # ``Event.__init__`` inlined (a Process *is* an event; one spawn
        # per ISR burst and per subprocess makes this hot).
        self.sim = sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self._generator = generator
        # Bound-method caches: ``_resume`` runs once per wakeup of every
        # simulated process, so skip the per-call attribute lookups --
        # and ``_wake`` is the one bound-method object registered as the
        # callback everywhere, instead of allocating ``self._resume``
        # fresh on every yield.
        self._send = generator.send
        self._throw = generator.throw
        self._wake = self._resume
        self.name = name or getattr(generator, "__name__", "process")
        #: The event this process is currently waiting on (None if running
        #: or finished).
        self._target: Optional[Event] = None
        # Kick off at the current time via an urgent start event.
        sim.start(self._wake)

    # -- state ---------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not exited."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process is waiting for (for debuggers)."""
        return self._target

    # -- interruption ----------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        No-op semantics mirror real kernels: interrupting a dead process is
        an error; interrupting a process that is about to be resumed is
        processed before that resumption (urgent priority).
        """
        if not self.is_alive:
            raise RuntimeError(f"cannot interrupt dead process {self.name!r}")
        if self._target is None:
            raise RuntimeError(
                f"cannot interrupt {self.name!r}: it has not yielded yet"
            )
        # Detach from what it was waiting on, then resume with a failure.
        sim = self.sim
        interrupt_event = Event(sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._wake)
        sim._imm_urgent.append(interrupt_event)

    # -- engine internals --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        if self._value is not PENDING:  # inlined ``not self.is_alive``
            # A stale wakeup (e.g. the original target of an interrupted
            # process firing later).  Swallow failures it carried.
            if event._ok is False:
                event.defuse()
            return
        # Detach from the old target so stale triggers are recognisable.
        wake = self._wake
        target = self._target
        if target is not None and target is not event:
            if target.callbacks is not None:
                try:
                    target.callbacks.remove(wake)
                except ValueError:
                    pass
        self._target = None

        while True:
            try:
                if event._ok:
                    next_event = self._send(event._value)
                else:
                    event.defuse()
                    next_event = self._throw(event._value)
            except StopIteration as stop:
                # Dropping ``_wake`` breaks the process -> bound method ->
                # process cycle, so a finished process is freed by
                # reference counting instead of the cyclic collector.
                self._wake = None
                # ``succeed`` inlined: ``is_alive`` was checked on entry,
                # so this process event is still pending here.
                self._ok = True
                self._value = stop.value
                self.sim._imm_normal.append(self)
                return
            except BaseException as exc:
                self._wake = None
                self.fail(exc)
                return

            # Fetch ``callbacks`` directly instead of ``isinstance(...,
            # Event)`` + a second attribute load: this runs once per yield
            # of every simulated process.  Non-events surface here as an
            # AttributeError.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                error = RuntimeError(
                    f"process {self.name!r} yielded a non-event: "
                    f"{next_event!r} (missing `yield from`?)"
                )
                self._wake = None
                self.fail(error)
                return

            if callbacks is not None:
                # Still pending (or triggered but unprocessed): register.
                callbacks.append(wake)
                self._target = next_event
                return
            # Already processed -- resume immediately without a queue trip.
            event = next_event

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else "finished"
        return f"<Process {self.name!r} {state}>"
