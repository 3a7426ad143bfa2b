"""The programming interface handed to simulated application code.

A VORX program is a Python generator function taking an :class:`Env`:

.. code-block:: python

    def worker(env):
        ch = yield from env.open("results")
        yield from env.compute(500.0, label="solve")
        yield from env.write(ch, 1024, payload=answer)

Everything that consumes simulated time is a generator to be driven with
``yield from``; plain methods are free (bookkeeping only).  The API
mirrors the paper's: channels with open/read/write/multiplexed-read,
kernel semaphores, subprocess spawning, user-defined communications
objects with interrupt handlers or polling, and UNIX system calls
forwarded to the host stub (when one is attached).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.vorx.channels import ChannelEndpoint
from repro.vorx.errors import SyscallError, VorxError
from repro.vorx.objects import Handler, UserObject
from repro.vorx.subprocesses import (
    BlockReason, KernelEnv, KernelSemaphore, Subprocess,
)


class ChannelHandle:
    """A context-managed channel: closes itself when the ``with`` exits.

    Returned by :meth:`Env.channel`.  User programs stop hand-pairing
    ``open``/``close``:

    .. code-block:: python

        def producer(env):
            with (yield from env.channel("results")) as ch:
                yield from env.write(ch, 1024, payload="hello")
        # leaving the block -- normally or via an exception -- closes
        # the channel and notifies the peer

    The close runs as a background kernel process (a ``with`` block
    cannot ``yield from`` inside ``__exit__``), charging the same kernel
    time as an explicit :meth:`Env.close`.  Everywhere an
    :class:`~repro.vorx.channels.ChannelEndpoint` is accepted
    (``env.read``/``env.write``/``env.read_any``/``env.close``), a handle
    works too.
    """

    def __init__(self, env: "Env", endpoint: ChannelEndpoint) -> None:
        self._env = env
        #: The underlying endpoint (what the kernel services operate on).
        self.endpoint = endpoint

    # -- convenience passthroughs ------------------------------------------
    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def eid(self) -> int:
        return self.endpoint.eid

    @property
    def closed(self) -> bool:
        return self.endpoint.closed

    # -- context manager ---------------------------------------------------
    def __enter__(self) -> "ChannelHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close_soon()
        return False

    def close_soon(self) -> None:
        """Schedule the close (idempotent; safe after an explicit close)."""
        if self.endpoint.closed:
            return
        kernel = self._env.kernel
        kernel.sim.process(
            kernel.channels.close(self._env.subprocess, self.endpoint)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChannelHandle {self.endpoint!r}>"


def _endpoint_of(channel) -> ChannelEndpoint:
    """Accept either a raw endpoint or a :class:`ChannelHandle`."""
    return getattr(channel, "endpoint", channel)


class Env(KernelEnv):
    """One subprocess's view of the VORX kernel."""

    def log(self, tag: str, data: Any = None) -> None:
        """Record an application event in the node trace."""
        self._kernel.trace.log(self.now, tag, data)

    # -- channels ---------------------------------------------------------------
    def open(self, name: str):
        """Generator: open channel ``name``; blocks until a peer opens it."""
        endpoint = yield from self._kernel.channels.open(self._sp, name)
        return endpoint

    def channel(self, name: str):
        """Generator: open ``name`` and return a context-managed handle.

        The handle auto-closes on scope exit (including exceptional
        exit), so programs no longer hand-pair ``open``/``close``::

            with (yield from env.channel("data")) as ch:
                yield from env.write(ch, 1024)
        """
        endpoint = yield from self.open(name)
        return ChannelHandle(self, endpoint)

    def write(self, channel, nbytes: int, payload: Any = None):
        """Generator: stop-and-wait write (blocks until acknowledged)."""
        yield from self._kernel.channels.write(
            self._sp, _endpoint_of(channel), nbytes, payload
        )

    def read(self, channel):
        """Generator: read the next message; returns ``(nbytes, payload)``."""
        result = yield from self._kernel.channels.read(
            self._sp, _endpoint_of(channel)
        )
        return result

    def read_any(self, channels: list):
        """Generator: multiplexed read; returns ``(channel, nbytes, payload)``."""
        result = yield from self._kernel.channels.read_any(
            self._sp, [_endpoint_of(channel) for channel in channels]
        )
        return result

    def close(self, channel):
        """Generator: close our end and notify the peer."""
        yield from self._kernel.channels.close(
            self._sp, _endpoint_of(channel)
        )

    # -- subprocesses and semaphores ----------------------------------------------
    def spawn(
        self,
        program: Callable[["Env"], Generator],
        name: Optional[str] = None,
        priority: int = 0,
    ) -> Subprocess:
        """Start another subprocess of this process (shared address space)."""
        return self._kernel.spawn(
            program, name=name, priority=priority,
            process_name=self._sp.process_name,
        )

    def join(self, sp: Subprocess):
        """Generator: block until another subprocess finishes."""
        if sp.process is None:
            raise VorxError(f"{sp} was never started")
        if not sp.process.is_alive:
            return sp.result
        result = yield from self._kernel.block(
            self._sp, BlockReason.OTHER, sp.process
        )
        return result

    def semaphore(self, value: int = 0, name: str = "sem") -> KernelSemaphore:
        """Create a kernel semaphore (Section 5's subprocess coordination)."""
        return KernelSemaphore(self._kernel, value, name)

    def p(self, semaphore: KernelSemaphore):
        """Generator: P (may block)."""
        yield from semaphore.p(self._sp)

    def v(self, semaphore: KernelSemaphore):
        """Generator: V (never blocks; charges the kernel operation)."""
        yield self._kernel.k_exec(self._kernel.costs.semaphore_op)
        semaphore.v()

    # -- user-defined communications objects --------------------------------------
    def create_object(
        self, name: Optional[str] = None, handler: Optional[Handler] = None
    ):
        """Generator: create a user-defined communications object.

        With ``name``, blocks until a peer creates an object of the same
        name (rendezvous through the object manager).  ``handler`` runs at
        interrupt level for each arriving message; omit it to use polling
        via :meth:`obj_poll`.
        """
        obj = yield from self._kernel.objects.create(self._sp, name, handler)
        return obj

    def obj_send(
        self,
        obj: UserObject,
        nbytes: int,
        payload: Any = None,
        dst: Optional[int] = None,
        dst_oid: Optional[int] = None,
    ):
        """Generator: direct-to-hardware send; no kernel trap, no flow control."""
        yield from self._kernel.objects.send(obj, nbytes, payload, dst, dst_oid)

    def obj_poll(self, obj: UserObject):
        """Generator: test for input (single-subprocess structure, Section 5)."""
        result = yield from self._kernel.objects.poll(obj)
        return result

    def disable_interrupts(self) -> None:
        """Switch the interface to polling mode (Section 5)."""
        self._kernel.iface.disable_interrupts()

    def enable_interrupts(self) -> None:
        """Leave polling mode: the kernel drains any backlog that
        arrived while the interface was masked."""
        self._kernel.iface.enable_interrupts()

    # -- flow-controlled multicast (Section 4.2) ------------------------------------
    def mc_join(self, name: str):
        """Generator: join multicast group ``name`` as a receiver."""
        group = yield from self._kernel.multicast.join(self._sp, name)
        return group

    def mc_open_send(self, name: str, n_receivers: int):
        """Generator: open group ``name`` for sending; blocks until
        ``n_receivers`` members have joined."""
        handle = yield from self._kernel.multicast.open_send(
            self._sp, name, n_receivers
        )
        return handle

    def mc_send(self, handle, nbytes: int, payload: Any = None):
        """Generator: flow-controlled multicast; blocks until every
        member's kernel acknowledged."""
        yield from self._kernel.multicast.send(self._sp, handle, nbytes, payload)

    def mc_read(self, group):
        """Generator: read the next multicast message; ``(nbytes, payload)``."""
        result = yield from self._kernel.multicast.read(self._sp, group)
        return result

    # -- forwarded UNIX system calls ----------------------------------------------
    def syscall(self, op: str, *args: Any):
        """Generator: execute a UNIX system call via the host stub.

        Only available to processes started through a host (see
        :mod:`repro.vorx.stub`); the call is forwarded to the stub
        process, executed in the host environment, and the result
        returned (Section 3.3).
        """
        service = getattr(self._kernel, "syscalls", None)
        if service is None:
            raise SyscallError(
                f"{self._kernel.name}: no stub attached; processes must be "
                "started through a host to use system calls"
            )
        result = yield from service.call(self._sp, op, args)
        return result
