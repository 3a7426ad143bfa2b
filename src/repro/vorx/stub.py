"""Host stub processes and forwarded UNIX system calls (Section 3.3).

*"Each process running on a processing node has a stub process running on
the host.  ...  Each time a system call (such as a write to a file) is
executed on the processing node, it sends a message to the stub.  The
stub then executes the system call and passes the results back to the
node.  This method perfectly replicates the host environment on the
node."*

Both stub organisations are supported:

* **one stub per process** -- perfect replication: every node process has
  its own fd table and blocking calls affect only that process;
* **shared stub** -- one stub serves many processes of an application:
  much cheaper to start (see :mod:`repro.vorx.download`), but a blocking
  system call from one process stalls *all* of them, and the SunOS
  32-descriptor limit is shared across the whole application.

Experiment E17 reproduces both pathologies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hostos.filesystem import FileSystem
from repro.hostos.unix import HostProcess
from repro.hpc.message import MessageKind, Packet
from repro.sim.resources import Store
from repro.vorx.subprocesses import BlockReason, Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.kernel import NodeKernel
    from repro.vorx.system import VorxSystem

#: Wire size of a syscall request (marshalled op + args), excluding bulk data.
SYSCALL_REQUEST_BYTES = 64
#: Wire size of a syscall reply, excluding bulk data.
SYSCALL_REPLY_BYTES = 32


class Stub:
    """One stub process on the host."""

    def __init__(
        self,
        service: "StubService",
        stub_id: int,
        fd_limit: int,
    ) -> None:
        self.service = service
        self.stub_id = stub_id
        host = service.kernel
        self.process = HostProcess(
            f"stub{stub_id}@{host.name}", service.filesystem, fd_limit
        )
        self.requests: Store = Store(host.sim)
        self.calls_served = 0
        self.subprocess: Optional[Subprocess] = None

    def start(self) -> None:
        """Spawn the stub's server loop as a host subprocess."""
        self.subprocess = self.service.kernel.spawn(
            self._serve, name=f"stub{self.stub_id}",
            process_name=f"stub{self.stub_id}",
        )

    def _serve(self, env):
        """The stub's main loop: serve forwarded calls one at a time.

        This serialisation is the point: a blocking call (e.g. a read
        from the keyboard) stalls every other process served by this stub
        until it completes (Section 3.3).
        """
        costs = env.kernel.costs
        while True:
            if len(self.requests) == 0:
                event = self.requests.get()
                request = yield from env.kernel.block(
                    env.subprocess, BlockReason.INPUT, event
                )
            else:
                request = (yield self.requests.get())
            src, token, op, args = request
            if op == "_shutdown":
                return
            yield from env.compute(costs.stub_syscall, label=f"sys-{op}")
            ok, value = True, None
            try:
                if op == "stdin_read":
                    # A blocking call: the stub sleeps until "input" is
                    # typed, stalling every request behind it.
                    (duration,) = args
                    yield from env.sleep(duration)
                    value = b"line\n"
                elif op == "open":
                    value = self.process.open(*args)
                elif op == "close":
                    value = self.process.close(*args)
                elif op == "read":
                    value = self.process.read(*args)
                elif op == "write":
                    fd, payload = args
                    value = self.process.write(fd, payload)
                elif op == "seek":
                    value = self.process.seek(*args)
                elif op == "create":
                    path, data = args
                    self.service.filesystem.create(path, data)
                elif op == "unlink":
                    self.service.filesystem.unlink(args[0])
                elif op == "stat":
                    value = self.service.filesystem.size(args[0])
                elif op == "getpid":
                    value = 1000 + self.stub_id
                else:
                    ok, value = False, f"ENOSYS: {op}"
            except OSError as exc:
                ok, value = False, f"{exc.args[0]}: {exc.args[1]}"
            except Exception as exc:  # filesystem errors etc.
                ok, value = False, f"EIO: {exc}"
            self.calls_served += 1
            reply_size = SYSCALL_REPLY_BYTES + (
                len(value) if isinstance(value, (bytes, bytearray)) else 0
            )
            env.kernel.post(
                dst=src, size=min(reply_size, costs.hpc_max_message),
                kind=MessageKind.SYSCALL_REPLY,
                payload={"token": token, "ok": ok, "value": value},
            )


class StubService:
    """Host-side service owning every stub on one workstation."""

    def __init__(self, kernel: "NodeKernel",
                 filesystem: Optional[FileSystem] = None) -> None:
        if not kernel.is_host:
            raise ValueError(f"{kernel.name} is not a host workstation")
        self.kernel = kernel
        self.filesystem = filesystem or FileSystem()
        self.stubs: dict[int, Stub] = {}
        self._next_stub_id = 1
        kernel.register_handler(MessageKind.SYSCALL, self._on_syscall)
        kernel.stub_service = self  # type: ignore[attr-defined]

    def create_stub(self, fd_limit: Optional[int] = None) -> Stub:
        """Create and start one stub process (bookkeeping only; callers
        performing a realistic start-up charge ``stub_create`` etc.)."""
        stub = Stub(
            self, self._next_stub_id,
            fd_limit if fd_limit is not None else self.kernel.costs.host_fd_limit,
        )
        self._next_stub_id += 1
        self.stubs[stub.stub_id] = stub
        stub.start()
        return stub

    def _on_syscall(self, packet: Packet):
        """Generator (ISR context): queue a forwarded call on its stub."""
        kernel = self.kernel
        yield kernel.isr_exec(
            kernel.costs.chan_recv_kernel + kernel.costs.copy_time(packet.size)
        )
        stub = self.stubs.get(packet.channel)
        if stub is None:
            body = packet.payload
            kernel.post(
                dst=packet.src, size=SYSCALL_REPLY_BYTES,
                kind=MessageKind.SYSCALL_REPLY,
                payload={"token": body["token"], "ok": False,
                         "value": f"ESRCH: no stub {packet.channel}"},
            )
            return
        body = packet.payload
        stub.requests.try_put((packet.src, body["token"], body["op"], body["args"]))


def attach_stubs(
    system: "VorxSystem",
    host_index: int,
    node_indices: list[int],
    shared: bool = False,
    fd_limit: Optional[int] = None,
) -> list[Stub]:
    """Wire node processes to host stubs.

    ``shared=True`` uses one stub for every listed node (the cheap tree
    organisation); otherwise each node gets its own stub (perfect host
    replication).  Returns the stubs created.
    """
    from repro.vorx.syscalls import DecentralizedSyscallService, HostBinding

    host = system.workstation(host_index)
    service = getattr(host, "stub_service", None)
    if service is None:
        service = StubService(host)
    stubs = [service.create_stub(fd_limit)] if shared else []
    for index in node_indices:
        if not shared:
            stubs.append(service.create_stub(fd_limit))
        DecentralizedSyscallService(
            system.node(index), [HostBinding(host.address, stubs[-1])]
        )
    return stubs
