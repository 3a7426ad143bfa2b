"""Decentralized system calls (paper Section 3.3, future work).

*"We are working on a better solution to these problems that will
alleviate the bottleneck of using a single host for all the system calls
of an application.  It uses a decentralized scheme that distributes the
overhead of system calls by allowing a process to direct system calls to
any of the host workstations."*

This module implements that scheme: a :class:`DecentralizedSyscallService`
binds a node to stubs on *several* hosts and spreads calls across them.
The single-host organisation of :func:`repro.vorx.stub.attach_stubs` is
the same service with one binding.
The hosts share one network filesystem (the same
:class:`~repro.hostos.filesystem.FileSystem` instance), so file state is
consistent wherever a call lands.  File-descriptor affinity is preserved:
an ``open`` picks a host (least outstanding calls, FIFO tie-break) and
subsequent operations on that descriptor return to the same host, because
the descriptor state lives in that stub's process.

Experiment E18 (an extension benchmark) measures aggregate syscall
throughput versus host count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.hostos.filesystem import FileSystem
from repro.hpc.message import MessageKind, Packet
from repro.vorx.errors import SyscallError
from repro.vorx.stub import SYSCALL_REQUEST_BYTES, Stub, StubService
from repro.vorx.subprocesses import Subprocess

if TYPE_CHECKING:  # pragma: no cover
    from repro.vorx.kernel import NodeKernel
    from repro.vorx.system import VorxSystem


class HostBinding:
    """One node's binding to a stub on one host."""

    def __init__(self, host_addr: int, stub: Stub) -> None:
        self.host_addr = host_addr
        self.stub = stub
        #: Calls sent to this host and not yet answered.
        self.outstanding = 0
        self.calls_sent = 0


class DecentralizedSyscallService:
    """Node-side syscall forwarding (installed as ``kernel.syscalls``).

    Spreads calls over the hosts of its bindings; with one binding every
    call goes to that host's stub.
    """

    def __init__(self, kernel: "NodeKernel",
                 bindings: list[HostBinding]) -> None:
        if not bindings:
            raise ValueError("need at least one host binding")
        self.kernel = kernel
        self.bindings = bindings
        #: fd -> binding that owns the descriptor's state.
        self._fd_home: dict[int, HostBinding] = {}
        # Rotating tie-break so concurrent nodes spread over the hosts
        # instead of all picking the lowest address; seeded by the node
        # address for determinism.
        self._rotation = kernel.address % len(bindings)
        kernel.syscalls = self  # type: ignore[attr-defined]
        kernel.register_handler(MessageKind.SYSCALL_REPLY, self._on_reply)

    # ------------------------------------------------------------------
    def _choose(self, op: str, args: tuple) -> HostBinding:
        """Pick the host for this call.

        Descriptor-bound operations must return to the descriptor's home;
        everything else goes to the host with the fewest outstanding
        calls (FIFO tie-break keeps the simulation deterministic).
        """
        if op in ("close", "read", "write", "seek") and args:
            fd = args[0]
            home = self._fd_home.get(fd)
            if home is not None:
                return home
        n = len(self.bindings)
        self._rotation = (self._rotation + 1) % n
        return min(
            (self.bindings[(self._rotation + i) % n] for i in range(n)),
            key=lambda b: b.outstanding,
        )

    def call(self, sp: Subprocess, op: str, args: tuple):
        """Generator: forward one system call to a chosen host."""
        kernel = self.kernel
        costs = kernel.costs
        kernel.count_syscall(op)
        binding = self._choose(op, args)
        kernel.metrics.counter(
            "syscall.host_calls", labels=(str(binding.host_addr),)
        ).inc()
        token, event = kernel.expect_reply()
        bulk = sum(len(a) for a in args if isinstance(a, (bytes, bytearray)))
        size = min(SYSCALL_REQUEST_BYTES + bulk, costs.hpc_max_message)
        yield kernel.k_exec(costs.syscall_overhead + costs.copy_time(size))
        binding.outstanding += 1
        binding.calls_sent += 1
        kernel.post(
            dst=binding.host_addr, size=size, kind=MessageKind.SYSCALL,
            channel=binding.stub.stub_id,
            payload={"token": token, "op": op, "args": args},
        )
        try:
            reply = yield from kernel.await_reply(sp, token, event)
        finally:
            binding.outstanding -= 1
        if not reply["ok"]:
            raise SyscallError(f"{op}{args!r} failed: {reply['value']}")
        if op == "open":
            self._fd_home[reply["value"]] = binding
        elif op == "close" and args:
            self._fd_home.pop(args[0], None)
        return reply["value"]

    def _on_reply(self, packet: Packet):
        kernel = self.kernel
        yield kernel.isr_exec(
            kernel.costs.chan_recv_kernel + kernel.costs.copy_time(packet.size)
        )
        kernel.resolve(packet.payload["token"], packet.payload)

    # ------------------------------------------------------------------
    def distribution(self) -> dict[int, int]:
        """host address -> calls sent (for the E18 report)."""
        return {b.host_addr: b.calls_sent for b in self.bindings}


def attach_decentralized_stubs(
    system: "VorxSystem",
    host_indices: list[int],
    node_indices: list[int],
    filesystem: Optional[FileSystem] = None,
) -> dict[int, DecentralizedSyscallService]:
    """Bind every listed node to a stub on *every* listed host.

    All hosts serve the same (network) filesystem.  Returns the per-node
    services keyed by node index.
    """
    if not host_indices:
        raise ValueError("need at least one host")
    shared_fs = filesystem or FileSystem()
    stub_services: list[StubService] = []
    for host_index in host_indices:
        host = system.workstation(host_index)
        service = getattr(host, "stub_service", None)
        if service is None:
            service = StubService(host, filesystem=shared_fs)
        stub_services.append(service)
    result: dict[int, DecentralizedSyscallService] = {}
    for node_index in node_indices:
        bindings = []
        for host_index, service in zip(host_indices, stub_services):
            stub = service.create_stub()
            bindings.append(
                HostBinding(system.workstation(host_index).address, stub)
            )
        result[node_index] = DecentralizedSyscallService(
            system.node(node_index), bindings
        )
    return result
