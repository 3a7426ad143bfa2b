"""Top-level system builder: fabric + kernels, ready to run programs.

:class:`VorxSystem` assembles a complete HPC/VORX machine: an HPC fabric
of the right shape for the requested node count, one
:class:`~repro.vorx.kernel.NodeKernel` per processing node and per host
workstation, and the distributed object manager spanning the processing
nodes.  It is the main entry point of the library:

.. code-block:: python

    from repro import VorxSystem

    system = VorxSystem(n_nodes=2)

    def sender(env):
        with (yield from env.channel("data")) as ch:
            yield from env.write(ch, 1024)

    def receiver(env):
        with (yield from env.channel("data")) as ch:
            size, _ = yield from env.read(ch)
        return size

    system.spawn(0, sender)
    rx = system.spawn(1, receiver)
    system.run()
    assert rx.result == 1024
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Optional

from repro.fabric.base import FabricBackend
from repro.fabric.registry import available_topologies, create_fabric
from repro.hpc.topology import build_lam_system, build_single_cluster
from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.vorx.kernel import NodeKernel
from repro.vorx.subprocesses import Subprocess


class VorxSystem:
    """A complete simulated HPC/VORX installation."""

    def __init__(
        self,
        *,
        n_nodes: int = 2,
        n_workstations: int = 0,
        costs: CostModel = DEFAULT_COSTS,
        sim: Optional[Simulator] = None,
        manager: str = "distributed",
        topology: Optional[str] = None,
        fabric: Optional[FabricBackend] = None,
        faults=None,
    ) -> None:
        """Build the machine.  Arguments are keyword-only.

        Parameters
        ----------
        n_nodes:
            Processing nodes in the pool.
        n_workstations:
            Host workstations (for stub/download/host experiments).
        topology:
            Interconnect selection by name (:mod:`repro.fabric`):
            ``"star"``, ``"hypercube"``, ``"hyperx"``, or ``"mesh"``.
            ``None`` (the default) keeps the historical auto-sizing --
            a single cluster up to twelve endpoints, the Figure 1 LAM
            hypercube beyond -- with construction order bit-identical
            to earlier releases (the determinism goldens pin it).
        fabric:
            A pre-built :class:`~repro.fabric.base.FabricBackend`
            instance to run on, mutually exclusive with ``topology=``.
            The system adopts the fabric's simulator; passing a
            conflicting ``sim=`` raises.
        manager:
            ``"distributed"`` (VORX: object manager replicated on every
            node, names spread by distributed hashing) or
            ``"centralized"`` (Meglos-style: one manager handles every
            open -- the Section 3.2 bottleneck, for experiment E9).
        faults:
            Optional :class:`repro.faults.FaultPlan` attached once the
            machine is built (equivalent to ``plan.attach(system)``).
        """
        if not isinstance(n_nodes, int) or isinstance(n_nodes, bool):
            raise TypeError(
                f"VorxSystem(n_nodes=...) must be an int, got {n_nodes!r}"
            )
        if n_nodes < 1:
            raise ValueError(
                f"VorxSystem(n_nodes=...) needs at least one node, "
                f"got {n_nodes}"
            )
        if not isinstance(n_workstations, int) or isinstance(
            n_workstations, bool
        ):
            raise TypeError(
                f"VorxSystem(n_workstations=...) must be an int, "
                f"got {n_workstations!r}"
            )
        if n_workstations < 0:
            raise ValueError(
                f"VorxSystem(n_workstations=...) cannot be negative, "
                f"got {n_workstations}"
            )
        if not isinstance(costs, CostModel):
            raise TypeError(
                f"VorxSystem(costs=...) must be a CostModel, got {costs!r}"
            )
        if sim is not None and not isinstance(sim, Simulator):
            raise TypeError(
                f"VorxSystem(sim=...) must be a Simulator or None, "
                f"got {sim!r}"
            )
        if manager not in ("distributed", "centralized"):
            raise ValueError(
                f"VorxSystem(manager=...) must be 'distributed' or "
                f"'centralized', got {manager!r}"
            )
        if topology is not None and fabric is not None:
            raise ValueError(
                "VorxSystem(): give topology= (a registered name) or "
                "fabric= (a built FabricBackend instance), not both"
            )
        if topology is not None:
            if isinstance(topology, FabricBackend):
                raise TypeError(
                    "VorxSystem(topology=...) selects by name; pass "
                    "built instances as fabric=<instance>"
                )
            if topology == "snet":
                raise ValueError(
                    "VorxSystem runs on HPC fabrics; the S/NET bus is "
                    "Meglos hardware -- use MeglosSystem(topology='snet')"
                )
            hpc_topologies = [
                name for name in available_topologies() if name != "snet"
            ]
            if topology not in hpc_topologies:
                raise ValueError(
                    f"VorxSystem(topology=...) must be None or one of "
                    f"{hpc_topologies}, got {topology!r}"
                )
        if fabric is not None:
            if isinstance(fabric, str):
                raise TypeError(
                    "VorxSystem(fabric=...) takes a built FabricBackend "
                    "instance; select by name with topology=<name>"
                )
            if not isinstance(fabric, FabricBackend):
                raise TypeError(
                    f"VorxSystem(fabric=...) must be a FabricBackend "
                    f"instance or None, got {fabric!r}"
                )
            if fabric.topology_name == "snet":
                raise ValueError(
                    "VorxSystem runs on HPC fabrics; the S/NET bus is "
                    "Meglos hardware -- use MeglosSystem(fabric=...)"
                )
            if sim is not None and fabric.sim is not sim:
                raise ValueError(
                    "VorxSystem(fabric=...) already carries a simulator; "
                    "drop sim= or pass the same instance"
                )
            sim = fabric.sim
        self.sim = sim or Simulator()
        self.costs = costs
        total = n_nodes + n_workstations
        if fabric is not None:
            # Adopt the caller's fabric: processing nodes take the first
            # n_nodes addresses, workstations the rest, same as the
            # by-name path below.
            addrs = fabric.addresses
            if len(addrs) < total:
                raise ValueError(
                    f"VorxSystem(fabric=...) has {len(addrs)} endpoints "
                    f"but n_nodes + n_workstations = {total}"
                )
            self.fabric = fabric
            node_addrs = list(addrs[:n_nodes])
            ws_addrs = list(addrs[n_nodes:total])
            for i, addr in enumerate(node_addrs):
                self.fabric.iface(addr).rename(f"node{i}")
            for i, addr in enumerate(ws_addrs):
                self.fabric.iface(addr).rename(f"ws{i}")
        elif topology is not None:
            # Explicit interconnect selection through the backend
            # registry.  Endpoint addresses are assigned cluster-major by
            # the builders; processing nodes take the first n_nodes,
            # workstations the rest, and every interface is renamed to
            # the node/ws convention the legacy paths use.
            self.fabric = create_fabric(
                topology, self.sim, costs, n_endpoints=max(total, 2)
            )
            addrs = self.fabric.addresses
            node_addrs = addrs[:n_nodes]
            ws_addrs = addrs[n_nodes:total]
            for i, addr in enumerate(node_addrs):
                self.fabric.iface(addr).rename(f"node{i}")
            for i, addr in enumerate(ws_addrs):
                self.fabric.iface(addr).rename(f"ws{i}")
        elif total <= 12 and total >= 2:
            self.fabric = build_single_cluster(self.sim, costs, total)
            node_addrs = list(range(n_nodes))
            ws_addrs = list(range(n_nodes, total))
            # Rename workstation interfaces for readable traces (re-keys
            # their vstat registries too).
            for i, addr in enumerate(ws_addrs):
                self.fabric.iface(addr).rename(f"ws{i}")
        elif total < 2:
            # A single node still needs a cluster to hang off.
            self.fabric = build_single_cluster(self.sim, costs, 2)
            node_addrs, ws_addrs = [0], []
        else:
            self.fabric, node_addrs, ws_addrs = build_lam_system(
                self.sim, costs, n_nodes, n_workstations
            )
        self.topology = topology or self.fabric.topology_name
        self.node_addresses = node_addrs
        self.workstation_addresses = ws_addrs
        self.nodes: list[NodeKernel] = [
            NodeKernel(self.sim, costs, self.fabric.iface(addr), f"node{i}")
            for i, addr in enumerate(node_addrs)
        ]
        self.workstations: list[NodeKernel] = [
            NodeKernel(
                self.sim, costs, self.fabric.iface(addr), f"ws{i}", is_host=True
            )
            for i, addr in enumerate(ws_addrs)
        ]
        if manager == "distributed":
            manager_addrs = list(node_addrs)
        else:
            manager_addrs = [node_addrs[0]]
        for kernel in self.nodes + self.workstations:
            kernel.manager.manager_addresses = manager_addrs
        self.manager_organisation = manager
        if faults is not None:
            if not hasattr(faults, "attach"):
                raise TypeError(
                    f"VorxSystem(faults=...) must be a FaultPlan or None, "
                    f"got {faults!r}"
                )
            faults.attach(self)

    @property
    def faults(self):
        """The attached fault injector, or ``None``."""
        return self.sim.faults

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def node(self, index: int) -> NodeKernel:
        """Kernel of processing node ``index``."""
        return self.nodes[index]

    def workstation(self, index: int) -> NodeKernel:
        """Kernel of host workstation ``index``."""
        return self.workstations[index]

    def kernel_at(self, address: int) -> NodeKernel:
        """Kernel by fabric address."""
        for kernel in self.nodes + self.workstations:
            if kernel.address == address:
                return kernel
        raise KeyError(f"no kernel at address {address}")

    @property
    def all_kernels(self) -> list[NodeKernel]:
        return self.nodes + self.workstations

    @property
    def vstat(self):
        """The simulator's unified metrics/trace hub."""
        return self.sim.vstat

    # ------------------------------------------------------------------
    # running programs
    # ------------------------------------------------------------------
    def spawn(
        self,
        node_index: int,
        program: Callable[..., Generator],
        name: Optional[str] = None,
        priority: int = 0,
        process_name: Optional[str] = None,
    ) -> Subprocess:
        """Start ``program`` as a subprocess on processing node ``node_index``."""
        return self.nodes[node_index].spawn(
            program, name=name, priority=priority, process_name=process_name
        )

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation (to quiescence, or to a deadline)."""
        self.sim.run(until=until)

    def run_until_complete(
        self, subprocesses: Iterable[Subprocess], timeout: Optional[float] = None
    ) -> None:
        """Run until every given subprocess finishes.

        Raises ``TimeoutError`` if a ``timeout`` (absolute simulation
        time) passes first -- used by the deadlock/lockout experiments.
        """
        pending = [sp for sp in subprocesses]
        for sp in pending:
            if sp.process is None:
                raise ValueError(f"{sp} was never started")
        sim = self.sim
        # A finished process never revives, so everything before
        # ``first`` stays finished and each step re-checks one process.
        first = 0
        while True:
            while first < len(pending) and not pending[first].process.is_alive:
                first += 1
            if first == len(pending):
                return
            next_time = sim.peek()
            if next_time == float("inf") or (
                timeout is not None and next_time > timeout
            ):
                break
            sim.step()
        unfinished = [sp for sp in pending[first:] if sp.process.is_alive]
        if timeout is not None and next_time > timeout:
            raise TimeoutError(
                f"{len(unfinished)} subprocess(es) still running at "
                f"t={sim.now:.0f}us: "
                + ", ".join(sp.uid for sp in unfinished[:5])
            )
        states = ", ".join(
            f"{sp.uid}[{sp.state.value}"
            f"{':' + str(sp.blocked_on) if sp.blocked_on else ''}]"
            for sp in unfinished[:8]
        )
        raise RuntimeError(
            f"simulation quiesced with unfinished subprocesses "
            f"(deadlock?): {states}"
        )

    def stats(self) -> dict:
        """System-wide statistics for reports and tests."""
        return {
            "fabric": self.fabric.stats(),
            "context_switches": {
                k.name: k.context_switches for k in self.all_kernels
            },
            "packets_posted": {
                k.name: k.packets_posted for k in self.all_kernels
            },
            "manager_opens": {
                k.name: k.manager.opens_handled for k in self.all_kernels
            },
        }
