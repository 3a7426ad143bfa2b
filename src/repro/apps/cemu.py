"""A CEMU-style parallel logic simulator (paper references [15], Sections
4.1 and 5).

CEMU ("MOS Timing Simulation on a Message Based Multiprocessor") was one
of HPC/VORX's demanding tenants: it experimented with low-level
communications protocols (its sliding-window experiments guided Section
4.1) and used coroutines instead of subprocesses (Section 5).

This module is a real gate-level logic simulator in that style:

* a netlist of unit-delay gates (:class:`Circuit`) evaluated by
  discrete-*time* simulation;
* :func:`simulate_serial` -- the reference single-node evaluation;
* :func:`run_cemu` -- the parallel version: the netlist is partitioned
  over ``p`` nodes; cross-partition signal changes travel in
  sliding-window batches over user-defined communications objects, and
  the whole machine advances in lock-step timesteps (the natural
  synchronisation that makes application-level flow control safe).

The parallel result is verified gate-for-gate against the serial one, so
this is a functional circuit simulator whose communication runs on the
simulated multicomputer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.model.costs import CostModel, DEFAULT_COSTS
from repro.vorx.system import VorxSystem

#: CPU time to evaluate one gate on a 25 MHz 68020.
GATE_EVAL_US = 12.0
#: Wire bytes per (gate id, value) change record.
BYTES_PER_EVENT = 6
#: Header bytes per change batch message.
BATCH_HEADER_BYTES = 10


@dataclass
class Gate:
    """One unit-delay logic gate."""

    gid: int
    kind: str  # and / or / xor / nand / not / input
    inputs: tuple[int, ...]

    def evaluate(self, values: list[int]) -> int:
        a = values[self.inputs[0]] if self.inputs else 0
        b = values[self.inputs[1]] if len(self.inputs) > 1 else 0
        if self.kind == "and":
            return a & b
        if self.kind == "or":
            return a | b
        if self.kind == "xor":
            return a ^ b
        if self.kind == "nand":
            return 1 - (a & b)
        if self.kind == "not":
            return 1 - a
        raise ValueError(f"cannot evaluate {self.kind} gate")


@dataclass
class Circuit:
    """A combinational/sequential netlist of unit-delay gates."""

    n_inputs: int
    gates: list[Gate] = field(default_factory=list)

    @classmethod
    def random(cls, n_inputs: int = 8, n_gates: int = 64,
               seed: int = 1990) -> "Circuit":
        """A random netlist (each gate reads earlier signals: a DAG)."""
        rng = random.Random(seed)
        circuit = cls(n_inputs=n_inputs)
        kinds = ("and", "or", "xor", "nand", "not")
        for g in range(n_gates):
            gid = n_inputs + g
            kind = rng.choice(kinds)
            fanin = 1 if kind == "not" else 2
            inputs = tuple(rng.randrange(gid) for _ in range(fanin))
            circuit.gates.append(Gate(gid, kind, inputs))
        return circuit

    @classmethod
    def ripple_adder(cls, bits: int = 8) -> "Circuit":
        """An n-bit ripple-carry adder (a structured correctness case).

        Inputs: a[0..n-1], b[0..n-1], carry-in.  The sum bit of stage i
        is the gate at index ``adder.sum_gate(i)``; carry-out of the last
        stage at ``adder.carry_gate(bits - 1)``.
        """
        circuit = cls(n_inputs=2 * bits + 1)
        a = list(range(bits))
        b = list(range(bits, 2 * bits))
        carry = 2 * bits  # carry-in signal
        circuit._sum_gates = []  # type: ignore[attr-defined]
        circuit._carry_gates = []  # type: ignore[attr-defined]
        for i in range(bits):
            base = circuit.n_inputs + len(circuit.gates)
            # s1 = a ^ b; sum = s1 ^ c; c1 = a & b; c2 = s1 & c;
            # carry = c1 | c2
            circuit.gates.append(Gate(base, "xor", (a[i], b[i])))
            circuit.gates.append(Gate(base + 1, "xor", (base, carry)))
            circuit.gates.append(Gate(base + 2, "and", (a[i], b[i])))
            circuit.gates.append(Gate(base + 3, "and", (base, carry)))
            circuit.gates.append(Gate(base + 4, "or", (base + 2, base + 3)))
            circuit._sum_gates.append(base + 1)  # type: ignore[attr-defined]
            circuit._carry_gates.append(base + 4)  # type: ignore[attr-defined]
            carry = base + 4
        return circuit

    def sum_gate(self, i: int) -> int:
        return self._sum_gates[i]  # type: ignore[attr-defined]

    def carry_gate(self, i: int) -> int:
        return self._carry_gates[i]  # type: ignore[attr-defined]


def simulate_serial(circuit: Circuit, inputs: list[int],
                    timesteps: int) -> list[int]:
    """Reference evaluation: synchronous unit-delay timesteps.

    Every gate re-evaluates each timestep from the previous step's
    values (two-phase update), which is the semantics the parallel
    version must match.  Returns the final value of every signal.
    """
    if len(inputs) != circuit.n_inputs:
        raise ValueError(
            f"expected {circuit.n_inputs} inputs, got {len(inputs)}"
        )
    values = list(inputs) + [0] * len(circuit.gates)
    for _ in range(timesteps):
        previous = list(values)
        for gate in circuit.gates:
            values[gate.gid] = gate.evaluate(previous)
    return values


@dataclass
class CemuResult:
    n_gates: int
    p: int
    timesteps: int
    elapsed_us: float
    events_sent: int
    messages_sent: int
    correct: bool

    @property
    def gates_per_second(self) -> float:
        total = self.n_gates * self.timesteps
        return total / (self.elapsed_us / 1e6)


def run_cemu(
    circuit: Optional[Circuit] = None,
    inputs: Optional[list[int]] = None,
    p: int = 4,
    timesteps: int = 10,
    costs: CostModel = DEFAULT_COSTS,
    seed: int = 7,
) -> CemuResult:
    """Parallel lock-step simulation of ``circuit`` over ``p`` nodes.

    Gates are block-partitioned.  Each timestep, every node evaluates its
    gates from the previous step's (replicated) values, then exchanges
    *only the changed* cross-partition signals in one batched message per
    neighbour pair -- change-event traffic, exactly the message pattern
    timing simulators generate.  The final state is checked against
    :func:`simulate_serial`.
    """
    rng = random.Random(seed)
    if circuit is None:
        circuit = Circuit.random(seed=seed)
    if inputs is None:
        inputs = [rng.randrange(2) for _ in range(circuit.n_inputs)]
    expected = simulate_serial(circuit, inputs, timesteps)

    n_gates = len(circuit.gates)
    if p < 1 or p > n_gates:
        raise ValueError(f"need 1 <= p <= {n_gates}, got {p}")
    # Block partition of the gate list.
    bounds = [round(k * n_gates / p) for k in range(p + 1)]
    owner_of_gate = {}
    for me in range(p):
        for index in range(bounds[me], bounds[me + 1]):
            owner_of_gate[circuit.gates[index].gid] = me

    system = VorxSystem(n_nodes=max(p, 1), costs=costs)
    # Each node's replicated view of all signal values.
    views = [list(inputs) + [0] * n_gates for _ in range(p)]
    stats = {"events": 0, "messages": 0}
    final = {}

    def node_program(env, me: int):
        my_gates = [circuit.gates[i] for i in range(bounds[me], bounds[me + 1])]
        others = [q for q in range(p) if q != me]
        links = {}
        arrived = env.semaphore(0, name="arrived")
        inbox: list = []

        def on_batch(packet):
            yield env.kernel.isr_exec(costs.ud_recv)
            inbox.append(packet.payload)
            arrived.v()

        # Pairwise links, parity-ordered rendezvous.
        for q in sorted(others):
            lo, hi = min(me, q), max(me, q)
            name = f"cemu-{lo}-{hi}"
            if me == lo:
                links[q] = yield from env.create_object(name,
                                                        handler=on_batch)
            else:
                links[q] = yield from env.create_object(name,
                                                        handler=on_batch)

        view = views[me]
        deferred: dict[int, list] = {}
        for step in range(timesteps):
            previous = list(view)
            changes = []
            yield from env.compute(len(my_gates) * GATE_EVAL_US,
                                   label="evaluate")
            for gate in my_gates:
                value = gate.evaluate(previous)
                if value != view[gate.gid]:
                    changes.append((gate.gid, value))
                view[gate.gid] = value
            # Exchange changed signals with every other partition: one
            # batch message each (application-level flow control: the
            # lock-step guarantees buffer space, Section 4.1).
            for q in others:
                size = BATCH_HEADER_BYTES + BYTES_PER_EVENT * len(changes)
                size = min(size, costs.hpc_max_message)
                yield from env.obj_send(links[q], size,
                                        payload=(step, changes))
                stats["messages"] += 1
                stats["events"] += len(changes)
            # Collect exactly this step's batches; a fast neighbour may
            # already be a step ahead, so out-of-step arrivals are
            # deferred (step tags keep the lock-step airtight).
            batches = deferred.pop(step, [])
            while len(batches) < len(others):
                yield from env.p(arrived)
                batch_step, batch = inbox.pop(0)
                if batch_step == step:
                    batches.append(batch)
                else:
                    deferred.setdefault(batch_step, []).append(batch)
            for batch in batches:
                yield from env.compute(
                    2.0 + 0.5 * len(batch), label="apply-changes"
                )
                for gid, value in batch:
                    view[gid] = value
        final[me] = list(view)

    jobs = [
        system.spawn(me, lambda env, me=me: node_program(env, me),
                     name=f"cemu{me}")
        for me in range(p)
    ]
    system.run_until_complete(jobs)

    correct = all(final[me] == expected for me in range(p))
    return CemuResult(
        n_gates=n_gates,
        p=p,
        timesteps=timesteps,
        elapsed_us=system.sim.now,
        events_sent=stats["events"],
        messages_sent=stats["messages"],
        correct=correct,
    )
