"""The many-to-one synchronisation pattern (paper Sections 2 and 6.2).

*"We discovered that many multiprocessor applications have a natural
synchronization in which many processors send a message to a single
processor at nearly the same time."*

:func:`run_many_to_one` runs a fan-in aggregation: ``n_workers`` nodes
compute for (deliberately imbalanced) durations, then all report to one
master over channels.  It exercises the HPC's hardware flow control under
the paper's problem pattern, and its skewed load makes it the demo
workload for the software oscilloscope (experiment E15): the run arms a
scope before it starts and returns it on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tools.oscilloscope import SoftwareOscilloscope
from repro.vorx.system import VorxSystem


@dataclass(frozen=True)
class ManyToOneResult:
    n_workers: int
    rounds: int
    message_bytes: int
    elapsed_us: float
    received: int
    system: VorxSystem  # exposed for tool demos (prof, cdb)
    #: Armed before the run, over every processing node.
    scope: SoftwareOscilloscope


def run_many_to_one(
    n_workers: int = 6,
    rounds: int = 5,
    message_bytes: int = 256,
    base_compute_us: float = 3_000.0,
    imbalance: float = 2.0,
    costs=None,
) -> ManyToOneResult:
    """Fan-in aggregation with an imbalanced compute phase.

    Worker ``i`` computes ``base * (1 + imbalance * i / n)`` per round
    then sends its result to the master; the master consumes all of them
    before the next round (a barrier-like reduction).
    """
    from repro.model.costs import DEFAULT_COSTS

    system = VorxSystem(n_nodes=n_workers + 1, costs=costs or DEFAULT_COSTS)
    scope = SoftwareOscilloscope.for_system(system)
    state = {"received": 0}

    def worker(env, index):
        ch = yield from env.open(f"report-{index}")
        factor = 1.0 + imbalance * index / max(1, n_workers - 1)
        for round_index in range(rounds):
            yield from env.compute(base_compute_us * factor, label="work")
            yield from env.write(ch, message_bytes,
                                 payload=(index, round_index))

    def master(env):
        channels = []
        for index in range(n_workers):
            ch = yield from env.open(f"report-{index}")
            channels.append(ch)
        for _ in range(rounds):
            seen = 0
            while seen < n_workers:
                _, _, payload = yield from env.read_any(channels)
                state["received"] += 1
                seen += 1
            yield from env.compute(500.0, label="reduce")

    jobs = [system.spawn(0, master, name="master")]
    for index in range(n_workers):
        jobs.append(
            system.spawn(index + 1, lambda env, index=index: worker(env, index),
                         name=f"worker{index}")
        )
    system.run_until_complete(jobs)
    return ManyToOneResult(
        n_workers=n_workers,
        rounds=rounds,
        message_bytes=message_bytes,
        elapsed_us=system.sim.now,
        received=state["received"],
        system=system,
        scope=scope,
    )
