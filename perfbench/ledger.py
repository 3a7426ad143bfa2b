"""The per-layer ledger: where a traced run spent its time, and the counts.

Layers are the ``repro`` packages plus ``python`` (interpreter, builtin
and stdlib frames).  The benchmark's own workload code counts as
``workload``, the layer it stands in for.  cProfile times every
call, so self time and call counts are aggregated by the package that
owns each function.  Counts come from the ``sim.vstat`` registries of
every :class:`~repro.Simulator` the run created, found by
:class:`SimCensus`.
"""

from __future__ import annotations

import pstats
from pathlib import PurePath

from repro import Simulator

LAYERS = ("sim", "hpc", "fabric", "vorx", "faults", "workload", "exp",
          "chaos", "metrics", "model", "python")

_BENCH_DIR = PurePath(__file__).parent.name


def layer_of(filename: str) -> str:
    """The layer that owns a profiled frame's source file."""
    parts = PurePath(filename).parts
    if "repro" in parts[:-1]:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return parts[index + 1].removesuffix(".py")
    if len(parts) > 1 and parts[-2] == _BENCH_DIR:
        return "workload"
    return "python"


def layer_profile(profiler) -> dict:
    """``{layer: [self seconds, calls]}`` over every profiled function."""
    totals: dict = {}
    for (filename, _, _), (_, calls, self_s, _, _) in (
        pstats.Stats(profiler).stats.items()
    ):
        entry = totals.setdefault(layer_of(filename), [0.0, 0])
        entry[0] += self_s
        entry[1] += calls
    return totals


class SimCensus:
    """Collects every ``Simulator`` built while active.

    Campaigns and sharded runs build their simulators internally; the
    census wraps the constructor so their registries can still be read.
    """

    def __enter__(self) -> "SimCensus":
        self.sims: list = []
        self._init = Simulator.__init__
        census, original = self, self._init

        def init(sim, *args, **kwargs):
            original(sim, *args, **kwargs)
            census.sims.append(sim)

        Simulator.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        Simulator.__init__ = self._init


def vstat_counts(sims) -> dict:
    """Engine, link, kernel and channel counts summed over ``sims``."""
    counts = dict.fromkeys(
        ("events", "link_busy_us", "link_capacity_us", "reserve_stalls",
         "reserve_stall_us", "max_queue_depth", "link_messages",
         "packets_received", "syscalls", "kernel_blocks", "interrupts",
         "fragments_sent", "fragments_received", "retransmits", "injected",
         "retries"), 0.0)
    for sim in sims:
        counts["events"] += sim.processed
        injector = sim.faults
        if injector is not None:
            counts["injected"] += injector.injections
        for registry in sim.vstat.registries.values():
            busy = registry.get("link.busy_us")
            if busy is not None:
                counts["link_busy_us"] += busy.value
                counts["link_capacity_us"] += sim.now
                depth = registry.get("link.queue_depth")
                counts["max_queue_depth"] = max(counts["max_queue_depth"],
                                                depth.max_value)
            for key, name in (
                ("reserve_stalls", "link.reserve_stalls"),
                ("reserve_stall_us", "link.reserve_stall_us"),
                ("link_messages", "link.messages_carried"),
                ("packets_received", "nic.packets_received"),
                ("syscalls", "kernel.syscalls"),
                ("interrupts", "kernel.interrupts"),
                ("fragments_sent", "chan.fragments_sent"),
                ("fragments_received", "chan.fragments_received"),
                ("retransmits", "chan.retransmits"),
                ("retransmits", "chan.timeout_retransmits"),
            ):
                counts[key] += registry.value(name)
            for name, key in (("kernel.blocks", "kernel_blocks"),
                              ("requests.retries", "retries")):
                counts[key] += sum(
                    metric.value for metric in registry.labelled(name).values()
                )
    return counts


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(layers: dict, counts: dict, *, traced_wall_s: float,
                      wall_s: float, parallel: dict) -> dict:
    """Every per-layer metric of one workload, as ``{name: value}``.

    ``layers`` and ``counts`` come from the traced run; ``wall_s`` is the
    untraced wall time; ``parallel`` holds the sharded run's rounds,
    boundary messages and speed-ups (all 0 for the other workloads).
    """
    total_self = sum(self_s for self_s, _ in layers.values())
    metrics = {}
    for layer in LAYERS:
        self_s, calls = layers.get(layer, (0.0, 0))
        metrics[f"{layer}.self_frac"] = _ratio(self_s, total_self)
        metrics[f"{layer}.calls"] = calls
    metrics.update({
        "trace.overhead_x": _ratio(traced_wall_s, wall_s),
        "sim.events": counts["events"],
        "sim.events_per_wall_s": _ratio(counts["events"], wall_s),
        "hpc.reserve_stalls": counts["reserve_stalls"],
        "hpc.reserve_stall_us": counts["reserve_stall_us"],
        "hpc.link_busy_frac": _ratio(counts["link_busy_us"],
                                     counts["link_capacity_us"]),
        "hpc.max_queue_depth": counts["max_queue_depth"],
        "fabric.avg_hops": _ratio(counts["link_messages"],
                                  counts["packets_received"]),
        "parallel.rounds": parallel.get("rounds", 0),
        "parallel.boundary_messages": parallel.get("boundary_messages", 0),
        "parallel.speedup_vs_unsharded": parallel.get("vs_unsharded", 0.0),
        "parallel.speedup_vs_workers1": parallel.get("vs_workers1", 0.0),
        "vorx.syscalls": counts["syscalls"],
        "vorx.kernel_blocks": counts["kernel_blocks"],
        "vorx.interrupts": counts["interrupts"],
        "vorx.fragments_sent": counts["fragments_sent"],
        "vorx.retransmits": counts["retransmits"],
        # chan.fragments_sent counts each fragment once, when it is
        # acknowledged; every resend is a retransmit.
        "vorx.frag_efficiency": _ratio(
            counts["fragments_received"],
            counts["fragments_sent"] + counts["retransmits"]),
        "faults.injected": counts["injected"],
        "workload.retries": counts["retries"],
    })
    return metrics
