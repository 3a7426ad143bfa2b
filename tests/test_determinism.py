"""Trace-fingerprint determinism tests for the engine's event ordering.

The engine promises a total order on simultaneous occurrences --
``(time, priority, sequence)`` -- and every experiment in the paper
reproduction leans on it.  These tests pin that order down with a
cryptographic fingerprint over the full structured trace (every
``TraceEvent`` plus the final metric snapshots, clock, and processed
count) of two seeded workloads:

* the Table 2 channel stream (stop-and-wait, the hot path every
  benchmark exercises), and
* the E19 faultstorm (seeded drop/corrupt/duplicate faults, timeout
  retransmission, watchdogs -- the most schedule-sensitive code paths).

Each workload is run twice and must produce identical digests
(run-to-run determinism), and the digest must equal a recorded golden
value, so any engine change that reorders events -- however subtly --
fails loudly here instead of silently skewing measurements.  The golden
values were recorded on the pre-fast-path heap-only engine; the
immediate-event lane must preserve them bit-for-bit.
"""

import hashlib

from repro import FaultPlan, VorxSystem, create_fabric, run_all_pairs
from repro.model.costs import CostModel
from repro.sim import Simulator
from repro.vorx.sliding_window import run_channel_stream

#: sha256 over the channel-stream trace.  If an engine change alters
#: this, event ordering changed: do not update the constant without
#: understanding why.  Re-recorded once when the adaptive-window
#: metrics (``chan.window.size`` / ``chan.window.shrinks``) joined the
#: per-kernel registry snapshot -- the event schedule itself was
#: verified bit-identical (events-only digest unchanged).
GOLDEN_CHANNELS = (
    "79df3ce9926055d515b59ca3ee2933a0502f6ba66342345628ad0f47dc167073"
)

#: Same, for the seeded faultstorm workload (re-recorded alongside
#: GOLDEN_CHANNELS for the same registry-snapshot reason).
GOLDEN_FAULTSTORM = (
    "52b49476c0db0c01c7c33b96099e8e0e0eaa8a9d3ddf83fa65f6c348d8d5c23f"
)

#: Schedule-sensitive :meth:`TrafficResult.fingerprint` of 1024
#: endpoints on the 256-cluster incomplete hypercube, bounded all-pairs
#: traffic (4 partners, 64-byte messages, 4096 deliveries).  Pins the
#: fabric layer's routing, link arbitration and flow-control schedule
#: at paper-plus scale.
GOLDEN_HYPERCUBE_1024 = (
    "45b0e74688f4bbf6182a47e103f9ce6baf52137087d7b27e50e43efd64d40243"
)


def fingerprint(sim) -> str:
    """Digest of everything observable about a finished simulation."""
    digest = hashlib.sha256()
    for line in sim.vstat.to_jsonl():
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    digest.update(f"now={sim.now!r} processed={sim.processed}".encode())
    return digest.hexdigest()


def run_channels() -> str:
    """Table 2 channel stream: 40 4-byte stop-and-wait messages."""
    result = run_channel_stream(4, n_messages=40)
    return fingerprint(result.sim)


def run_faultstorm() -> str:
    """E19 storm: two channel pairs under seeded message faults."""
    plan = FaultPlan(
        seed=7, drop=0.08, corrupt=0.05, duplicate=0.05,
        channel_retry_timeout_us=2_000.0,
    )
    system = VorxSystem(n_nodes=4, faults=plan)

    def sender(env, pair):
        with (yield from env.channel(f"det{pair}")) as ch:
            for i in range(12):
                yield from env.write(ch, 256, payload=f"m{pair}.{i}")

    def receiver(env, pair):
        got = []
        with (yield from env.channel(f"det{pair}")) as ch:
            for _ in range(12):
                _, payload = yield from env.read(ch)
                got.append(payload)
        return got

    receivers = []
    for pair in range(2):
        system.spawn(2 * pair, lambda env, pair=pair: sender(env, pair))
        receivers.append(
            system.spawn(2 * pair + 1, lambda env, pair=pair: receiver(env, pair))
        )
    system.run()
    for pair, rx in enumerate(receivers):
        assert rx.result == [f"m{pair}.{i}" for i in range(12)]
    return fingerprint(system.sim)


def test_channels_fingerprint_run_to_run():
    assert run_channels() == run_channels()


def test_channels_fingerprint_golden():
    assert run_channels() == GOLDEN_CHANNELS


def test_faultstorm_fingerprint_run_to_run():
    assert run_faultstorm() == run_faultstorm()


def test_faultstorm_fingerprint_golden():
    assert run_faultstorm() == GOLDEN_FAULTSTORM


def run_hypercube_1024():
    """The hypercube side of README's 1024-endpoint topology comparison
    (the HyperX and mesh sides are pinned in test_fabric_backends)."""
    sim = Simulator()
    sim.vstat.events.disable()
    fabric = create_fabric("hypercube", sim, CostModel(), n_endpoints=1024)
    result = run_all_pairs(fabric, size=64, partners=4)
    assert result.delivered == result.sent == 4096
    return result.fingerprint()


def test_hypercube_1024_fingerprint_run_to_run():
    assert run_hypercube_1024() == run_hypercube_1024()


def test_hypercube_1024_fingerprint_golden():
    assert run_hypercube_1024() == GOLDEN_HYPERCUBE_1024
