"""Property-based tests (hypothesis) for the fault injector's decisions.

A small reference model, written here from the ``FaultPlan`` semantics
with plain ``fnmatch`` and one ``random.Random(f"{seed}:{site}")`` per
site, answers every per-message question the transport hooks ask: the
stall a NIC or link waits out, crash isolation, the link or bus
decision, and the brownout stretch.  The injector must give the same
answers and the same ``faults.*`` counters on generated plans.  It is
queried the way the hooks query it -- one resolved site record, with the
stall, crash and brownout calls skipped when the record has nothing of
that kind -- so the skips are checked too: the reference never skips.
"""

import random
from collections import Counter
from fnmatch import fnmatchcase

import pytest
from hypothesis import given, strategies as st

from repro import FaultPlan
from repro.faults.injector import FaultInjector
from repro.hpc.message import MessageKind, Packet
from repro.sim import Simulator

SITES = ("nic0->c0", "c0.p1->c1", "c1.p0->node1.0", "c1.p2->c0", "snet.bus")
PATTERNS = ("*", "nic*", "c0.*", "c1.p0->*", "*->c0", "snet.bus", "nic0->c0")
KINDS = [kind.value for kind in MessageKind]
PROBABILITY_FIELDS = ("drop", "corrupt", "delay", "duplicate")

_probability = st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0])
_delay_range = st.sampled_from([(0.0, 0.0), (1.0, 5.0), (50.0, 500.0)])
_start = st.sampled_from([0.0, 5.0, 20.0, 40.0])
_duration = st.sampled_from([1.0, 10.0, 30.0])
_override = st.fixed_dictionaries({}, optional={
    **{name: _probability for name in PROBABILITY_FIELDS},
    "delay_us": _delay_range,
})
_plan = st.fixed_dictionaries({"seed": st.integers(0, 2**16)}, optional={
    **{name: _probability for name in PROBABILITY_FIELDS},
    "delay_us": _delay_range,
    "links": st.dictionaries(st.sampled_from(PATTERNS), _override,
                             max_size=3),
    "site_windows": st.lists(st.tuples(st.sampled_from(PATTERNS), _start,
                                       _duration, _override), max_size=3),
    "nic_stalls": st.lists(st.tuples(st.sampled_from(PATTERNS), _start,
                                     _duration), max_size=3),
    "link_brownouts": st.lists(st.tuples(
        st.sampled_from(PATTERNS), _start, _duration,
        st.sampled_from([1.0, 1.5, 3.0])), max_size=2),
    "node_crashes": st.dictionaries(st.integers(0, 3), _start, max_size=2),
    "max_injections": st.one_of(st.none(), st.integers(0, 6)),
    "kinds": st.lists(st.sampled_from(KINDS), min_size=1, max_size=4,
                      unique=True),
    "force_fifo_overflow": _probability,
})
# One message: (time step, site, kind, src, dst).  Kinds come as
# ``MessageKind`` members and as the plain strings some callers use.
_message = st.tuples(
    st.sampled_from([0.0, 0.5, 3.0, 9.0]),
    st.sampled_from(SITES),
    st.one_of(st.sampled_from(list(MessageKind)), st.sampled_from(KINDS)),
    st.integers(0, 3),
    st.integers(1, 3),
)


class Reference:
    """The fault plan's semantics, with nothing resolved ahead of time."""

    def __init__(self, spec):
        self.seed = spec["seed"]
        self.defaults = {
            **{name: spec.get(name, 0.0) for name in PROBABILITY_FIELDS},
            "delay_us": spec.get("delay_us", (50.0, 500.0)),
        }
        self.links = [(pattern, self._merge(override))
                      for pattern, override in spec.get("links", {}).items()]
        self.windows = [(pattern, start, start + duration,
                         self._merge(override))
                        for pattern, start, duration, override
                        in spec.get("site_windows", [])]
        self.stalls = [(pattern, start, start + duration)
                       for pattern, start, duration
                       in spec.get("nic_stalls", [])]
        self.brownouts = [(pattern, start, start + duration, factor)
                          for pattern, start, duration, factor
                          in spec.get("link_brownouts", [])]
        self.crashes = dict(spec.get("node_crashes", {}))
        self.cap = spec.get("max_injections")
        self.kinds = set(spec.get("kinds", ("channel-data", "channel-ack")))
        self.overflow = spec.get("force_fifo_overflow", 0.0)
        self.rngs = {}
        self.injected = 0
        self.counters = Counter()

    def _merge(self, override):
        return {**self.defaults, **override}

    def _rng(self, site):
        if site not in self.rngs:
            self.rngs[site] = random.Random(f"{self.seed}:{site}")
        return self.rngs[site]

    def _faults(self, site, now):
        for pattern, start, end, faults in self.windows:
            if fnmatchcase(site, pattern) and start <= now < end:
                return faults
        for pattern, faults in self.links:
            if fnmatchcase(site, pattern):
                return faults
        return self.defaults

    def _budget_left(self):
        return self.cap is None or self.injected < self.cap

    def _note(self, fault):
        self.injected += 1
        self.counters["faults.injected"] += 1
        self.counters[f"by-kind:{fault}"] += 1

    def stall(self, site, now):
        remaining = max(
            [end - now for pattern, start, end in self.stalls
             if fnmatchcase(site, pattern) and start <= now < end],
            default=0.0,
        )
        if remaining > 0:
            self.counters["faults.nic_stalls"] += 1
        return remaining

    def crash_drop(self, packet, now):
        if any(self.crashes.get(address, float("inf")) <= now
               for address in (packet.src, packet.dst)):
            self.counters["faults.crash_drops"] += 1
            return True
        return False

    def brownout(self, site, base_us, now):
        factor = max(
            [factor for pattern, start, end, factor in self.brownouts
             if fnmatchcase(site, pattern) and start <= now < end],
            default=1.0,
        )
        if factor <= 1.0:
            return 0.0
        self.counters["faults.brownouts"] += 1
        return base_us * (factor - 1.0)

    def link(self, site, packet, now):
        faults = self._faults(site, now)
        lossy = any(faults[name] > 0 for name in PROBABILITY_FIELDS)
        if not lossy or str(packet.kind) not in self.kinds \
                or not self._budget_left():
            return (False, False, 0.0, False)
        rng = self._rng(site)
        drop = rng.random() < faults["drop"]
        corrupt = not drop and rng.random() < faults["corrupt"]
        delay_us = 0.0
        if rng.random() < faults["delay"]:
            delay_us = rng.uniform(*faults["delay_us"])
        duplicate = not drop and rng.random() < faults["duplicate"]
        for fault, hit in (("drop", drop), ("corrupt", corrupt),
                           ("delay", delay_us > 0),
                           ("duplicate", duplicate)):
            if hit:
                self._note(fault)
        return (drop, corrupt, delay_us, duplicate)

    def bus(self, site, packet, now):
        faults = self._faults(site, now)
        lossy = any(faults[name] > 0 for name in PROBABILITY_FIELDS)
        if (not lossy and self.overflow == 0.0) or not self._budget_left():
            return (False, False, 0.0, False)
        rng = self._rng(site)
        reject = rng.random() < faults["drop"]
        if not reject and rng.random() < faults["corrupt"]:
            reject = True
        forced = not reject and rng.random() < self.overflow
        delay_us = 0.0
        if rng.random() < faults["delay"]:
            delay_us = rng.uniform(*faults["delay_us"])
        duplicate = not reject and rng.random() < faults["duplicate"]
        for fault, hit in (("bus-reject", reject), ("forced-overflow", forced),
                           ("delay", delay_us > 0),
                           ("duplicate", duplicate)):
            if hit:
                self._note(fault)
        return (reject, forced, delay_us, duplicate)


def _injector_counters(injector):
    counters = Counter()
    for name in ("faults.injected", "faults.nic_stalls",
                 "faults.crash_drops", "faults.brownouts"):
        value = injector.metrics.value(name)
        if value:
            counters[name] = int(value)
    for fault, count in injector.summary().items():
        counters[f"by-kind:{fault}"] = count
    return counters


@given(spec=_plan, messages=st.lists(_message, min_size=1, max_size=40))
def test_injector_matches_reference_model(spec, messages):
    sim = Simulator()
    plan = FaultPlan(**spec)
    injector = sim.faults = FaultInjector(sim, plan)
    reference = Reference(spec)
    now = 0.0
    for step, site, kind, src, dst in messages:
        now += step
        sim.run(until=now)
        if src == dst:
            dst = 0
        packet = Packet(src, dst, 64, kind)
        base_us = 4.0
        # The hooks' view: one record per site, calls made only when the
        # record says the plan has something of that kind for the site.
        record = injector.site(site)
        stall = record.stall_remaining() if record.stalls else 0.0
        assert stall == reference.stall(site, now)
        crashed = record.crashes and record.crash_drop(packet)
        assert crashed == reference.crash_drop(packet, now)
        if crashed:
            continue
        if site == "snet.bus":
            decision = record.bus_decision(packet)
            got = (decision.reject, decision.forced_overflow,
                   decision.delay_us, decision.duplicate)
            assert got == reference.bus(site, packet, now)
        else:
            decision = injector.link_decision(site, packet)
            got = (decision.drop, decision.corrupt, decision.delay_us,
                   decision.duplicate)
            assert got == reference.link(site, packet, now)
            extra = (record.brownout_extra_us(base_us) if record.brownouts
                     else 0.0)
            assert extra == reference.brownout(site, base_us, now)
    assert _injector_counters(injector) == reference.counters
    assert injector.injections == reference.injected
    # A stream exists exactly where the reference drew: streams are lazy.
    drawn = {name for name, record in injector.sites.items()
             if record.stream is not None}
    assert drawn == set(reference.rngs)


# Exact names (some listed twice, one naming no site) mixed with
# wildcards, including a character class and a pattern that is a site
# name spelled with wildcards.
MIXED_PATTERNS = SITES + (
    "node9->c3", "*", "c?.p0->*", "c[01].p1->c1", "*->c0", "c1.p[02]->*",
    "snet.*",
)
_table_entry = st.tuples(st.sampled_from(MIXED_PATTERNS), _start, _duration)
_mixed_plan = st.fixed_dictionaries({}, optional={
    "links": st.dictionaries(st.sampled_from(MIXED_PATTERNS),
                             st.fixed_dictionaries({"drop": _probability}),
                             max_size=5),
    "site_windows": st.lists(st.tuples(
        st.sampled_from(MIXED_PATTERNS), _start, _duration,
        st.fixed_dictionaries({"drop": _probability})), max_size=5),
    "nic_stalls": st.lists(_table_entry, max_size=5),
    "link_brownouts": st.lists(st.tuples(
        st.sampled_from(MIXED_PATTERNS), _start, _duration,
        st.sampled_from([1.5, 3.0])), max_size=5),
})


class _Sites:
    def __init__(self, names):
        self.names = names

    def fault_sites(self):
        return sorted(self.names)


@given(spec=_mixed_plan, sites=st.sets(st.sampled_from(SITES), min_size=1))
def test_site_records_match_brute_force_fnmatch(spec, sites):
    """Exact patterns are looked up by name, wildcards matched; a site
    record must come out as matching every pattern against every site
    would make it, in declaration order."""
    plan = FaultPlan(**spec)
    injector = FaultInjector(Simulator(), plan)
    for site in SITES:
        record = injector.site(site)
        links = [faults for pattern, faults in plan.links.items()
                 if fnmatchcase(site, pattern)]
        assert record.faults is (links[0] if links else plan.defaults)
        assert record.windows == tuple(
            (start, end, faults, faults.any_loss)
            for pattern, start, end, faults in plan.site_windows
            if fnmatchcase(site, pattern))
        assert record.stalls == tuple(
            (start, start + duration)
            for pattern, start, duration in plan.nic_stalls
            if fnmatchcase(site, pattern))
        assert record.brownouts == tuple(
            (start, end, factor)
            for pattern, start, end, factor in plan.link_brownouts
            if fnmatchcase(site, pattern))
    unmatched = [pattern for pattern in plan.site_patterns()
                 if not any(fnmatchcase(site, pattern) for site in sites)]
    if unmatched:
        with pytest.raises(ValueError, match="matches none"):
            plan._validate_sites(_Sites(sites))
    else:
        plan._validate_sites(_Sites(sites))
