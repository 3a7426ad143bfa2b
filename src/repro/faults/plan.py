"""Fault plans: a declarative, validated description of what to inject.

A :class:`FaultPlan` is pure configuration -- it owns no simulator state
and can be attached to any number of systems (each attach creates an
independent :class:`~repro.faults.injector.FaultInjector` whose RNG
streams depend only on ``seed`` and the site names, never on sharing).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from repro.hpc.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector

#: Message kinds whose loss the VORX channel layer can recover from
#: (go-back-N retransmission); link-level drop/corrupt/duplicate
#: default to these so protocols without recovery stay unharmed.
DEFAULT_FAULTABLE_KINDS: tuple[str, ...] = ("channel-data", "channel-ack")


def is_exact(pattern: str) -> bool:
    """True if site ``pattern`` has no ``*``, ``?`` or ``[``: fnmatch
    then matches only the name spelled the same, so a lookup will do."""
    return "*" not in pattern and "?" not in pattern and "[" not in pattern


class SitePatterns:
    """One plan table's entries, found by site name.

    ``entries`` are ``(pattern, value)`` pairs.  Exact-name patterns are
    indexed by name; only the wildcard ones are tried with ``fnmatch``.
    :meth:`matches` returns the values in declaration order either way.
    """

    __slots__ = ("exact", "wild")

    def __init__(self, entries: Iterable[tuple[str, object]]) -> None:
        #: name -> ``[(declaration index, value)]``
        self.exact: dict[str, list] = {}
        #: ``[(declaration index, pattern, value)]``
        self.wild: list = []
        for index, (pattern, value) in enumerate(entries):
            if is_exact(pattern):
                self.exact.setdefault(pattern, []).append((index, value))
            else:
                self.wild.append((index, pattern, value))

    def matches(self, name: str) -> list:
        hits = self.exact.get(name, [])
        if self.wild:
            hits = sorted(hits + [
                (index, value) for index, pattern, value in self.wild
                if fnmatchcase(name, pattern)
            ], key=lambda hit: hit[0])
        return [value for _index, value in hits]


@dataclass(frozen=True)
class _EndpointShim:
    """Kernel-shaped stand-in for a raw fabric endpoint (crash wiring
    only needs ``name`` and ``iface``)."""

    name: str
    iface: object


def _check_probability(argument: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(
            f"FaultPlan({argument}=...) must be a number in [0, 1], "
            f"got {value!r}"
        )
    if not 0.0 <= value <= 1.0:
        raise ValueError(
            f"FaultPlan({argument}=...) must be a probability in [0, 1], "
            f"got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class LinkFaults:
    """The per-site fault probabilities resolved for one link/bus site."""

    drop: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    duplicate: float = 0.0
    delay_us: tuple[float, float] = (50.0, 500.0)

    @property
    def any_loss(self) -> bool:
        return (self.drop or self.corrupt or self.delay or self.duplicate) > 0


class FaultPlan:
    """A deterministic, seedable description of faults to inject.

    All arguments are keyword-only.  Probabilities are per *message* at
    the site where the hook runs (a link serialization, a bus tenure).

    Parameters
    ----------
    seed:
        Root seed.  Every injection site derives its own RNG stream from
        ``(seed, site-name)``, so identical seeds give identical fault
        schedules regardless of how many sites exist.
    drop, corrupt, delay, duplicate:
        Global per-message probabilities applied at every HPC link (and,
        for ``drop``/``corrupt``, mapped to the rejection signal on the
        S/NET bus, where delivery is synchronous).
    delay_us:
        ``(lo, hi)`` microsecond range an injected delay is drawn from.
    links:
        Per-site overrides: a mapping of fnmatch-style site-name patterns
        (link names such as ``"nic0->c0"``, or ``"snet.bus"``) to dicts
        with any of ``drop``/``corrupt``/``delay``/``duplicate``/
        ``delay_us``.  The first matching pattern wins.
    force_fifo_overflow:
        Probability that an S/NET fifo deposit is forced to overflow even
        when space exists -- the hardware signals fifo-full and retains a
        partial prefix, exercising the software recovery strategies.
    node_crashes:
        Mapping of fabric/bus address -> crash time (us).  From that time
        on the node's interface neither sends nor receives (traffic to
        and from it is dropped) and its receive interrupt is masked.
    nic_stalls:
        Iterable of ``(site_pattern, start_us, duration_us)`` windows
        during which matching interfaces/links do not transmit.
    site_windows:
        Iterable of ``(site_pattern, start_us, duration_us, overrides)``
        entries applying a per-site fault override (same fields as
        ``links``) only while the window is active.  Windows are checked
        before the static ``links`` table; the first *active* matching
        window wins.  This is the primitive the chaos shapes (correlated
        link-group failures, network partitions) compile down to.
    link_brownouts:
        Iterable of ``(site_pattern, start_us, duration_us, multiplier)``
        windows during which matching links serialize ``multiplier``
        times slower -- a degraded link, distinct from a full
        ``nic_stalls`` outage.  Applies to every message kind and does
        not consume the ``max_injections`` budget.
    max_injections:
        Optional global cap on injected faults (crash isolation drops are
        not counted against it).
    channel_retry_timeout_us:
        Period of the VORX channel watchdog (one per write), armed only
        while a plan is attached.
    kinds:
        Message kinds eligible for link-level drop/corrupt/delay/
        duplicate (default: channel data + ack, the kinds the channel
        retransmission machinery can recover).  Each must be a
        :class:`~repro.hpc.message.MessageKind` value; any other name
        raises ``ValueError``.
    """

    _FIELDS = (
        "seed", "drop", "corrupt", "delay", "duplicate", "delay_us",
        "links", "force_fifo_overflow", "node_crashes", "nic_stalls",
        "site_windows", "link_brownouts",
        "max_injections", "channel_retry_timeout_us", "kinds",
    )

    def __init__(
        self,
        *,
        seed: int = 1990,
        drop: float = 0.0,
        corrupt: float = 0.0,
        delay: float = 0.0,
        duplicate: float = 0.0,
        delay_us: Sequence[float] = (50.0, 500.0),
        links: Optional[Mapping[str, Mapping]] = None,
        force_fifo_overflow: float = 0.0,
        node_crashes: Optional[Mapping[int, float]] = None,
        nic_stalls: Optional[Iterable[tuple[str, float, float]]] = None,
        site_windows: Optional[
            Iterable[tuple[str, float, float, Mapping]]
        ] = None,
        link_brownouts: Optional[
            Iterable[tuple[str, float, float, float]]
        ] = None,
        max_injections: Optional[int] = None,
        channel_retry_timeout_us: float = 5_000.0,
        kinds: Sequence[str] = DEFAULT_FAULTABLE_KINDS,
    ) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"FaultPlan(seed=...) must be an int, got {seed!r}")
        self.seed = seed
        self.defaults = LinkFaults(
            drop=_check_probability("drop", drop),
            corrupt=_check_probability("corrupt", corrupt),
            delay=_check_probability("delay", delay),
            duplicate=_check_probability("duplicate", duplicate),
            delay_us=self._check_delay_range("delay_us", delay_us),
        )
        self.links: dict[str, LinkFaults] = {}
        for pattern, override in (links or {}).items():
            self.links[pattern] = self._merge_override(
                "links", pattern, override
            )
        self.force_fifo_overflow = _check_probability(
            "force_fifo_overflow", force_fifo_overflow
        )
        self.node_crashes: dict[int, float] = {}
        for address, crash_time in (node_crashes or {}).items():
            if not isinstance(address, int):
                raise TypeError(
                    f"FaultPlan(node_crashes=...) keys must be int "
                    f"addresses, got {address!r}"
                )
            if crash_time < 0:
                raise ValueError(
                    f"FaultPlan(node_crashes=...) crash time for node "
                    f"{address} must be >= 0, got {crash_time!r}"
                )
            self.node_crashes[address] = float(crash_time)
        self.nic_stalls: list[tuple[str, float, float]] = []
        for window in nic_stalls or ():
            try:
                pattern, start, duration = window
            except (TypeError, ValueError):
                raise ValueError(
                    "FaultPlan(nic_stalls=...) entries must be "
                    f"(site_pattern, start_us, duration_us), got {window!r}"
                ) from None
            if start < 0 or duration <= 0:
                raise ValueError(
                    f"FaultPlan(nic_stalls=...) window {window!r} needs "
                    "start_us >= 0 and duration_us > 0"
                )
            self.nic_stalls.append((str(pattern), float(start), float(duration)))
        self.site_windows: list[tuple[str, float, float, LinkFaults]] = []
        for window in site_windows or ():
            try:
                pattern, start, duration, override = window
            except (TypeError, ValueError):
                raise ValueError(
                    "FaultPlan(site_windows=...) entries must be "
                    "(site_pattern, start_us, duration_us, overrides), "
                    f"got {window!r}"
                ) from None
            if start < 0 or duration <= 0:
                raise ValueError(
                    f"FaultPlan(site_windows=...) window {window!r} needs "
                    "start_us >= 0 and duration_us > 0"
                )
            faults = self._merge_override("site_windows", pattern, override)
            self.site_windows.append(
                (str(pattern), float(start), float(start) + float(duration),
                 faults)
            )
        self.link_brownouts: list[tuple[str, float, float, float]] = []
        for window in link_brownouts or ():
            try:
                pattern, start, duration, multiplier = window
            except (TypeError, ValueError):
                raise ValueError(
                    "FaultPlan(link_brownouts=...) entries must be "
                    "(site_pattern, start_us, duration_us, multiplier), "
                    f"got {window!r}"
                ) from None
            if start < 0 or duration <= 0:
                raise ValueError(
                    f"FaultPlan(link_brownouts=...) window {window!r} needs "
                    "start_us >= 0 and duration_us > 0"
                )
            if not isinstance(multiplier, (int, float)) or multiplier < 1.0:
                raise ValueError(
                    f"FaultPlan(link_brownouts=...) multiplier must be "
                    f">= 1.0, got {multiplier!r}"
                )
            self.link_brownouts.append(
                (str(pattern), float(start), float(start) + float(duration),
                 float(multiplier))
            )
        if max_injections is not None and max_injections < 0:
            raise ValueError(
                f"FaultPlan(max_injections=...) must be >= 0 or None, "
                f"got {max_injections!r}"
            )
        self.max_injections = max_injections
        if channel_retry_timeout_us <= 0:
            raise ValueError(
                f"FaultPlan(channel_retry_timeout_us=...) must be positive, "
                f"got {channel_retry_timeout_us!r}"
            )
        self.channel_retry_timeout_us = float(channel_retry_timeout_us)
        self.kinds = frozenset(str(kind) for kind in kinds)
        valid = [kind.value for kind in MessageKind]
        unknown = sorted(self.kinds.difference(valid))
        if unknown:
            raise ValueError(
                f"FaultPlan(kinds=...) has unknown message kind(s) "
                f"{unknown!r}; valid kinds are {valid!r}"
            )

    def _merge_override(
        self, argument: str, pattern: str, override: Mapping
    ) -> LinkFaults:
        """Defaults + one per-site override dict, fully validated."""
        unknown = set(override) - {
            "drop", "corrupt", "delay", "duplicate", "delay_us"
        }
        if unknown:
            raise ValueError(
                f"FaultPlan({argument}=...) override for {pattern!r} has "
                f"unknown field(s) {sorted(unknown)!r}"
            )
        merged = {
            "drop": self.defaults.drop,
            "corrupt": self.defaults.corrupt,
            "delay": self.defaults.delay,
            "duplicate": self.defaults.duplicate,
            **{k: v for k, v in override.items() if k != "delay_us"},
        }
        merged = {
            key: _check_probability(f"{argument}[{pattern!r}].{key}", value)
            for key, value in merged.items()
        }
        merged["delay_us"] = self._check_delay_range(
            f"{argument}[{pattern!r}].delay_us",
            override.get("delay_us", self.defaults.delay_us),
        )
        return LinkFaults(**merged)

    @staticmethod
    def _check_delay_range(argument: str, value) -> tuple[float, float]:
        try:
            lo, hi = value
        except (TypeError, ValueError):
            raise ValueError(
                f"FaultPlan({argument}=...) must be a (lo, hi) microsecond "
                f"pair, got {value!r}"
            ) from None
        if lo < 0 or hi < lo:
            raise ValueError(
                f"FaultPlan({argument}=...) needs 0 <= lo <= hi, "
                f"got {value!r}"
            )
        return (float(lo), float(hi))

    @property
    def can_lose_messages(self) -> bool:
        """True if this plan can make channel traffic vanish.

        The VORX ack watchdog is armed only when it can (drops, faults on
        some link, a crashed node); an all-zero plan leaves the machine's
        event schedule bit-identical to no plan at all.
        """
        return (
            self.defaults.any_loss
            or any(faults.any_loss for faults in self.links.values())
            or any(faults.any_loss for *_, faults in self.site_windows)
            or bool(self.node_crashes)
        )

    def site_patterns(self) -> list[str]:
        """Every site-name pattern this plan references, for validation."""
        patterns = list(self.links)
        patterns.extend(pattern for pattern, *_ in self.nic_stalls)
        patterns.extend(pattern for pattern, *_ in self.site_windows)
        patterns.extend(pattern for pattern, *_ in self.link_brownouts)
        return patterns

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, system) -> "FaultInjector":
        """Attach to a system or fabric backend; returns the injector.

        ``system`` needs ``sim`` plus -- for crash wiring -- a way to find
        an endpoint by address: ``kernel_at``, a ``nodes`` list, or a
        ``fabric``/backend attach table.  A bare ``FabricBackend`` works
        too.  When the fabric enumerates its injection sites
        (:meth:`~repro.fabric.base.FabricBackend.fault_sites`), every
        site pattern in the plan is validated against them here, so a
        typo'd or wrong-topology override fails loudly instead of
        silently matching nothing.
        """
        from repro.faults.injector import FaultInjector

        sim = system.sim
        if getattr(sim, "faults", None) is not None:
            raise RuntimeError(
                "a FaultPlan is already attached to this simulator"
            )
        fabric = getattr(system, "fabric", None)
        if fabric is None and hasattr(system, "iface"):
            fabric = system  # a bare FabricBackend
        self._validate_sites(fabric)
        injector = FaultInjector(sim, self)
        sim.faults = injector
        for address, crash_time in self.node_crashes.items():
            kernel = self._kernel_for(system, fabric, address)
            sim.call_later(
                max(0.0, crash_time - sim.now), injector._crash, address,
                kernel,
            )
        return injector

    def attach_shard(self, fabric) -> "FaultInjector":
        """Attach to one shard's fabric slice of a sharded simulation.

        Crash schedules are wired only for locally-attached addresses
        (remote ones belong to some other shard's injector); site
        patterns are validated against the *full* topology by the
        orchestrator, not per shard, since each shard only sees its own
        links.  Per-site RNG streams depend on ``(seed, site)`` alone,
        so the fault schedule is shard-stable by construction.
        """
        from repro.faults.injector import FaultInjector

        sim = fabric.sim
        if getattr(sim, "faults", None) is not None:
            raise RuntimeError(
                "a FaultPlan is already attached to this simulator"
            )
        injector = FaultInjector(sim, self)
        sim.faults = injector
        local = getattr(fabric, "attachments", None) or {}
        for address, crash_time in self.node_crashes.items():
            if address not in local:
                continue
            iface = fabric.iface(address)
            shim = _EndpointShim(getattr(iface, "name", f"addr{address}"),
                                 iface)
            sim.call_later(
                max(0.0, crash_time - sim.now), injector._crash, address,
                shim,
            )
        return injector

    def _validate_sites(self, fabric) -> None:
        """Check every site pattern matches >= 1 real injection site.

        ``fabric`` is anything with ``fault_sites()``: a built backend,
        or a :class:`~repro.hpc.topology.TopologySpec` before any
        fabric exists."""
        if fabric is None:
            return
        enumerate_sites = getattr(fabric, "fault_sites", None)
        if enumerate_sites is None:
            return
        sites = enumerate_sites()
        if not sites:
            return
        known = set(sites)
        for pattern in self.site_patterns():
            if is_exact(pattern):
                if pattern in known:
                    continue
            elif any(fnmatchcase(site, pattern) for site in sites):
                continue
            sample = ", ".join(repr(site) for site in sites[:6])
            raise ValueError(
                f"FaultPlan site pattern {pattern!r} matches none of the "
                f"{len(sites)} injection sites on this "
                f"{getattr(fabric, 'topology_name', 'fabric')} fabric "
                f"(e.g. {sample}); check FabricBackend.fault_sites()"
            )

    @staticmethod
    def _kernel_for(system, fabric, address: int):
        """Endpoint lookup by address for crash wiring.

        Tries the system's kernel table, then its ``nodes`` list, then
        the fabric backend's attach table; a crash address that matches
        nothing is a configuration error and raises instead of silently
        scheduling a no-op crash.
        """
        finder = getattr(system, "kernel_at", None)
        if finder is not None:
            try:
                return finder(address)
            except KeyError:
                pass
        nodes = getattr(system, "nodes", None)
        if nodes is not None:
            for node in nodes:
                if getattr(node, "address", None) == address:
                    return node
        if fabric is not None and address in getattr(fabric, "addresses", ()):
            iface = fabric.iface(address)
            return _EndpointShim(getattr(iface, "name", f"addr{address}"),
                                 iface)
        known = list(getattr(fabric, "addresses", ())) if fabric is not None \
            else sorted(
                getattr(node, "address", -1)
                for node in (getattr(system, "nodes", None) or ())
            )
        raise ValueError(
            f"FaultPlan(node_crashes=...) address {address} matches no "
            f"endpoint on this system (known addresses: "
            f"{known[:8]}{'...' if len(known) > 8 else ''})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.defaults
        return (
            f"<FaultPlan seed={self.seed} drop={d.drop} corrupt={d.corrupt} "
            f"delay={d.delay} duplicate={d.duplicate} "
            f"overflow={self.force_fifo_overflow} "
            f"crashes={len(self.node_crashes)} stalls={len(self.nic_stalls)}>"
        )
