"""The vstat metrics registry: counters, gauges, fixed-bucket histograms.

Paper Section 6 credits VORX's observability tooling -- the software
oscilloscope, cdb, and prof -- as its decisive advantage over Meglos.
This module is the unified backbone those tools (and every benchmark)
read from: each node and fabric component owns a :class:`MetricsRegistry`
of named metrics, and :meth:`MetricsRegistry.snapshot` renders them as
plain dictionaries for JSONL export and the ``scripts/report.py`` CLI.

Metrics are deliberately simple simulation-side objects: incrementing a
counter costs no simulated time (the real VORX kernels kept these counts
in driver state that cdb read directly, Section 6.1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Optional

#: Default latency buckets (microseconds).  Chosen so the paper's channel
#: anchors (Table 2: ~303 us at 4 bytes, ~997 us at 1024 bytes) land in
#: well-resolved buckets.
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0, 400.0,
    500.0, 650.0, 800.0, 1000.0, 1300.0, 1600.0, 2000.0, 3000.0, 5000.0,
    10_000.0, 25_000.0, 50_000.0, 100_000.0, 250_000.0, 1_000_000.0,
)

#: Label tuple type used as part of the metric key.
Labels = tuple


class Counter:
    """A monotonically increasing count (messages, bytes, switches...)."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease: {amount}")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """An instantaneous level (queue depth, outstanding calls...).

    Tracks the high-water mark so reports can show peak depths without
    sampling.
    """

    __slots__ = ("name", "labels", "value", "max_value")

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0
        self.max_value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"value": self.value, "max": self.max_value}


class Histogram:
    """A fixed-bucket histogram of latency-like observations.

    ``buckets`` are upper edges; one implicit overflow bucket catches
    everything above the last edge.  Exact ``sum``/``count``/``min``/
    ``max`` are kept alongside, so the mean is exact and percentile
    interpolation can be clipped to the observed range.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> None:
        edges = tuple(sorted(buckets))
        if not edges:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.labels = labels
        self.buckets = edges
        #: Per-bucket observation counts; one extra slot for overflow.
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile ``p`` (0..100), interpolated per bucket.

        The result is clipped to the observed [min, max] range, so
        tightly clustered observations report accurately even when they
        all fall into one bucket.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in 0..100, got {p}")
        if self.count == 0:
            return 0.0
        target = self.count * p / 100.0
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= target and bucket_count > 0:
                lo = self.buckets[index - 1] if index > 0 else 0.0
                hi = (self.buckets[index]
                      if index < len(self.buckets) else self.max)
                fraction = (target - cumulative) / bucket_count
                value = lo + (hi - lo) * fraction
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "buckets": {
                **{str(edge): n
                   for edge, n in zip(self.buckets, self.counts) if n},
                **({"+inf": self.counts[-1]} if self.counts[-1] else {}),
            },
        }


#: The ``(name, ())`` key of each unlabelled metric name, shared by
#: every registry: a 1024-endpoint fabric has 5,120 registries (one per
#: link and interface) of the same few names.  Bounded by the metric
#: names in the source; labelled keys (arm names, process names) stay
#: per registry.
_UNLABELLED_KEYS: dict[str, tuple[str, Labels]] = {}


def _render_key(name: str, labels: Labels) -> str:
    if not labels:
        return name
    return f"{name}{{{','.join(str(part) for part in labels)}}}"


class MetricsRegistry:
    """All metrics of one node (or fabric component), keyed by name+labels."""

    __slots__ = ("node", "_metrics")

    def __init__(self, node: str = "") -> None:
        self.node = node
        self._metrics: dict[tuple[str, Labels], object] = {}

    # -- get-or-create -----------------------------------------------------
    def _get(self, cls, name: str, labels: Labels, **kwargs):
        if labels:
            labels = tuple(labels)
            key = (name, labels)
        else:
            # An unlabelled key is the same tuple in every registry.
            key = _UNLABELLED_KEYS.get(name)
            if key is None:
                key = _UNLABELLED_KEYS[name] = (name, ())
            labels = key[1]
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, labels, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"{self.node}: metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, labels: Labels = ()) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels: Labels = ()) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Labels = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- queries -----------------------------------------------------------
    def get(self, name: str, labels: Labels = ()) -> Optional[object]:
        """The metric, or None if it was never created."""
        return self._metrics.get((name, tuple(labels)))

    def value(self, name: str, labels: Labels = ()) -> float:
        """A counter/gauge value, 0.0 if absent (convenient in tests)."""
        metric = self.get(name, labels)
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[attr-defined]

    def labelled(self, name: str) -> dict[Labels, object]:
        """Every metric registered under ``name``, keyed by label tuple."""
        return {
            labels: metric
            for (metric_name, labels), metric in self._metrics.items()
            if metric_name == name
        }

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    # -- export ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict rendering: the unit consumed by JSONL export/report."""
        counters: dict[str, float] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            key = _render_key(name, labels)
            if metric.kind == "counter":  # type: ignore[attr-defined]
                counters[key] = metric.snapshot()  # type: ignore[attr-defined]
            elif metric.kind == "gauge":  # type: ignore[attr-defined]
                gauges[key] = metric.snapshot()  # type: ignore[attr-defined]
            else:
                histograms[key] = metric.snapshot()  # type: ignore[attr-defined]
        return {
            "node": self.node,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
