"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's claims are observational — packet fates, byte costs, path
shapes — so every layer of the simulator carries counters.  Before this
module they were hand-rolled integer attributes scraped by name from
``analysis/collector.py``; now components *register* them here and the
analysis layer queries the registry.

The registry is **pull-first**: a component registers a metric with a
``read`` callback that returns the current value of the plain attribute
it already maintains (``node.packets_sent += 1`` stays a bare integer
increment).  The hot path therefore pays nothing — no method call, no
flag check — and the cost of observability is concentrated entirely in
:meth:`MetricsRegistry.collect`, which only runs when somebody asks for
a snapshot: one flat ``{"name{k=v,...}": value}`` object, values only,
each metric's ``kind`` staying on the live registry.  Push-style metrics
(``inc``/``set``/``observe``) exist for code that has no natural
attribute to read, e.g. span summaries.

This mirrors how production metric systems handle instrumenting code
that cannot afford per-event overhead (Prometheus custom collectors,
ns-3's attribute probes).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
]

# Fixed bucket boundaries (seconds / bytes).  Fixed — not adaptive — so
# histograms from different runs and different modes are directly
# comparable and mergeable, the property the per-mode span summaries
# rely on.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0,
)
SIZE_BUCKETS: Tuple[float, ...] = (
    0, 8, 12, 16, 20, 24, 28, 32, 40, 64, 128, 256, 512, 1024, 1500,
)

# A label set's identity in the registry and its suffix in a snapshot:
# ``{k=v,...}`` sorted by key, or "" without labels.
LabelKey = str


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ""
    return "{" + ",".join([f"{k}={labels[k]}" for k in sorted(labels)]) + "}"


class Counter:
    """A monotonically non-decreasing count.

    Either *push* (call :meth:`inc`) or *pull* (constructed with a
    ``read`` callback returning the backing attribute's value) — never
    both.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_read")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        read: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.labels = labels
        self._value = 0
        self._read = read

    def inc(self, amount: int = 1) -> None:
        if self._read is not None:
            raise RuntimeError(f"{self.name} is a pull counter; mutate its source")
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._read() if self._read is not None else self._value


class Gauge:
    """A value that can go up or down (queue depth, binding count)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_read")

    def __init__(
        self,
        name: str,
        labels: Dict[str, str],
        read: Optional[Callable[[], float]] = None,
    ):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._read = read

    def set(self, value: float) -> None:
        if self._read is not None:
            raise RuntimeError(f"{self.name} is a pull gauge; mutate its source")
        self._value = value

    @property
    def value(self) -> float:
        return self._read() if self._read is not None else self._value


class Histogram:
    """A fixed-boundary histogram (push only).

    ``bounds`` are upper bucket edges; one implicit overflow bucket
    catches everything above the last edge.  Quantiles are estimated by
    linear interpolation inside the bucket that crosses the target
    rank, the standard fixed-bucket estimator.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts",
                 "count", "total", "min", "max")

    def __init__(self, name: str, labels: Dict[str, str], bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def value(self) -> float:
        """Observation count, for uniformity with counters/gauges."""
        return self.count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (q in [0, 1]) from the bucket counts."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = self.min if self.min is not None else 0.0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            if bucket and cumulative + bucket >= target:
                fraction = (target - cumulative) / bucket
                lower = min(lower, bound)
                return lower + (bound - lower) * fraction
            cumulative += bucket
            lower = bound
        return self.max if self.max is not None else lower

    def snapshot(self) -> Dict[str, Any]:
        buckets = [
            {"le": bound, "count": count}
            for bound, count in zip(self.bounds, self.bucket_counts)
        ]
        buckets.append({"le": "+Inf", "count": self.bucket_counts[-1]})
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }


class MetricsRegistry:
    """All metrics of one simulation run, keyed by (name, labels).

    Registration is idempotent: registering an existing (name, labels)
    pair returns the existing metric — except that a new ``read``
    callback re-points a pull metric at its newest source, so a
    re-created component (a re-built segment, a fresh tunnel endpoint)
    transparently takes over its metric identity.

    *Families* cover dynamically-labelled data that already lives in a
    dict (drop reasons, per-link byte counters): a family is a callback
    returning ``{label_value: number}``, snapshotted on demand under its
    bare name, so no counter, gauge or histogram may share that name.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Dict[LabelKey, Any]] = {}
        self._families: Dict[str, Callable[[], Dict[str, float]]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        read: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Counter:
        return self._register(Counter, name, labels, read)

    def gauge(
        self,
        name: str,
        read: Optional[Callable[[], float]] = None,
        **labels: str,
    ) -> Gauge:
        return self._register(Gauge, name, labels, read)

    def histogram(
        self, name: str, bounds: Sequence[float] = LATENCY_BUCKETS, **labels: str
    ) -> Histogram:
        key = _label_key(labels)
        by_label = self._by_label(name)
        existing = by_label.get(key)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise TypeError(
                    f"{name}{dict(labels)} already registered as {existing.kind}"
                )
            return existing
        metric = Histogram(name, dict(labels), bounds)
        by_label[key] = metric
        return metric

    def _by_label(self, name: str) -> Dict[LabelKey, Any]:
        if name in self._families:
            raise TypeError(f"{name} already registered as family")
        return self._metrics.setdefault(name, {})

    def _register(self, cls: type, name: str, labels: Dict[str, str], read) -> Any:
        key = _label_key(labels)
        by_label = self._by_label(name)
        existing = by_label.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"{name}{dict(labels)} already registered as {existing.kind}"
                )
            if read is not None:
                existing._read = read
            return existing
        metric = cls(name, dict(labels), read)
        by_label[key] = metric
        return metric

    def family(self, name: str, read: Callable[[], Dict[str, float]]) -> None:
        """Register a dynamically-labelled metric family."""
        if self._metrics.get(name):
            kind = next(iter(self._metrics[name].values())).kind
            raise TypeError(f"{name} already registered as {kind}")
        self._families[name] = read

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, name: str, **labels: str) -> Optional[Any]:
        return self._metrics.get(name, {}).get(_label_key(labels))

    def value(self, name: str, **labels: str) -> float:
        metric = self.get(name, **labels)
        if metric is None:
            raise KeyError(f"no metric {name!r} with labels {dict(labels)}")
        return metric.value

    def series(self, name: str) -> Iterator[Tuple[Dict[str, str], float]]:
        """Iterate (labels, value) for every label set of ``name``."""
        for metric in self._metrics.get(name, {}).values():
            yield dict(metric.labels), metric.value

    def total(self, name: str) -> float:
        """Sum of ``name`` across all label sets."""
        return sum(value for _, value in self.series(name))

    def read_family(self, name: str) -> Dict[str, float]:
        read = self._families.get(name)
        return dict(read()) if read is not None else {}

    def names(self) -> List[str]:
        return sorted(set(self._metrics) | set(self._families))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """Snapshot every series into one flat JSON object keyed
        ``name{k=v,...}`` (labels sorted by key; bare ``name`` without
        labels), valued by a counter's or gauge's number, a histogram's
        :meth:`Histogram.snapshot` or a family's dict.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._metrics):
            for key, metric in self._metrics[name].items():
                out[name + key] = (metric.snapshot() if isinstance(metric, Histogram)
                                   else metric.value)
        for name in sorted(self._families):
            out[name] = self.read_family(name)
        return out
