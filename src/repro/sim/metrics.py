"""Metric collection for simulations.

Plain in-memory collectors: counters, gauges, value histograms with
exact percentile queries, time series, and streaming quantile sketches
(:class:`~repro.obs.quantile.QuantileSketch`: p50/p95/p99 without
retaining raw samples). A :class:`MetricRegistry` groups them under
hierarchical dotted names.

The registry holds only telemetry no other object holds. Run-level
outcomes (serving tallies, the Δ-atomicity verdict, the erasure
outcome, page load times) live in :class:`repro.harness.RunResult`,
and the checkers keep their own records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.quantile import QuantileSketch


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


@dataclass
class Gauge:
    """A value that can move up and down."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Stores raw observations; answers percentile/mean queries exactly.

    Simulations here record at most a few million observations, so exact
    storage is affordable and avoids bucket-boundary artifacts in the
    reproduced figures.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        """Record one observation."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s raw observations into self (exact concat).

        Percentile/mean queries over the merged histogram are identical
        to queries over one histogram fed both observation streams —
        raw values are retained, so the merge is exact and
        order-independent up to the (irrelevant) storage order.
        """
        self.extend(other._values)
        return self

    def __len__(self) -> int:
        return len(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def _require_values(self) -> None:
        if not self._values:
            raise ValueError(f"histogram {self.name!r} is empty")

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values.sort()
            self._sorted = True

    def percentile(self, q: float) -> float:
        """Exact percentile via linear interpolation; ``q`` in [0, 100]."""
        self._require_values()
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        self._ensure_sorted()
        if len(self._values) == 1:
            return self._values[0]
        rank = (q / 100.0) * (len(self._values) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return self._values[low]
        weight = rank - low
        return self._values[low] * (1 - weight) + self._values[high] * weight

    def median(self) -> float:
        return self.percentile(50.0)

    def mean(self) -> float:
        self._require_values()
        return sum(self._values) / len(self._values)

    def min(self) -> float:
        self._require_values()
        self._ensure_sorted()
        return self._values[0]

    def max(self) -> float:
        self._require_values()
        self._ensure_sorted()
        return self._values[-1]

    def stddev(self) -> float:
        if len(self._values) < 2:
            return 0.0
        mu = self.mean()
        var = sum((v - mu) ** 2 for v in self._values) / (len(self._values) - 1)
        return math.sqrt(var)

    def summary(self) -> Dict[str, float]:
        """The standard row reported by the benchmark harness."""
        if not self._values:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.min(),
            "max": self.max(),
        }

    def __repr__(self) -> str:
        return f"Histogram(name={self.name!r}, count={self.count})"


@dataclass
class TimeSeries:
    """Timestamped observations, e.g. hit-ratio over simulated time."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        self.points.append((float(time), float(value)))

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Fold ``other``'s points into self, keeping time order."""
        self.points = sorted(self.points + other.points)
        return self

    def __len__(self) -> int:
        return len(self.points)


class MetricRegistry:
    """Create-or-get access to named metrics."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._sketches: Dict[str, QuantileSketch] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name)
        return metric

    def series(self, name: str) -> TimeSeries:
        metric = self._series.get(name)
        if metric is None:
            metric = self._series[name] = TimeSeries(name)
        return metric

    def sketch(self, name: str) -> QuantileSketch:
        metric = self._sketches.get(name)
        if metric is None:
            metric = self._sketches[name] = QuantileSketch()
        return metric

    def get_counter(self, name: str) -> Optional[Counter]:
        return self._counters.get(name)

    def counter_names(self) -> List[str]:
        """Names of all counters created so far (sorted)."""
        return sorted(self._counters)

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold another registry into self, metric by metric.

        The merge is *exact* for every collector type: counters and
        gauges sum, histograms concatenate their raw observations, time
        series interleave their points in time order, and quantile
        sketches use their exact, order-independent bucket merge.
        Metrics present only in ``other`` are created. This is the
        registry half of the sharded-simulation merge contract —
        merging N per-shard registries is equivalent to one registry
        having observed all N event streams.
        """
        for name, counter in other._counters.items():
            self.counter(name).value += counter.value
        for name, gauge in other._gauges.items():
            self.gauge(name).value += gauge.value
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        for name, series in other._series.items():
            self.series(name).merge(series)
        for name, sketch in other._sketches.items():
            self.sketch(name).merge(sketch)
        return self
