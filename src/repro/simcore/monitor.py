"""Metric collection for simulations.

The :class:`Monitor` is a lightweight metric registry shared by every entity
in a simulation.  Four metric kinds cover the needs of the benchmark
harness:

* :class:`Counter` — strictly monotonically increasing totals (bytes sent,
  tasks done); a negative delta is a programming error and raises.
* :class:`Gauge` — a value that legitimately goes up *and* down (mesh
  size, leased cells, queue depth).
* :class:`SampleSeries` — unordered numeric observations (latencies) with
  percentile/mean summaries.
* :class:`TimeSeries` — ``(time, value)`` pairs for quantities that evolve
  over virtual time (mesh size, utilisation), with time-weighted averaging.

The kinds map one-to-one onto Prometheus families in
:mod:`repro.telemetry.prometheus` (counter/gauge/histogram/gauge
respectively), which is why the counter/gauge split is enforced rather
than documented away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics.statistics import percentile


class Counter:
    """A named monotonically increasing total.

    Strictly monotonic: :meth:`add` rejects negative deltas, so a counter's
    value can be exported as a Prometheus counter and rate()-ed without
    resets ever meaning "someone subtracted".  Use :class:`Gauge` for
    values that go down.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        """Add a non-negative ``amount`` to the counter."""
        if amount < 0:
            raise ValueError(
                f"Counter {self.name!r} is monotonic; cannot add {amount} "
                "(use a Gauge for values that go down)"
            )
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that moves in both directions (mesh size, queue depth)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = float(value)

    def add(self, amount: float = 1.0) -> None:
        """Move the gauge by ``amount`` (negative deltas are the point)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Gauge({self.name}={self.value})"


class SampleSeries:
    """A bag of numeric observations with summary statistics."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.values: List[float] = []

    def add(self, value: float) -> None:
        """Record one observation."""
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def count(self) -> int:
        """Number of observations recorded."""
        return len(self.values)

    def mean(self) -> float:
        """Arithmetic mean, or ``nan`` when empty."""
        if not self.values:
            return math.nan
        return sum(self.values) / len(self.values)

    def minimum(self) -> float:
        """Smallest observation, or ``nan`` when empty."""
        return min(self.values) if self.values else math.nan

    def maximum(self) -> float:
        """Largest observation, or ``nan`` when empty."""
        return max(self.values) if self.values else math.nan

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` in ``[0, 100]``."""
        return percentile(self.values, q)

    def stddev(self) -> float:
        """Population standard deviation, or ``nan`` for fewer than 2 samples."""
        if len(self.values) < 2:
            return math.nan
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / len(self.values))


class TimeSeries:
    """``(time, value)`` observations of a quantity evolving over time."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.points: List[Tuple[float, float]] = []

    def record(self, time: float, value: float) -> None:
        """Append an observation; times must be non-decreasing."""
        if self.points and time < self.points[-1][0]:
            raise ValueError(
                f"TimeSeries {self.name}: time {time} precedes last "
                f"observation at {self.points[-1][0]}"
            )
        self.points.append((float(time), float(value)))

    def __len__(self) -> int:
        return len(self.points)

    def last(self) -> Optional[float]:
        """Most recent value, or ``None`` when empty."""
        return self.points[-1][1] if self.points else None

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        """Average value weighted by how long each value was held.

        The final value is held until ``until`` (defaults to the last
        observation time, making the last point weightless).
        """
        if not self.points:
            return math.nan
        end = self.points[-1][0] if until is None else until
        total = 0.0
        duration = 0.0
        for (t0, v0), (t1, _v1) in zip(self.points, self.points[1:]):
            total += v0 * (t1 - t0)
            duration += t1 - t0
        last_t, last_v = self.points[-1]
        if end > last_t:
            total += last_v * (end - last_t)
            duration += end - last_t
        if duration <= 0:
            return self.points[-1][1]
        return total / duration

    def maximum(self) -> float:
        """Largest recorded value, or ``nan`` when empty."""
        return max(v for _, v in self.points) if self.points else math.nan


@dataclass
class Monitor:
    """Registry of named metrics for one simulation run."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    samples: Dict[str, SampleSeries] = field(default_factory=dict)
    series: Dict[str, TimeSeries] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Return (creating if needed) the counter called ``name``."""
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        """Return (creating if needed) the gauge called ``name``."""
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def sample(self, name: str) -> SampleSeries:
        """Return (creating if needed) the sample series called ``name``."""
        if name not in self.samples:
            self.samples[name] = SampleSeries(name)
        return self.samples[name]

    def timeseries(self, name: str) -> TimeSeries:
        """Return (creating if needed) the time series called ``name``."""
        if name not in self.series:
            self.series[name] = TimeSeries(name)
        return self.series[name]

    def counter_value(self, name: str, default: float = 0.0) -> float:
        """Value of a counter without creating it."""
        if name in self.counters:
            return self.counters[name].value
        return default

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of headline numbers for quick experiment output."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            out[f"counter.{name}"] = counter.value
        for name, gauge in self.gauges.items():
            out[f"gauge.{name}"] = gauge.value
        for name, sample in self.samples.items():
            if sample.count:
                out[f"sample.{name}.mean"] = sample.mean()
                out[f"sample.{name}.p95"] = sample.percentile(95)
                out[f"sample.{name}.count"] = float(sample.count)
        for name, ts in self.series.items():
            if len(ts):
                out[f"series.{name}.mean"] = ts.time_weighted_mean()
                out[f"series.{name}.last"] = float(ts.last() or 0.0)
        return out
