"""Metric collection for simulations.

The :class:`Monitor` is a lightweight metric registry shared by every entity
in a simulation.  Three metric kinds cover the needs of the benchmark
harness:

* :class:`Counter` — strictly monotonically increasing totals (bytes sent,
  tasks done); a negative delta is a programming error and raises.
* :class:`Gauge` — a value that legitimately goes up *and* down (mesh
  size, leased cells, queue depth).
* :class:`SampleSeries` — numeric observations (latencies) kept as a
  count, a running sum and fixed-bucket counts, not as raw values.

The kinds map one-to-one onto Prometheus families in
:mod:`repro.telemetry.prometheus` (counter/gauge/histogram respectively),
which is why the counter/gauge split is enforced rather than documented
away.  Every kind is a fixed-size aggregate, so a monitor's size grows with
the number of metric names, not with run length.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Tuple

import numpy as np

#: Upper bucket bounds (seconds-flavoured, the Prometheus defaults) of every
#: :class:`SampleSeries`; the exposition's ``+Inf`` bucket is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
_BOUNDS = np.array(DEFAULT_BUCKETS)


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
    """Numeric observations folded into a fixed-bucket histogram.

    Holds a count, a running sum and one count per bucket of
    :data:`DEFAULT_BUCKETS` (plus an overflow bucket above the last bound),
    so its size does not grow with the run.  An observation lands in the
    first bucket whose upper bound is at least its value, the exposition's
    ``le`` rule; NaN observations are skipped.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        #: Observations per bucket; the last entry counts those above every
        #: bound.
        self.bucket_counts: List[int] = [0] * (len(DEFAULT_BUCKETS) + 1)

    def add(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if value != value:
            return
        self.count += 1
        self.sum += value
        self.bucket_counts[bisect_left(DEFAULT_BUCKETS, value)] += 1

    def add_many(self, values: np.ndarray) -> None:
        """Record every element of a float array."""
        total = float(values.sum())
        if total != total:
            values = values[~np.isnan(values)]
            total = float(values.sum())
        self.count += values.size
        self.sum += total
        per_bucket = np.bincount(
            np.searchsorted(_BOUNDS, values), minlength=len(self.bucket_counts)
        )
        self.bucket_counts = [
            have + new for have, new in zip(self.bucket_counts, per_bucket.tolist())
        ]

    def mean(self) -> float:
        """Arithmetic mean, or ``nan`` when empty."""
        if not self.count:
            return math.nan
        return self.sum / self.count

    def cumulative_buckets(self) -> Tuple[Tuple[float, int], ...]:
        """``(upper bound, observations at or below it)`` per bound."""
        return tuple(zip(DEFAULT_BUCKETS, accumulate(self.bucket_counts)))


@dataclass
class Monitor:
    """Registry of named metrics for one simulation run."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    samples: Dict[str, SampleSeries] = field(default_factory=dict)
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
                out[f"sample.{name}.count"] = float(sample.count)
        return out
