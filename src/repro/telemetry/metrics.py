"""Metrics registry: named counters and log-2 bucketed histograms.

The registry is the in-process aggregate view of the event stream --
the ``stats`` CLI folds a stored trace back into one of these, and an
enabled :class:`~repro.telemetry.bus.Telemetry` keeps per-event-type
counts as it emits.  Histograms use power-of-two buckets because the
quantities they hold (detection latencies in instructions, downtime in
cycles) span four orders of magnitude.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


class Histogram:
    """Log-2 bucketed histogram of non-negative integer observations.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)``; bucket 0
    counts exact zeros.  Tracks count/total/min/max exactly.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None  # type: ignore[assignment]
        self.max = None  # type: ignore[assignment]
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length()  # 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_rows(self) -> List[Tuple[str, int]]:
        """``(label, count)`` rows for the non-empty buckets, ascending."""
        rows = []
        for bucket in sorted(self.buckets):
            if bucket == 0:
                label = "0"
            elif bucket == 1:
                label = "1"
            else:
                label = f"{2 ** (bucket - 1)}-{2 ** bucket - 1}"
            rows.append((label, self.buckets[bucket]))
        return rows

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Named monotonic counters plus named histograms."""

    __slots__ = ("counters", "histograms")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def observe(self, name: str, value: int) -> None:
        self.histogram(name).observe(value)

    def names(self) -> Iterable[str]:
        return sorted(set(self.counters) | set(self.histograms))

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {name: h.as_dict()
                           for name, h in sorted(self.histograms.items())},
        }
