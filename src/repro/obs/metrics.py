"""The metrics registry: the one counter ledger of the reproduction.

Every count and time sum in the code base lives in a
:class:`MetricsRegistry`: the measurement pipeline and the chip simulator
``inc()`` into their platform's registry, pool workers ship the registry
they filled back to the parent as a plain dict (:meth:`drain` on one
side, :meth:`merge` of :meth:`from_dict` on the other), and the run
collector (:class:`~repro.core.telemetry.TelemetryCollector`) folds the
event stream into one.  "Merge" is written once, so the summing semantics
cannot drift between subsystems.

Names are dotted, ``<layer>.<counter>`` or ``<layer>.<counter>.<key>``
(``pipeline.path.periodic``).  A counter that sums wall-clock seconds has
a name segment ending in ``_s`` (``engine.eval_wall_s``,
``span.wall_s.ga.generation``); :func:`is_wall_clock` tells them apart, and
everything else is a deterministic count that a seeded campaign
reproduces exactly, serial or under ``--workers N``.

Merging is commutative and associative by construction: counters sum,
gauges keep the maximum (the only order-independent choice short of a
full distribution — use a histogram when the shape matters), histograms
add bucket-wise.  Quantiles (p50/p95/p99) interpolate linearly inside the
winning bucket, clamped to the observed min/max.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

#: Default histogram bucket upper bounds, in seconds: spans from a
#: sub-millisecond cache hit to a multi-minute shard.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0,
)


def is_wall_clock(name: str) -> bool:
    """True for counters that sum seconds (a name segment ends in ``_s``)."""
    return any(part.endswith("_s") for part in name.split("."))


@dataclass
class Histogram:
    """A fixed-bucket histogram with sum/count/min/max sidecars.

    ``counts[i]`` counts observations ``<= bounds[i]``; the final slot
    counts the overflow above the last bound.  Two histograms merge iff
    their bounds match — mismatched bounds raise rather than silently
    producing a distribution that means nothing.
    """

    bounds: tuple = DEFAULT_BUCKETS
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    min_value: float | None = None
    max_value: float | None = None

    def __post_init__(self) -> None:
        self.bounds = tuple(float(b) for b in self.bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError(
                f"expected {len(self.bounds) + 1} buckets, got {len(self.counts)}"
            )

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1), linearly interpolated within its bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                lo = self.bounds[index - 1] if index > 0 else (self.min_value or 0.0)
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else (self.max_value or lo)
                )
                lo = max(lo, self.min_value or lo)
                hi = min(hi, self.max_value or hi) if self.max_value is not None else hi
                if hi < lo:
                    hi = lo
                fraction = (rank - seen) / bucket_count
                return lo + (hi - lo) * fraction
            seen += bucket_count
        return self.max_value or 0.0

    def merge(self, other: "Histogram") -> "Histogram":
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} buckets)"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.total += other.total
        self.count += other.count
        for name in ("min_value", "max_value"):
            mine, theirs = getattr(self, name), getattr(other, name)
            if theirs is not None:
                pick = min if name == "min_value" else max
                setattr(self, name, theirs if mine is None else pick(mine, theirs))
        return self

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
            "min": self.min_value,
            "max": self.max_value,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=list(payload["counts"]),
            total=float(payload["total"]),
            count=int(payload["count"]),
            min_value=payload.get("min"),
            max_value=payload.get("max"),
        )


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one merge."""

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -- write side ----------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge_set(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def observe(self, name: str, value: float, *, bounds=DEFAULT_BUCKETS) -> None:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds=bounds)
        histogram.observe(value)

    # -- read side -----------------------------------------------------
    def counter(self, name: str, default: float = 0):
        return self._counters.get(name, default)

    def gauge(self, name: str, default: float | None = None):
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    def counters(self) -> dict:
        return dict(sorted(self._counters.items()))

    def family(self, prefix: str) -> dict:
        """Counters named ``<prefix>.<key>``, as ``{key: value}``."""
        head = prefix + "."
        return {
            name[len(head):]: value
            for name, value in sorted(self._counters.items())
            if name.startswith(head)
        }

    def deterministic_counters(self) -> dict:
        """Every counter except the wall-clock sums (see module docstring)."""
        return {
            name: value for name, value in sorted(self._counters.items())
            if not is_wall_clock(name)
        }

    def names(self) -> tuple:
        return tuple(sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        ))

    # -- merge / serialize ---------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry, in place; order-independent."""
        for name, value in other._counters.items():
            self._counters[name] = self._counters.get(name, 0) + value
        for name, value in other._gauges.items():
            mine = self._gauges.get(name)
            self._gauges[name] = value if mine is None else max(mine, value)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = Histogram.from_dict(histogram.to_dict())
            else:
                mine.merge(histogram)
        return self

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def drain(self) -> dict:
        """:meth:`to_dict`, then reset to empty: hand the contents over."""
        payload = self.to_dict()
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls()
        registry._counters = dict(payload.get("counters", {}))
        registry._gauges = dict(payload.get("gauges", {}))
        for name, blob in payload.get("histograms", {}).items():
            registry._histograms[name] = Histogram.from_dict(blob)
        return registry

    # -- presentation --------------------------------------------------
    def summary_rows(self) -> list:
        """(name, rendered-value) rows for the telemetry report tables."""
        rows = []
        for name, value in sorted(self._counters.items()):
            if isinstance(value, float):
                rows.append((name, f"{value:.4g}"))
            else:
                rows.append((name, value))
        for name, value in sorted(self._gauges.items()):
            rows.append((f"{name} (gauge)", f"{value:.4g}"))
        for name, histogram in sorted(self._histograms.items()):
            if not histogram.count:
                continue
            rows.append((
                name,
                f"n={histogram.count} p50={histogram.quantile(0.50):.4g} "
                f"p95={histogram.quantile(0.95):.4g} "
                f"p99={histogram.quantile(0.99):.4g}",
            ))
        return rows
