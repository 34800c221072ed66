"""Counters, gauges, and fixed-bucket histograms with a snapshot API.

Prometheus-flavoured semantics, in-process scale: a
:class:`MetricsRegistry` hands out named instruments on first use
(``registry.counter("invocations_total")``), and :meth:`MetricsRegistry.snapshot`
returns one JSON-serialisable dict of everything observed so far.

Histogram buckets are *cumulative upper bounds* (``value <= bound`` lands in
that bucket and every later one), matching the ``le`` convention, plus an
implicit ``+Inf`` bucket — so bucket counts are monotonically non-decreasing
and the last equals the observation count.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

#: Default latency buckets (seconds): sub-millisecond engine queries up to
#: multi-second whole-pipeline runs.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def label_key(name: str, labels: Optional[dict]) -> str:
    """Storage/exposition key for a (family, labels) pair.

    ``peer_quarantines_total`` + ``{"peer": "h:1"}`` →
    ``peer_quarantines_total{peer="h:1"}`` — the exact Prometheus sample
    syntax, so the key doubles as the rendered series name.
    """
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count, optionally labelled.

    Labels support the per-peer transport series (one ``Counter`` per label
    combination, all sharing a family name); the rest of the registry stays
    label-free.
    """

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels: Optional[dict] = None):
        self.name = name
        self.value = 0
        self.labels = dict(labels) if labels else None

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        out = {"type": "counter", "value": self.value}
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class Gauge:
    """A value that can go up and down (e.g. current silo row count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket histogram with cumulative ``le`` bucket semantics."""

    __slots__ = ("name", "bounds", "bucket_counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.name = name
        self.bounds = bounds
        #: non-cumulative per-bucket counts; index len(bounds) is +Inf
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        # Linear scan: bucket lists are short and observation is on a path
        # where a bisect call's overhead is comparable.
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, ending with ``inf``."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The smallest bucket bound covering fraction ``q`` of observations.

        Standard bucketed-percentile semantics (the resolution is the bucket
        grid, as with Prometheus ``histogram_quantile``): returns the upper
        bound of the first cumulative bucket at or past rank ``ceil(q * n)``.
        Edge cases: an empty histogram reports ``0.0``; ``q == 0`` reports
        the first occupied bucket's bound; observations that landed past the
        last finite bound (the ``+Inf`` bucket) clamp to the last finite
        bound, which is then a *lower* estimate.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile fraction must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            if running >= rank:
                return bound
        return self.bounds[-1]

    def percentiles(
        self, qs: Sequence[float] = (0.5, 0.95, 0.99)
    ) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` via :meth:`percentile`."""
        out: dict[str, float] = {}
        for q in qs:
            label = f"p{q * 100:g}"
            out[label] = self.percentile(q)
        return out

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": round(self.sum, 9),
            "mean": round(self.mean, 9),
            "buckets": [
                {"le": "inf" if bound == float("inf") else bound, "count": n}
                for bound, n in self.cumulative_buckets()
            ],
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshot on demand."""

    def __init__(self):
        self._instruments: dict[str, object] = {}

    def _get(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, requested {kind.__name__}"
            )
        return instrument

    def counter(self, name: str, labels: Optional[dict] = None) -> Counter:
        if labels is None:
            return self._get(name, Counter)
        key = label_key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Counter(name, labels)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Counter):
            raise TypeError(
                f"metric {key!r} already registered as "
                f"{type(instrument).__name__}, requested Counter"
            )
        return instrument

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        if buckets is None:
            return self._get(name, Histogram)
        return self._get(name, Histogram, buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's observations into this one.

        Each parallel probe task runs on a session fork with a private
        registry (the shared one is not thread-safe); the session's join
        merges them back on the main thread in submission order, so counter
        totals and histogram distributions match what the same probes would
        have recorded sequentially.  Counters and histograms accumulate; gauges adopt the
        other registry's latest value (last writer wins, as sequentially).
        """
        for name in sorted(other._instruments):
            instrument = other._instruments[name]
            if isinstance(instrument, Counter):
                self.counter(
                    instrument.name, labels=instrument.labels
                ).inc(instrument.value)
            elif isinstance(instrument, Histogram):
                mine = self.histogram(name, instrument.bounds)
                if mine.bounds != instrument.bounds:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ; cannot merge"
                    )
                mine.count += instrument.count
                mine.sum += instrument.sum
                for i, n in enumerate(instrument.bucket_counts):
                    mine.bucket_counts[i] += n
            elif isinstance(instrument, Gauge):
                self.gauge(name).set(instrument.value)

    def snapshot(self) -> dict:
        """All instruments as one JSON-serialisable dict, sorted by name."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Flat ``{name: value}`` view of counters, optionally by prefix.

        The serve ``/status`` endpoint uses this to surface e.g. every
        ``worker_*`` counter without serialising full instrument payloads.
        """
        return {
            name: instrument.value
            for name, instrument in sorted(self._instruments.items())
            if isinstance(instrument, Counter) and name.startswith(prefix)
        }

    def instruments(self) -> list[object]:
        """All instruments, sorted by name (the exposition order)."""
        return [self._instruments[name] for name in sorted(self._instruments)]

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _prom_name(name: str) -> str:
    """Sanitise a metric name to the Prometheus charset ``[a-zA-Z0-9_:]``."""
    return "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_"
        for ch in name
    )


def _prom_value(value) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Counters and gauges render as single samples; histograms render the
    standard cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``
    and convenience ``_p50`` / ``_p95`` / ``_p99`` gauges (bucket-grid
    resolution, see :meth:`Histogram.percentile`) so dashboards get
    quantiles without running ``histogram_quantile``.
    """
    lines: list[str] = []
    counter_families_typed: set = set()
    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        if isinstance(instrument, Counter):
            # one TYPE line per family, however many label combinations
            if name not in counter_families_typed:
                counter_families_typed.add(name)
                lines.append(f"# TYPE {name} counter")
            sample = _prom_name(instrument.name)
            if instrument.labels:
                inner = ",".join(
                    f'{_prom_name(key)}="{value}"'
                    for key, value in sorted(instrument.labels.items())
                )
                sample = f"{sample}{{{inner}}}"
            lines.append(f"{sample} {_prom_value(instrument.value)}")
        elif isinstance(instrument, Gauge):
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_prom_value(instrument.value)}")
        elif isinstance(instrument, Histogram):
            lines.append(f"# TYPE {name} histogram")
            for bound, count in instrument.cumulative_buckets():
                lines.append(
                    f'{name}_bucket{{le="{_prom_value(bound)}"}} {count}'
                )
            lines.append(f"{name}_sum {_prom_value(instrument.sum)}")
            lines.append(f"{name}_count {instrument.count}")
            for label, value in instrument.percentiles().items():
                lines.append(f"# TYPE {name}_{label} gauge")
                lines.append(f"{name}_{label} {_prom_value(value)}")
    return "\n".join(lines) + "\n"
