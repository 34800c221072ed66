"""The benchmark's arithmetic: medians, the tail-percentile rule and the
paper's extraction/native ratio."""

from __future__ import annotations

import math
import statistics

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-quantile of ``n``."""
    return n - math.ceil(q * n)


def percentile(samples: list[float], q: float) -> float | None:
    """The nearest-rank ``q``-quantile, or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(n, q) < MIN_BEYOND:
        return None
    return sorted(samples)[math.ceil(q * n) - 1]


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def query_medians(samples: dict[str, list[float]]) -> dict[str, float]:
    """Each query's median, so that every query of the mix weighs the same
    however often it ran."""
    return {name: statistics.median(values) for name, values in samples.items()}


def extract_norm_s(extract_s: dict[str, list[float]]) -> float:
    """Geometric mean over the mix of each query's median (normalised)
    extraction seconds."""
    return geomean(list(query_medians(extract_s).values()))


def native_ratio(extract_s: dict[str, list[float]], native_s: dict[str, list[float]]) -> float:
    """Geometric mean over the mix of median extraction seconds divided by
    the median native run of the same hidden query on D_I."""
    extract = query_medians(extract_s)
    native = query_medians(native_s)
    return geomean([extract[name] / native[name] for name in extract])
