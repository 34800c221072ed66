"""Machine-speed probe used to normalise CPU-bound seconds.

The benchmark host's CPU speed drifts with the load of its neighbours: a
fixed pure-Python loop took 0.09-0.17 s per call within one minute, and its
60-second means spread by about 20%.  Raw seconds of CPU-bound extractions
therefore spread by 16-40% between runs, more than any usable regression
bound.  The probe times a fixed task shaped like the engine's scans -- a
predicate over tuples visited in random order, so it misses the caches the
way a scan of D_I does -- and does not touch the program under test.  Of
the candidate probes measured against extraction times in one process
(build/sort/hash of 20k tuples; a small hash join; this walk), this one
correlated best with extraction speed (r = 0.60 per extraction).
"""

from __future__ import annotations

import datetime
import random
import statistics
import time

#: one sample's seconds at nominal speed; normalised seconds are seconds on
#: a machine where a sample takes this long
NOMINAL_S = 0.020

#: How strongly extraction CPU time follows the probe: the log-log slope of
#: one on the other.  Measured over runs of the three workloads it lies
#: between 0.5 (tpch-di, whose scans and copies run partly in C) and 1.0
#: (tpch-probe); 0.75 left the least run-to-run spread over all three.
SENSITIVITY = 0.75

_ROWS = 100_000
_VISITS = 40_000
_REPEATS = 3
_CUTOFF = datetime.date(1995, 1, 1)
_SEED = 20210620


class SpeedProbe:
    def __init__(self):
        rng = random.Random(_SEED)
        start = datetime.date(1992, 1, 1)
        self._rows = [
            (
                i,
                rng.random() * 1000.0,
                f"s{rng.randrange(10**6)}",
                start + datetime.timedelta(days=rng.randrange(2500)),
                rng.randrange(50),
            )
            for i in range(_ROWS)
        ]
        order = list(range(_ROWS))
        rng.shuffle(order)
        self._order = order[:_VISITS]

    def sample(self) -> float:
        """Seconds for one pass of the fixed task."""
        rows = self._rows
        started = time.perf_counter()
        digest = 0
        for index in self._order:
            row = rows[index]
            if row[3] < _CUTOFF and row[4] < 24:
                digest ^= hash(row)
        return time.perf_counter() - started

    def factor(self) -> float:
        """Nominal over measured speed, from a few samples taken now: <1 on
        a machine running slower than nominal."""
        return NOMINAL_S / statistics.mean(self.sample() for _ in range(_REPEATS))


def normalized(seconds: float, cpu: float, factor: float) -> float:
    """``seconds`` with its ``cpu`` part rescaled to nominal machine speed;
    time blocked (on the simulated application round-trip) stays as is."""
    return seconds - cpu + cpu * factor**SENSITIVITY
