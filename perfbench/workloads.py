"""The three extraction workloads and the hidden application they run.

Each workload is a mix of bundled TPC-H hidden queries extracted one after
another by a single client (closed loop: an extraction starts when the
previous one returns, like one analyst waiting for each result).  The
workloads differ in the layer that dominates an extraction:

* ``tpch-probe`` -- small D_I, so the few hundred tiny probes on D^1 and
  their per-probe framework cost (memo-key hashing, row coercion,
  snapshot/restore, interpreted predicates) dominate.
* ``tpch-di`` -- ten times the data, lineitem-bearing queries only, so the
  D_I-scale phase (setup, EQC preflight, From clause, sampler, minimizer,
  D_I fingerprint and silo clone) dominates and probes are negligible.
* ``tpch-latency`` -- small D_I, two scheduler threads and a fixed simulated
  application round-trip per physical execution, so physical executions
  times latency decide the time: the invocation memo, speculation waste and
  probe overlap matter, engine speed barely does.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.bench.extraction_bench import LatencySQLExecutable
from repro.core.config import ExtractionConfig
from repro.datagen import tpch
from repro.workloads import tpch_queries


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    queries: tuple[str, ...]
    #: probe scheduler threads (the benchmark host has 2 cores)
    jobs: int
    #: simulated application round-trip per physical execution, seconds
    latency: float
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tpch-probe",
            scale=0.002,
            queries=("Q1", "Q3", "Q5", "Q6", "Q10", "Q14"),
            jobs=1,
            latency=0.0,
            why="SF 0.002, 1-6 tables: the few hundred tiny D1 probes and "
            "their per-probe framework cost dominate",
        ),
        Workload(
            name="tpch-di",
            scale=0.02,
            queries=("Q3", "Q6", "Q14", "Q19"),
            jobs=1,
            latency=0.0,
            why="SF 0.02 lineitem queries: the D_I-scale phase (preflight, "
            "From clause, sampler, minimizer, D_I hashing) dominates",
        ),
        Workload(
            name="tpch-latency",
            scale=0.002,
            queries=("Q3", "Q5", "Q14"),
            jobs=2,
            latency=0.020,
            why="SF 0.002, jobs=2, 20 ms app round-trip per physical "
            "execution: memo, speculation and probe overlap decide time",
        ),
    )
}


class BenchApp(LatencySQLExecutable):
    """The hidden application: an obfuscated SQL query with an optional
    fixed round-trip latency, counting its physical executions.

    Physical executions are every call that reaches the database -- counted
    runs, speculative probes and retries alike; invocation-memo hits skip
    them.  The two scheduler threads share the counter, hence the lock.
    """

    def __init__(self, sql: str, latency: float, name: str):
        super().__init__(sql, latency=latency, name=name)
        self._physical_lock = threading.Lock()
        self.physical = 0

    def _execute(self, db, timeout):
        with self._physical_lock:
            self.physical += 1
        return super()._execute(db, timeout)


def build(workload: Workload, seed: int):
    """Set up one workload: D_I from ``seed`` plus one app per mix query.

    The program under test only ever sees the returned database and apps.
    """
    db = tpch.build_database(scale=workload.scale, seed=seed)
    apps = {
        name: BenchApp(
            tpch_queries.QUERIES[name].sql,
            latency=workload.latency,
            name=f"perfbench-{name}",
        )
        for name in workload.queries
    }
    return db, apps


def hidden_sql(name: str) -> str:
    return tpch_queries.QUERIES[name].sql


def config(workload: Workload):
    """The extraction configuration users run: defaults (checker and EQC
    guard on), with the workload's scheduler width."""
    return ExtractionConfig(jobs=workload.jobs)
