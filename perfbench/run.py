#!/usr/bin/env python3
"""Layer-attributed extraction benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload tpch-probe --seed 7 --seconds 45 --trace 0

One client extracts the workload's hidden queries in a closed loop (each
extraction starts when the previous one returns), cycling through the mix
until ``--seconds`` have passed and every query ran at least once.  Every
extracted SQL is checked against a sqlite3 oracle, and must be identical,
with an identical invocation count, across every repetition of its query.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with wrappers on the layer entry points, and
reports the per-layer metrics plus the tracing overhead.  Human-readable
tables go to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit codes: 0 all extractions correct; 1 an extraction failed or was wrong;
2 bad usage or no ``src/repro`` to benchmark; 3 a mix query has an empty
result on the generated D_I (failed precondition).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from operator import itemgetter
from pathlib import Path

import spans
import speed
import summary

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per run; set-up time is the median import time of a fresh
#: interpreter plus the median in-process datagen and app construction
SETUP_REPEATS = 3

#: before each extraction, native runs of its hidden query are timed until
#: both bounds are met
NATIVE_MIN_S = 0.3
NATIVE_MIN_RUNS = 2

#: what a fresh interpreter imports before it can extract (timed in a child)
_IMPORTS = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import repro.core.pipeline, repro.datagen.tpch\n"
    "import repro.workloads.tpch_queries, repro.bench.extraction_bench\n"
    "print(time.perf_counter() - started)\n"
)

#: end-to-end metric -> (unit, better)
END_TO_END = {
    "extract_norm_s": ("s", "lower"),
    "native_ratio": ("ratio", "lower"),
    "invocations_per_extraction": ("count", "lower"),
    "physical_execs_per_extraction": ("count", "lower"),
    "correct_frac": ("ratio", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_native(db, sql: str) -> list[float]:
    """Timed native runs of ``sql`` on D_I through ``Database.execute``."""
    times: list[float] = []
    while len(times) < NATIVE_MIN_RUNS or sum(times) < NATIVE_MIN_S:
        started = time.perf_counter()
        db.execute(sql)
        times.append(time.perf_counter() - started)
    return times


def time_imports() -> float:
    """Median seconds a fresh interpreter spends importing the program."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", _IMPORTS, str(ROOT / "src")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def extract_once(db, app, config, name: str) -> dict:
    """One timed extraction; never raises (failures are recorded)."""
    from repro.core.pipeline import UnmasqueExtractor

    record = {"query": name, "sql": None, "invocations": None, "error": None}
    physical_before = app.physical
    cpu_started = time.process_time()
    started = time.perf_counter()
    try:
        outcome = UnmasqueExtractor(db, app, config).extract()
    except Exception:  # the loop must go on; the failure is reported
        record["error"] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        outcome = None
    record["seconds"] = time.perf_counter() - started
    record["cpu"] = time.process_time() - cpu_started
    if outcome is None:
        return record
    record["physical"] = app.physical - physical_before
    record["outcome"] = outcome
    record["sql"] = outcome.sql
    record["invocations"] = outcome.stats.total_invocations
    if outcome.verdict != "ok" or outcome.is_degraded:
        record["error"] = f"verdict {outcome.verdict}, degraded={outcome.is_degraded}"
    return record


def closed_loop(db, apps, workload, budget_s: float, probe, native: bool) -> list[dict]:
    """Extract the mix in turn until ``budget_s`` has passed and every query
    ran once.

    The machine's speed is probed before the first and after every
    extraction; each record carries the median ``factor`` of the loop.  With
    ``native``, the native runs of its hidden query on D_I, timed just
    before it, ride along too.
    """
    from workloads import config, hidden_sql

    cfg = config(workload)
    records: list[dict] = []
    factors = [probe.factor()]
    deadline = time.perf_counter() + budget_s
    for name in itertools.cycle(workload.queries):
        if len(records) >= len(workload.queries) and time.perf_counter() >= deadline:
            break
        natives = time_native(db, hidden_sql(name)) if native else []
        record = extract_once(db, apps[name], cfg, name)
        record["native"] = natives
        records.append(record)
        factors.append(probe.factor())
    for record in records:
        record["factor"] = statistics.median(factors)
    return records


def reset_peak_rss() -> bool:
    """Lower the process's resident-set high-water mark to its current
    resident set (Linux ``clear_refs`` 5); False where that is not possible."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """The resident-set high-water mark (``VmHWM``) in MB."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
    if match is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return int(match.group(1)) / 1024.0


def normalized(record: dict) -> float:
    return speed.normalized(record["seconds"], record["cpu"], record["factor"])


def by_query(records: list[dict], value) -> dict[str, list]:
    out: dict[str, list] = {}
    for record in records:
        out.setdefault(record["query"], []).append(value(record))
    return out


def verify(records: list[dict], workload, seed: int, db) -> dict[int, str]:
    """Oracle and repetition checks: record index -> reason it is wrong."""
    import oracle
    from repro.datagen import tpch
    from workloads import hidden_sql

    wrong: dict[int, str] = {}
    first: dict[str, dict] = {}
    for index, record in enumerate(records):
        if record["error"] is not None:
            wrong[index] = record["error"]
            continue
        base = first.setdefault(record["query"], record)
        if record["sql"] != base["sql"]:
            wrong[index] = "extracted SQL differs from an earlier repetition"
        elif record["invocations"] != base["invocations"]:
            wrong[index] = (
                f"{record['invocations']} invocations vs "
                f"{base['invocations']} in an earlier repetition"
            )
    second = tpch.build_database(scale=workload.scale, seed=seed + 1)
    conns = [oracle.load(db), oracle.load(second)]
    del second
    try:
        verdicts = {
            name: oracle.check(hidden_sql(name), record["sql"], conns)
            for name, record in first.items()
        }
    finally:
        for conn in conns:
            conn.close()
    for index, record in enumerate(records):
        reason = verdicts.get(record["query"])
        if index not in wrong and reason is not None:
            wrong[index] = f"oracle: {reason}"
    return wrong


def _fmt(value: float) -> str:
    return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"


def print_queries(records: list[dict]) -> None:
    print(f"  {'query':6} {'n':>3} {'extract_s':>10} {'native_s':>9} "
          f"{'invocations':>11} {'physical':>8}")
    for name, group in by_query(records, lambda r: r).items():
        ok = [r for r in group if r["error"] is None]
        seconds = statistics.median(r["seconds"] for r in group)
        natives = [t for r in group for t in r["native"]]
        native_s = f"{statistics.median(natives):9.4f}" if natives else f"{'-':>9}"
        invocations = ok[0]["invocations"] if ok else "-"
        physical = (
            f"{statistics.median(r['physical'] for r in ok):8.0f}" if ok else f"{'-':>8}"
        )
        print(f"  {name:6} {len(group):3d} {seconds:10.4f} {native_s} "
              f"{invocations!s:>11} {physical}")
        if ok:
            print(f"         sql: {' '.join(ok[0]['sql'].split())}")


def end_to_end(records, correct_n, attempted, setup_s, peak_mb) -> dict[str, float]:
    ok = [r for r in records if r["error"] is None]
    native: dict[str, list[float]] = {}
    for record in records:
        native.setdefault(record["query"], []).extend(
            speed.normalized(t, t, record["factor"]) for t in record["native"]
        )

    def mix_mean(value) -> float:
        medians = summary.query_medians(by_query(ok, value))
        return statistics.mean(medians.values()) if ok else 0.0

    extract = by_query(records, normalized)
    return {
        "extract_norm_s": summary.extract_norm_s(extract),
        "native_ratio": summary.native_ratio(extract, native),
        "invocations_per_extraction": mix_mean(itemgetter("invocations")),
        "physical_execs_per_extraction": mix_mean(itemgetter("physical")),
        "correct_frac": correct_n / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    probe = speed.SpeedProbe()
    builds = []
    for _ in range(SETUP_REPEATS):
        db = apps = None  # one D_I in memory at a time
        started = time.perf_counter()
        db, apps = workloads.build(workload, args.seed)
        builds.append(time.perf_counter() - started)
    setup_s = time_imports() + statistics.median(builds)

    for name in workload.queries:
        if db.execute(workloads.hidden_sql(name)).is_effectively_empty:
            print(f"precondition failed: {name} has an empty result on D_I "
                  f"(workload {workload.name}, scale {workload.scale}, "
                  f"seed {args.seed})", file=sys.stderr)
            return 3

    print(f"workload {workload.name}: SF {workload.scale}, seed {args.seed}, "
          f"jobs {workload.jobs}, latency {workload.latency * 1000:g} ms, "
          f"closed loop with 1 client, mix {', '.join(workload.queries)}")
    print(f"  why: {workload.why}")

    budget = args.seconds / 2 if args.trace else args.seconds
    # peak_rss_mb is the high-water mark of the untraced loop alone, on top
    # of what set-up left resident; the oracle's D_I comes after it
    if not reset_peak_rss():
        print("  note: cannot reset the resident-set high-water mark; "
              "peak_rss_mb includes set-up")
    records = closed_loop(db, apps, workload, budget, probe, native=True)
    peak_mb = peak_rss_mb()
    traced_records: list[dict] = []
    recorder = spans.Recorder()
    if args.trace:
        with spans.traced(recorder, workloads.BenchApp):
            traced_records = closed_loop(db, apps, workload, budget, probe, native=False)

    everything = records + traced_records
    wrong = verify(everything, workload, args.seed, db)
    attempted = len(everything)
    failed = sum(1 for r in everything if r["error"] is not None)
    correct_n = attempted - len(wrong)
    for index, reason in sorted(wrong.items()):
        record = everything[index]
        print(f"  WRONG {record['query']} (seed {args.seed}): {reason}")

    raw = [r["seconds"] for r in records]
    print(f"untraced extractions (n={len(records)}, raw seconds):")
    print_queries(records)
    values = end_to_end(records, correct_n, attempted, setup_s, peak_mb)
    print(f"end-to-end (untraced, n={len(records)} extractions; seconds "
          f"normalised by machine-speed factor {records[0]['factor']:.4f}):")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:30} {_fmt(values[name]):>12} {unit:6} ({better} is better)")
    p90 = summary.percentile(raw, 0.9)
    print(f"  {'extract_s_p50 (raw)':30} {_fmt(statistics.median(raw)):>12} s"
          f"      (n={len(raw)})")
    print(f"  {'extract_s_p90 (raw)':30} "
          + (f"{_fmt(p90):>12} s" if p90 is not None else
             f"{'-':>12}        (needs >={summary.MIN_BEYOND} samples beyond p90)"))
    print(f"  {'failed_frac':30} {_fmt(failed / attempted):>12} ratio  "
          f"({failed} of {attempted} attempted)")

    if args.trace:
        ok = [r for r in traced_records if r["error"] is None]
        layers = spans.layer_metrics(recorder, ok)
        layers["obs.trace_overhead_frac"] = (
            summary.extract_norm_s(by_query(traced_records, normalized))
            / values["extract_norm_s"] - 1.0
        )
        print(f"traced extractions (n={len(traced_records)}, raw seconds):")
        print_queries(traced_records)
        print(f"per-layer (traced, means per extraction, n={len(ok)}):")
        for name, (unit, _, moves) in spans.LAYER_METRICS.items():
            print(f"  {name:34} {_fmt(layers[name]):>12} {unit:6} moves: {moves}")
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        recorder.write(out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl")
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, (unit, _, _) in spans.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }

    correct = not wrong
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed,
         "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
