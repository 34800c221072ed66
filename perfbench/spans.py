"""Traced-run machinery: spans around the public entry points of the layers.

:func:`traced` installs wrappers on the public methods of the ``apps``,
``engine`` and ``sched`` layers for the length of a ``with`` block and puts
the original class attributes back afterwards, so untraced runs measure
unmodified code.  Each wrapped call records one span.  Spans are kept in
memory; a layer's self time is its span's duration minus the durations of
its child spans on the same thread.  Spans on the scheduler's worker
threads have their own per-thread stack, so their time is never subtracted
from a span on another thread that merely overlaps them.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    #: rows passed to ``replace_rows``; 0 elsewhere
    rows: int = 0


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rows: int = 0):
        stack = self._local.__dict__.setdefault("stack", [])
        # each frame accumulates the duration of its direct children
        frame = [0.0]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][0] += duration
            record = Span(
                name, threading.get_ident(), start, end, duration - frame[0], rows
            )
            with self._lock:
                self.spans.append(record)

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, inclusive ``s``, ``self_s``, ``rows``."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(
                span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0}
            )
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += span.self_s
            entry["rows"] += span.rows
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        [span.name, span.thread, span.start, span.end,
                         span.self_s, span.rows]
                    )
                )
                handle.write("\n")


def _wrap(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_replace_rows(recorder: Recorder, fn):
    def wrapper(self, table, rows):
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        with recorder.span("engine.replace_rows", rows=len(rows)):
            return fn(self, table, rows)

    return wrapper


def _targets(app_class):
    """``(owner class, attribute, span name)`` for every traced entry point."""
    from repro.apps.executable import Executable, InvocationMemo
    from repro.engine.database import Database, DatabaseSnapshot
    from repro.sched.scheduler import ProbeScheduler

    return [
        (Executable, "run", "apps.run"),
        (app_class, "_execute", "apps.execute"),
        (InvocationMemo, "key_for", "apps.memo_key"),
        (Database, "execute", "engine.execute"),
        (Database, "fingerprint", "engine.fingerprint"),
        (DatabaseSnapshot, "fingerprint", "engine.fingerprint"),
        (Database, "snapshot", "engine.snapshot"),
        (Database, "restore", "engine.restore"),
        (Database, "from_snapshot", "engine.from_snapshot"),
        (Database, "replace_rows", "engine.replace_rows"),
        (Database, "insert", "engine.insert"),
        (Database, "clone", "engine.clone"),
        (ProbeScheduler, "map", "sched.map"),
        (ProbeScheduler, "run_chain", "sched.run_chain"),
    ]


@contextmanager
def traced(recorder: Recorder, app_class):
    """Wrap the layer entry points while the block runs, then unwrap."""
    saved = []
    try:
        for owner, attr, name in _targets(app_class):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(recorder, name, original.__func__))
            elif attr == "replace_rows":
                wrapped = _wrap_replace_rows(recorder, original)
            else:
                wrapped = _wrap(recorder, name, original)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: the pipeline steps of ``outcome.stats.modules`` under the default config
STEPS = (
    "setup", "eqc_preflight", "from_clause", "sampler", "minimizer", "joins",
    "filters", "projections", "group_by", "aggregations", "order_by", "limit",
    "checker", "eqc_postflight",
)

# Per-layer metric -> (unit, better, the end-to-end metric it should move).
# The prediction is written down before any change is measured against it.
_APPS_MOVES = "extract_norm_s + physical_execs_per_extraction on tpch-latency; extract_norm_s on tpch-probe"
_PROBE_MOVES = "extract_norm_s on tpch-probe"
_DI_MOVES = "extract_norm_s on tpch-di and tpch-probe; native_ratio too, either way, since native runs share the engine"
_SCHED_MOVES = "extract_norm_s on tpch-latency"
# tpch-di is not gated, so D_I-bound work names the gated workload whose
# smaller D_I it also runs on
_DI_BOUND_MOVES = "extract_norm_s on tpch-di (ungated, seen in its traced run) and on tpch-probe (gated)"
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "apps.run.calls": ("count", "lower", _APPS_MOVES),
    "apps.run.s": ("s", "lower", _APPS_MOVES),
    "apps.execute.calls": ("count", "lower", _APPS_MOVES),
    "apps.latency.s": ("s", "lower", _APPS_MOVES),
    "apps.memo_key.s": ("s", "lower", _APPS_MOVES),
    "apps.memo.hit_rate": ("ratio", "higher", _APPS_MOVES),
    "apps.memo.lookups": ("count", "higher", "base of apps.memo.hit_rate"),
    "apps.memo.bypasses": ("count", "lower", _APPS_MOVES),
    "engine.execute.calls": ("count", "lower", _DI_MOVES),
    "engine.execute.self_s": ("s", "lower", _DI_MOVES),
    "engine.fingerprint.calls": ("count", "lower", _PROBE_MOVES + "; extract_norm_s on tpch-di"),
    "engine.fingerprint.s": ("s", "lower", _PROBE_MOVES + "; extract_norm_s on tpch-di"),
    "engine.snapshot.calls": ("count", "lower", _PROBE_MOVES),
    "engine.snapshot.s": ("s", "lower", _PROBE_MOVES),
    "engine.restore.calls": ("count", "lower", _PROBE_MOVES),
    "engine.restore.s": ("s", "lower", _PROBE_MOVES),
    "engine.from_snapshot.calls": ("count", "lower", _PROBE_MOVES),
    "engine.from_snapshot.s": ("s", "lower", _PROBE_MOVES),
    "engine.replace_rows.calls": ("count", "lower", _PROBE_MOVES + "; extract_norm_s on tpch-di"),
    "engine.replace_rows.s": ("s", "lower", _PROBE_MOVES + "; extract_norm_s on tpch-di"),
    "engine.replace_rows.rows": ("count", "lower", _PROBE_MOVES + "; extract_norm_s on tpch-di"),
    "engine.insert.calls": ("count", "lower", _PROBE_MOVES),
    "engine.insert.s": ("s", "lower", _PROBE_MOVES),
    "engine.clone.calls": ("count", "lower", _DI_BOUND_MOVES),
    "engine.clone.s": ("s", "lower", _DI_BOUND_MOVES),
    "engine.plan_cache.hit_rate": ("ratio", "higher", _PROBE_MOVES),
    "engine.plan_cache.lookups": ("count", "higher", "base of engine.plan_cache.hit_rate"),
}
_DI_STEPS = {"setup", "eqc_preflight", "from_clause", "sampler", "minimizer"}
for _step in STEPS:
    _moves = _DI_BOUND_MOVES if _step in _DI_STEPS else _PROBE_MOVES
    LAYER_METRICS[f"core.{_step}.s"] = ("s", "lower", _moves)
    LAYER_METRICS[f"core.{_step}.invocations"] = ("count", "lower", _moves)
LAYER_METRICS.update(
    {
        "core.outside_steps.s": ("s", "lower", _DI_BOUND_MOVES),
        "sched.parallel_probes": ("count", "higher", _SCHED_MOVES),
        "sched.chain_links": ("count", "lower", _SCHED_MOVES),
        "sched.speculation_hits": ("count", "higher", _SCHED_MOVES),
        "sched.speculation_wasted": ("count", "lower", _SCHED_MOVES),
        "sched.speculation_useful_ratio": ("ratio", "higher", _SCHED_MOVES),
        "sched.map.s": ("s", "lower", _SCHED_MOVES),
        "sched.run_chain.s": ("s", "lower", _SCHED_MOVES),
        "obs.trace_overhead_frac": ("ratio", "lower", "none: cost of tracing itself"),
    }
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: Recorder, extractions: list[dict]) -> dict[str, float]:
    """Per-layer metrics as means per traced extraction.

    ``extractions`` holds, per traced extraction, its wall ``seconds`` and
    the ``outcome`` returned by ``UnmasqueExtractor.extract()``.
    Everything but ``obs.trace_overhead_frac``, which needs the untraced run.
    """
    n = len(extractions) or 1
    spans = recorder.totals()

    def span(name, field):
        return spans.get(name, {}).get(field, 0) / n

    out = {
        "apps.run.calls": span("apps.run", "calls"),
        "apps.run.s": span("apps.run", "s"),
        "apps.execute.calls": span("apps.execute", "calls"),
        # the app's own time per physical execution, engine excluded: the
        # simulated round-trip plus query-text deobfuscation
        "apps.latency.s": span("apps.execute", "self_s"),
        "apps.memo_key.s": span("apps.memo_key", "s"),
        "engine.execute.calls": span("engine.execute", "calls"),
        "engine.execute.self_s": span("engine.execute", "self_s"),
        "engine.replace_rows.rows": span("engine.replace_rows", "rows"),
    }
    for layer in ("fingerprint", "snapshot", "restore", "from_snapshot",
                  "replace_rows", "insert", "clone"):
        out[f"engine.{layer}.calls"] = span(f"engine.{layer}", "calls")
        out[f"engine.{layer}.s"] = span(f"engine.{layer}", "s")

    caches: dict[str, dict] = {"invocation_cache": {}, "plan_cache": {}, "scheduler": {}}
    outside = 0.0
    for entry in extractions:
        outcome = entry["outcome"]
        for kind, counters in (outcome.caches or {}).items():
            if kind in caches:
                for key, value in counters.items():
                    if isinstance(value, (int, float)) and key != "hit_rate":
                        caches[kind][key] = caches[kind].get(key, 0) + value
        modules = outcome.stats.modules
        outside += entry["seconds"] - sum(m.seconds for m in modules.values())
        for step in STEPS:
            stats = modules.get(step)
            out[f"core.{step}.s"] = out.get(f"core.{step}.s", 0.0) + (
                stats.seconds / n if stats else 0.0
            )
            out[f"core.{step}.invocations"] = out.get(
                f"core.{step}.invocations", 0.0
            ) + (stats.invocations / n if stats else 0.0)
    out["core.outside_steps.s"] = outside / n

    memo = caches["invocation_cache"]
    lookups = memo.get("hits", 0) + memo.get("misses", 0)
    out["apps.memo.hit_rate"] = _ratio(memo.get("hits", 0), lookups)
    out["apps.memo.lookups"] = lookups / n
    out["apps.memo.bypasses"] = memo.get("bypasses", 0) / n
    plans = caches["plan_cache"]
    lookups = plans.get("hits", 0) + plans.get("misses", 0)
    out["engine.plan_cache.hit_rate"] = _ratio(plans.get("hits", 0), lookups)
    out["engine.plan_cache.lookups"] = lookups / n
    sched = caches["scheduler"]
    for key in ("parallel_probes", "chain_links", "speculation_hits",
                "speculation_wasted"):
        out[f"sched.{key}"] = sched.get(key, 0) / n
    out["sched.speculation_useful_ratio"] = _ratio(
        sched.get("speculation_hits", 0),
        sched.get("speculation_hits", 0) + sched.get("speculation_wasted", 0),
    )
    out["sched.map.s"] = span("sched.map", "s")
    out["sched.run_chain.s"] = span("sched.run_chain", "s")
    return out
