"""The session-facing isolation backend.

:class:`ProcessIsolationBackend` is what :meth:`ExtractionSession._invoke`
delegates to under ``--isolate process``.  Its contract is *observability
parity* with the in-process fast path: a probe that runs in a worker must be
indistinguishable to every layer above the invocation boundary —

* the local executable's ``invocation_count`` / ``total_runtime`` advance
  exactly as they would in-process (the pipeline's per-module accounting and
  the chaos CLI read them);
* ``invocations_total`` and ``invocation_latency_seconds`` tick on the
  metrics registry of the probed database's tracer (the session's, or a
  parallel task's fork's), and each invocation opens a ``worker`` span
  (instead of the in-process ``invocation`` span) carrying the worker's
  duration, peak RSS, and crash classification;
* engine rows scanned inside the worker are charged to the session's
  :class:`~repro.resilience.budgets.ResourceBudget` after the fact, so
  budget enforcement is supervisor-side and counted once;
* the silo's ``access_log`` is mirrored from the worker when the From-clause
  trace strategy asked for it, and chaos-injection counts are mirrored onto
  the local :class:`~repro.resilience.faults.FaultyExecutable` so survival
  reports read the same either way.

Clean application errors (engine signals, injected soft faults) are
re-raised exactly as the worker raised them — their types round-trip the
pickle boundary (see the ``__reduce__`` definitions in :mod:`repro.errors`),
so the retry classification and the pipeline's semantic reading of
``UndefinedTableError`` are unchanged.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import ExecutableTimeoutError, WorkerCrashedError
from repro.isolation.supervisor import WorkerPool, WorkerSpec
from repro.obs.trace import NULL_TRACER


def spec_from_config(config) -> WorkerSpec:
    return WorkerSpec(
        memory_limit_bytes=(
            config.worker_memory_limit_mb * 1024 * 1024
            if config.worker_memory_limit_mb
            else None
        ),
        default_timeout=config.worker_default_timeout,
        kill_grace=config.worker_kill_grace,
        quarantine_threshold=config.worker_quarantine_threshold,
        max_respawns=config.worker_max_respawns,
        # One worker per scheduler job, so parallel probe batches don't
        # serialize on a single subprocess.
        pool_size=max(1, int(getattr(config, "jobs", 1) or 1)),
    )


class ProcessIsolationBackend:
    """Routes invocations through a :class:`WorkerPool`, with stat parity."""

    #: span-tag value; the remote subclass overrides it
    isolate_label = "process"

    def __init__(self, executable, config, tracer=None, budget=None):
        self.executable = executable
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.budget = budget
        self.pool = self._build_pool(executable, config)

    def _build_pool(self, executable, config):
        return WorkerPool(
            executable, spec_from_config(config), metrics=self.tracer.metrics
        )

    def invoke(self, db, timeout: Optional[float] = None):
        """Run one invocation out of process against ``db``'s current state.

        The ``worker`` span and the invocation metrics go to ``db.tracer``,
        as :meth:`~repro.apps.executable.Executable.run` does in-process: a
        parallel probe calls this from a worker thread with its session
        fork's silo replica, whose tracer is private to that task.  The
        pool and the budget are thread-safe.

        When the executable carries an invocation memo, a database-state
        match skips the worker round-trip entirely — the dominant cost under
        isolation — while the invocation is still counted, spanned, and
        metered exactly like a physical one.
        """
        executable = self.executable
        tracer = getattr(db, "tracer", NULL_TRACER)
        memo = executable.memo if executable.cacheable else None
        memo_key = None
        if memo is not None and not getattr(db, "trace_access", False):
            memo_key = memo.key_for(db, timeout)
        with executable._counter_lock:
            executable.invocation_count += 1
        started = time.perf_counter()
        if not tracer.enabled:
            try:
                return self._invoke_memoized(db, timeout, memo, memo_key, None)
            finally:
                with executable._counter_lock:
                    executable.total_runtime += time.perf_counter() - started
        with tracer.span(executable.name, kind="worker") as span:
            span.set_tags(
                executable=executable.name,
                isolate=self.isolate_label,
                ordinal=self.pool.ordinal + 1,
                db_rows=db.total_rows(),
            )
            if tracer.metrics is not None:
                tracer.metrics.counter("invocations_total").inc()
            try:
                return self._invoke_memoized(db, timeout, memo, memo_key, span)
            finally:
                elapsed = time.perf_counter() - started
                with executable._counter_lock:
                    executable.total_runtime += elapsed
                if tracer.metrics is not None:
                    tracer.metrics.histogram(
                        "invocation_latency_seconds"
                    ).observe(elapsed)

    def _invoke_memoized(self, db, timeout, memo, memo_key, span):
        if memo_key is not None:
            cached = memo.lookup(memo_key)
            if cached is not None:
                if span is not None:
                    span.set_tag("invocation_cache", "hit")
                return cached
            if span is not None:
                span.set_tag("invocation_cache", "miss")
        result = self._invoke_inner(db, timeout, span)
        if memo_key is not None:
            memo.store(memo_key, result)
        return result

    def _invoke_inner(self, db, timeout: Optional[float], span):
        trace_access = bool(getattr(db, "trace_access", False))
        try:
            reply = self.pool.invoke(db, timeout, trace_access=trace_access)
        except ExecutableTimeoutError:
            if span is not None:
                span.set_tags(timed_out=True, hard_kill=True)
            self._mirror_injected()
            raise
        except WorkerCrashedError as error:
            if span is not None:
                span.set_tags(crashed=True, crash_kind=error.kind)
            self._mirror_injected()
            raise
        stats = reply.get("stats") or {}
        if span is not None:
            span.set_tags(
                worker_seconds=round(stats.get("duration", 0.0), 9),
                worker_maxrss_bytes=stats.get("maxrss_bytes", 0),
                rows_scanned=stats.get("rows_scanned", 0),
            )
        # Failed probes report stats too: their scanned rows spend budget and
        # their access trace is real, exactly as in-process.
        if self.budget is not None and self.budget.enabled:
            self.budget.charge_rows_scanned(int(stats.get("rows_scanned", 0)))
        if trace_access and "access_log" in stats:
            db.access_log.extend(stats["access_log"])
        self._mirror_injected()
        if not reply.get("ok"):
            raise reply["error"]
        return reply["result"]

    def _mirror_injected(self) -> None:
        """Copy worker-side chaos-injection counts onto the local executable.

        The worker runs its *own* reconstruction of the executable, so fault
        bookkeeping accumulates over there; survival reports read the local
        wrapper's ``injected`` dict, which this keeps authoritative.
        """
        injected = getattr(self.executable, "injected", None)
        if isinstance(injected, dict):
            for kind, count in self.pool.injected_totals().items():
                injected[kind] = count

    def close(self) -> None:
        self._mirror_injected()
        self.pool.close()


def remote_spec_from_config(config) -> "RemoteSpec":
    from repro.isolation.protocol import secret_from_env
    from repro.isolation.remote import RemoteSpec

    secret = getattr(config, "transport_secret", None)
    if secret is None:
        secret = secret_from_env()
    return RemoteSpec(
        peers=tuple(config.worker_peers),
        default_timeout=config.worker_default_timeout,
        kill_grace=config.worker_kill_grace,
        quarantine_threshold=config.worker_quarantine_threshold,
        max_respawns=config.worker_max_respawns,
        pool_size=max(1, int(getattr(config, "jobs", 1) or 1)),
        connect_timeout=config.transport_connect_timeout,
        heartbeat_interval=config.transport_heartbeat_interval,
        backoff_base=config.transport_backoff_base,
        backoff_max=config.transport_backoff_max,
        max_reconnects=config.transport_max_reconnects,
        secret=secret,
    )


class RemoteIsolationBackend(ProcessIsolationBackend):
    """The process backend's contract, served by remote worker agents.

    Everything above the pool — memoization, spans, budget charging, access
    -log mirroring, injected-fault mirroring — is inherited unchanged; only
    the pool construction (and the span tag) differ.  That inheritance *is*
    the observability-parity argument: there is no second accounting path to
    drift, and sequential and parallel probes both enter through
    :meth:`invoke`.
    """

    isolate_label = "remote"

    def _build_pool(self, executable, config):
        from repro.isolation.remote import PeerHealthRegistry, RemoteWorkerPool

        registry = config.peer_registry
        if registry is not None and not isinstance(registry, PeerHealthRegistry):
            raise TypeError("peer_registry must be a PeerHealthRegistry")
        return RemoteWorkerPool(
            executable,
            remote_spec_from_config(config),
            metrics=self.tracer.metrics,
            registry=registry,
            transport_factory=config.transport_factory,
        )
