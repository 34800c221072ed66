"""Deterministic concurrent execution of extraction probes.

The UNMASQUE pipeline spends almost all of its wall-clock inside black-box
invocations, and most of those are *independent by construction*: filter
probing touches one column's value while every other column of the resident
D¹ row keeps satisfying its own (conjunctive) predicate, and projection
dependency checks jitter disjoint mutation units.  The
:class:`ProbeScheduler` exploits exactly that independence — and nothing
more — under a hard **determinism contract** (DESIGN.md §5.14):

* extracted SQL is byte-identical for every ``--jobs`` value;
* the *logical* invocation count (``stats.invocations``, budget charges,
  ``invocations_total``) equals the sequential schedule's count;
* every logical invocation is charged exactly once, on the main thread or
  under the scheduler lock — never both.

Two execution shapes are offered:

``map(items, task)``
    Fan a batch of independent probe tasks across ``jobs`` threads.  Each
    task receives a :class:`_ParallelProbeContext` — a duck-typed stand-in
    for the session exposing the probe surface (``run`` / ``run_on`` /
    ``run_on_d1_mutation`` / ``d1_value`` / ``update_d1`` / metadata
    helpers) backed by a private replica of the silo built from one shared
    snapshot.  Results, metric deltas, span records, and persistent D¹
    updates are folded back on the main thread in submission order, so
    the observable outcome is order-independent.

``run_chain(state, pick_probe)``
    Resolve the minimizer's *sequential* halving chain.  Each link has only
    two possible outcomes (probe result populated → keep the candidate
    half, empty → keep the other), so the scheduler speculates ahead down
    the binary outcome tree on idle workers using the accounting-free
    :meth:`~repro.apps.executable.Executable.probe` primitive, then charges
    only the links actually consumed.  With ``jobs=1`` the chain executes
    inline on the silo, byte-identical to the historical loop.

Sequential mode (``jobs=1``) never allocates a thread pool, a replica, or a
snapshot beyond what the historical code paths did: ``map`` degenerates to a
list comprehension over the real session and ``run_chain`` to the original
silo loop.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Optional

from repro.engine.database import Database
from repro.errors import ExecutableTimeoutError
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import NULL_PROVENANCE, ProvenanceRecorder
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass
class SchedulerStats:
    """Physical-execution accounting (logical counts live in the session)."""

    #: parallel ``map`` batches executed
    batches: int = 0
    #: logical probe attempts executed by parallel map tasks
    parallel_probes: int = 0
    #: halving links resolved through ``run_chain``
    chain_links: int = 0
    #: consumed links whose probe had been speculatively pre-executed
    speculation_hits: int = 0
    #: speculative executions discarded (physical work, no logical charge)
    speculation_wasted: int = 0


class _LockedBudget:
    """Serialises worker-thread budget charges onto the shared budget.

    Only the two entry points the engine calls during query execution are
    exposed; everything else about the budget stays main-thread-only.
    """

    __slots__ = ("_budget", "_lock")

    def __init__(self, budget, lock: threading.Lock):
        self._budget = budget
        self._lock = lock

    def charge_rows_scanned(self, count: int) -> None:
        with self._lock:
            self._budget.charge_rows_scanned(count)

    def check_wall_clock(self) -> None:
        with self._lock:
            self._budget.check_wall_clock()


class _RowsCollector:
    """Budget stand-in for *speculative* probes: records rows scanned but
    never charges or raises — the scheduler charges the real budget only for
    probes that are consumed."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = 0

    def charge_rows_scanned(self, count: int) -> None:
        self.rows += count

    def check_wall_clock(self) -> None:
        pass


class _BatchState:
    """Shared mutable state of one parallel ``map`` batch."""

    __slots__ = (
        "scheduler",
        "session",
        "module_stats",
        "module_name",
        "locked_budget",
        "attempts",
        "timeouts",
        "retries",
    )

    def __init__(self, scheduler: "ProbeScheduler", module_stats):
        self.scheduler = scheduler
        self.session = scheduler.session
        self.module_stats = module_stats
        self.module_name = scheduler.session._current_module
        budget = self.session.budget
        self.locked_budget = (
            _LockedBudget(budget, scheduler._lock) if budget.active else None
        )
        self.attempts = 0
        self.timeouts = 0
        self.retries = 0

    def charge_attempt(self) -> None:
        """One logical invocation attempt, charged under the scheduler lock
        exactly where the sequential ``session.run`` would charge it —
        before the physical execution."""
        with self.scheduler._lock:
            self.module_stats.invocations += 1
            self.session.budget.charge_invocation()
            self.attempts += 1

    def charge_cells(self, table: str, rows) -> None:
        session = self.session
        if session.budget.active and rows:
            cells = len(rows) * len(session.silo.schema(table).columns)
            with self.scheduler._lock:
                session.budget.charge_cells(cells)

    def note_timeout(self) -> None:
        with self.scheduler._lock:
            self.session.stats.invocation_timeouts += 1
            self.timeouts += 1

    def note_retry(self) -> None:
        with self.scheduler._lock:
            self.session.stats.retries += 1
            self.retries += 1


class _ParallelProbeContext:
    """Session stand-in handed to a parallel probe task.

    Exposes the read/probe surface the per-column and per-unit extraction
    helpers use.  Probes execute against a private replica of the silo
    (sharing the plan cache and catalog-version clock with the real one),
    so concurrent tasks never contend on database state.  Deliberately
    absent: ``rng`` — parallel tasks must be RNG-free, and an attribute
    error here catches a violation immediately.
    """

    def __init__(self, batch: _BatchState, base_snapshot):
        session = batch.session
        self._batch = batch
        self._session = session
        self.config = session.config
        self.query = session.query
        self.probe_multiplier = session.probe_multiplier
        self.multiplier_table = session.multiplier_table
        self.svalue_guards = session.svalue_guards
        #: task-local D¹ view; persistent updates are replayed onto the real
        #: session afterwards, in submission order
        self.d1 = dict(session.d1)
        self.d1_updates: list[tuple[str, dict]] = []
        #: finished-invocation spans, recorded post-hoc on the main tracer
        self.span_records: list[tuple] = []
        #: task-local evidence recorder; folded into the session's in
        #: submission order so evidence stays exactly-once and deterministic
        self.provenance = (
            ProvenanceRecorder()
            if session.provenance.enabled
            else NULL_PROVENANCE
        )
        self.registry: Optional[MetricsRegistry] = None
        if session.tracer.enabled:
            if session.tracer.metrics is not None:
                self.registry = MetricsRegistry()
            tracer = Tracer(metrics=self.registry, keep_spans=False)
        else:
            tracer = NULL_TRACER
        self.db = Database.from_snapshot(
            base_snapshot,
            plan_cache=session.silo.plan_cache,
            clock=session.silo._clock,
        )
        self.db.tracer = tracer
        if batch.locked_budget is not None:
            self.db.budget = batch.locked_budget

    # -- silo / metadata surface (delegates read-only session state) --------

    @property
    def silo(self) -> Database:
        return self.db

    def is_key_column(self, column) -> bool:
        return self._session.is_key_column(column)

    def table_columns(self, table: str):
        return self._session.table_columns(table)

    def nonkey_columns(self, table: str):
        return self._session.nonkey_columns(table)

    def column_type(self, column):
        return self._session.column_type(column)

    def column_domain(self, column):
        return self._session.column_domain(column)

    def d1_value(self, column):
        schema = self.db.schema(column.table)
        return self.d1[column.table][schema.column_index(column.column)]

    def _with_multiplier(self, table: str, rows):
        if self.probe_multiplier > 1 and table.lower() == self.multiplier_table:
            return list(rows) * self.probe_multiplier
        return rows

    def update_d1(self, table: str, mutations: dict) -> None:
        """Task-locally mutate D¹ (visible to this task's later probes) and
        queue the mutation for deterministic replay on the real session.

        Cell-budget charging happens at replay time — via the session's own
        ``update_d1`` — so the charge lands exactly once.
        """
        schema = self.db.schema(table)
        row = list(self.d1[table.lower()])
        for column, value in mutations.items():
            row[schema.column_index(column)] = value
        self.d1[table.lower()] = tuple(row)
        self.db.replace_rows(
            table, self._with_multiplier(table, [tuple(row)])
        )
        self.d1_updates.append((table, dict(mutations)))

    # -- probe surface -------------------------------------------------------

    def run(self, timeout: Optional[float] = None):
        """Mirror of ``ExtractionSession.run`` against the private replica:
        same retry policy, same per-attempt charging order, same sandbox
        semantics — only the accounting funnels through the batch lock."""
        session, batch = self._session, self._batch
        policy = session.retry
        attempt = 1
        while True:
            batch.charge_attempt()
            token = self.db.snapshot()
            started = time.perf_counter()
            db_rows = self.db.total_rows()
            error: Optional[Exception] = None
            try:
                result = self._invoke(timeout)
                if self.provenance.enabled:
                    self._record_probe_event(result, None)
                return result
            except Exception as exc:
                error = exc
                if self.provenance.enabled:
                    self._record_probe_event(None, exc)
                timed_out = isinstance(exc, ExecutableTimeoutError)
                if timed_out:
                    batch.note_timeout()
                if policy.max_attempts <= attempt or not policy.is_retryable(
                    exc
                ):
                    raise
                batch.note_retry()
                policy.sleep(policy.backoff(attempt))
                attempt += 1
            finally:
                self._note_span(started, db_rows, error)
                self.db.restore(token)

    def _record_probe_event(self, result, error) -> None:
        """Task-local mirror of ``ExtractionSession._record_probe_event``."""
        info = getattr(self.db, "last_invocation", None) or {}
        self.provenance.probe(
            self._batch.module_name,
            rows=result.row_count if result is not None else None,
            error=type(error).__name__ if error is not None else "",
            cached=bool(info.get("cached")),
            isolated=self._session.backend is not None,
            db_fingerprint=str(info.get("fingerprint") or ""),
        )

    def _invoke(self, timeout: Optional[float]):
        session = self._session
        if session.backend is not None:
            return self._invoke_backend(timeout)
        if timeout is not None:
            self.db.deadline = time.perf_counter() + timeout
            try:
                return session.executable.run(self.db, timeout=timeout)
            finally:
                self.db.deadline = None
        return session.executable.run(self.db)

    def _invoke_backend(self, timeout: Optional[float]):
        """Out-of-process invocation from a worker thread.

        The backend's thread-safe ``invoke_reply`` does transport only; the
        per-invocation executable counters and metrics the sequential
        ``invoke`` would have recorded are applied here so totals match.
        """
        session = self._session
        executable = session.executable
        started = time.perf_counter()
        try:
            reply = session.backend.invoke_reply(self.db, timeout)
        finally:
            elapsed = time.perf_counter() - started
            with executable._counter_lock:
                executable.invocation_count += 1
                executable.total_runtime += elapsed
            if self.registry is not None:
                self.registry.counter("invocations_total").inc()
                self.registry.histogram(
                    "invocation_latency_seconds"
                ).observe(elapsed)
        stats = reply.get("stats") or {}
        rows_scanned = int(stats.get("rows_scanned", 0) or 0)
        if self._batch.locked_budget is not None and rows_scanned:
            self._batch.locked_budget.charge_rows_scanned(rows_scanned)
        if not reply["ok"]:
            raise reply["error"]
        return reply["result"]

    def run_on(self, rows_by_table: dict):
        with self.db.sandbox():
            for name, rows in rows_by_table.items():
                rows = self._with_multiplier(name, rows)
                self._batch.charge_cells(name, rows)
                self.db.replace_rows(name, rows)
            return self.run()

    def run_on_d1_mutation(self, table: str, mutations: dict):
        schema = self.db.schema(table)
        row = list(self.d1[table.lower()])
        for column, value in mutations.items():
            row[schema.column_index(column)] = value
        return self.run_on({table.lower(): [tuple(row)]})

    # -- post-hoc trace material --------------------------------------------

    def _note_span(self, started, db_rows, error) -> None:
        if not self._session.tracer.enabled:
            return
        tags = {
            "executable": self._session.executable.name,
            "db_rows": db_rows,
            "parallel": True,
        }
        if error is not None:
            tags["error"] = type(error).__name__
            if isinstance(error, ExecutableTimeoutError):
                tags["timed_out"] = True
        self.span_records.append(
            (
                self._session.executable.name,
                started,
                time.perf_counter(),
                tags,
            )
        )


class _ChainNode:
    """One node of the halving chain's binary outcome tree."""

    __slots__ = (
        "state",
        "probe",
        "future",
        "on_populated",
        "on_empty",
        "speculative",
    )

    def __init__(self, state, probe, speculative: bool = False):
        self.state = state
        self.probe = probe
        self.future = None
        #: True when the probe was submitted before its parent's outcome was
        #: known — i.e. ahead of the sequential schedule
        self.speculative = speculative
        self.on_populated: Optional["_ChainNode"] = None
        self.on_empty: Optional["_ChainNode"] = None


class ProbeScheduler:
    """Executes extraction probes across ``config.jobs`` worker slots."""

    def __init__(self, session):
        self.session = session
        self.jobs = max(1, int(getattr(session.config, "jobs", 1) or 1))
        self.stats = SchedulerStats()
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-probe"
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def stats_dict(self) -> dict:
        return asdict(self.stats)

    # -- independent batches -------------------------------------------------

    def map(
        self,
        items: Iterable,
        task: Callable,
        label: str = "probes",
    ) -> list:
        """Run ``task(ctx, item)`` for every item, in deterministic order.

        Sequential mode passes the session itself as ``ctx`` — zero drift
        from the historical inline loops.  Parallel mode fans the items
        across worker threads, each against a private silo replica, and
        folds all side effects back in submission order.  If any task
        raises, the error of the *earliest* item is re-raised (later items
        may already have executed; their logical charges stand, matching a
        failed sequential schedule up to the failing item).
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            return [task(self.session, item) for item in items]
        return self._map_parallel(items, task, label)

    def _map_parallel(self, items: list, task: Callable, label: str) -> list:
        session = self.session
        # A deadline-expired run must not fan a whole batch of doomed probes
        # out to the pool; fail with the structured BudgetExhausted before
        # dispatching rather than after the slowest straggler returns.
        session.budget.check_wall_clock()
        module_stats = session.stats.module(session._current_module)
        batch = _BatchState(self, module_stats)
        base = session.silo.snapshot()
        executor = self._ensure_executor()
        contexts = [_ParallelProbeContext(batch, base) for _ in items]

        def _guarded(ctx, item):
            try:
                return True, task(ctx, item)
            except Exception as exc:  # re-raised on the main thread
                return False, exc

        futures = [
            executor.submit(_guarded, ctx, item)
            for ctx, item in zip(contexts, items)
        ]
        outcomes = [future.result() for future in futures]
        self._finalize_batch(batch, contexts, label)
        results = []
        first_error: Optional[Exception] = None
        for ok, value in outcomes:
            if ok:
                results.append(value)
            elif first_error is None:
                first_error = value
        if first_error is not None:
            raise first_error
        return results

    def _finalize_batch(self, batch, contexts, label) -> None:
        """Fold per-task side effects back in submission order (main thread)."""
        session = self.session
        tracer = session.tracer
        for ctx in contexts:
            if ctx.registry is not None:
                tracer.metrics.merge(ctx.registry)
            if tracer.enabled:
                for name, started, ended, tags in ctx.span_records:
                    tracer.record(
                        name, kind="invocation", start=started, end=ended,
                        tags=tags,
                    )
            if ctx.provenance.enabled:
                session.provenance.absorb(ctx.provenance)
            for table, mutations in ctx.d1_updates:
                session.update_d1(table, mutations)
        self.stats.batches += 1
        self.stats.parallel_probes += batch.attempts
        if tracer.metrics is not None:
            tracer.metrics.counter("scheduler_batches_total").inc()
            tracer.metrics.counter("scheduler_parallel_probes_total").inc(
                batch.attempts
            )
        if tracer.enabled:
            span = tracer.current
            if span is not None:
                if batch.timeouts:
                    span.set_tag("timed_out", True)
                if batch.retries:
                    span.tags["retries"] = (
                        span.tags.get("retries", 0) + batch.retries
                    )

    # -- sequential halving chains -------------------------------------------

    def run_chain(
        self,
        state: dict,
        pick_probe: Callable,
        speculate: bool = True,
        label: str = "chain",
    ) -> dict:
        """Resolve a halving-style probe chain to completion.

        ``state`` maps table name → resident rows; ``pick_probe(state)``
        returns ``None`` when the chain is done, else ``(table, candidate,
        fallback)``: the candidate rows replace the table, a populated run
        keeps them, an effectively-empty one keeps the fallback (no
        confirming run — §4.2's Lemma 1).  Returns the final state with the
        silo's tables left holding it.

        Speculation is used only when every gate holds: ``jobs > 1``, the
        caller allows it (``speculate`` — RNG-consuming pick policies must
        not run against hypothetical states), the executable is in-process
        and :attr:`~repro.apps.executable.Executable.cacheable` (pure, so a
        discarded probe has no observable effect), and no isolation backend
        is interposed.
        """
        session = self.session
        silo = session.silo
        can_speculate = (
            self.parallel
            and speculate
            and session.backend is None
            and session.executable.cacheable
        )
        if not can_speculate:
            while (probe := pick_probe(state)) is not None:
                table, candidate, fallback = probe
                silo.install_rows(table, candidate)
                if session.run().is_effectively_empty:
                    silo.install_rows(table, fallback)
                    state[table] = fallback
                else:
                    state[table] = candidate
                # the probe itself is recorded by session.run(); the kept
                # half is a persistent database mutation worth its own event
                if session.provenance.enabled:
                    session.provenance.mutation(
                        session._current_module,
                        table,
                        detail=f"halving kept {len(state[table])} rows",
                    )
                self.stats.chain_links += 1
            return state
        return self._run_chain_speculative(state, pick_probe, label)

    def _run_chain_speculative(self, state, pick_probe, label) -> dict:
        session = self.session
        silo = session.silo
        executable = session.executable
        module_stats = session.stats.module(session._current_module)
        tracer = session.tracer
        base = silo.snapshot()
        plan_cache = silo.plan_cache
        clock = silo._clock
        executor = self._ensure_executor()
        budget_enabled = session.budget.enabled
        provenance = session.provenance
        module_name = session._current_module
        pending = 0  # submitted futures not yet consumed or discarded

        def _execute(probe_state):
            """Worker-side speculative probe: zero logical accounting."""
            db = Database.from_snapshot(
                base, plan_cache=plan_cache, clock=clock
            )
            collector = _RowsCollector() if budget_enabled else None
            if collector is not None:
                db.budget = collector
            for table, rows in probe_state.items():
                db.install_rows(table, rows)
            db_rows = db.total_rows()
            # evidence fingerprinting mirrors the memo's cost bound: only
            # states with few rows left to hash, and only when someone is
            # recording
            fingerprint = (
                db.fingerprint()
                if provenance.enabled and db.undigested_rows() <= 4096
                else ""
            )
            started = time.perf_counter()
            result = executable.probe(db)
            ended = time.perf_counter()
            return (
                result.is_effectively_empty,
                started,
                ended,
                collector.rows if collector is not None else 0,
                db_rows,
                result.row_count,
                fingerprint,
            )

        def _make_node(node_state, speculative: bool = False) -> _ChainNode:
            nonlocal pending
            probe = pick_probe(node_state)
            node = _ChainNode(node_state, probe, speculative)
            if probe is not None:
                table, candidate, _ = probe
                probe_state = dict(node_state)
                probe_state[table] = candidate
                node.future = executor.submit(_execute, probe_state)
                pending += 1
            return node

        def _child(
            node: _ChainNode, populated: bool, speculative: bool = False
        ) -> _ChainNode:
            existing = node.on_populated if populated else node.on_empty
            if existing is not None:
                return existing
            table, candidate, fallback = node.probe
            child_state = dict(node.state)
            child_state[table] = candidate if populated else fallback
            child = _make_node(child_state, speculative)
            if populated:
                node.on_populated = child
            else:
                node.on_empty = child
            return child

        def _expand(frontier: _ChainNode) -> None:
            """Breadth-first speculation down the outcome tree until every
            worker slot holds a probe (or the tree bottoms out)."""
            level = [frontier]
            while level and pending < self.jobs:
                next_level = []
                for node in level:
                    if node.probe is None:
                        continue
                    for populated in (True, False):
                        if pending >= self.jobs:
                            break
                        next_level.append(
                            _child(node, populated, speculative=True)
                        )
                level = next_level

        def _discard(node: Optional[_ChainNode]) -> None:
            """Cancel (or write off) every probe in a dead subtree."""
            nonlocal pending
            stack = [node] if node is not None else []
            while stack:
                dead = stack.pop()
                if dead.future is not None:
                    pending -= 1
                    if not dead.future.cancel():
                        self.stats.speculation_wasted += 1
                        if tracer.metrics is not None:
                            tracer.metrics.counter(
                                "scheduler_speculation_wasted_total"
                            ).inc()
                stack.extend(
                    c
                    for c in (dead.on_populated, dead.on_empty)
                    if c is not None
                )

        node = _make_node(dict(state))
        while node.probe is not None:
            speculated = node.speculative
            _expand(node)
            # Sequential charging order: the attempt is charged before its
            # outcome is observed, so budget exhaustion fires at the same
            # link it would have sequentially.
            module_stats.invocations += 1
            session.budget.charge_invocation()
            try:
                (
                    empty,
                    started,
                    ended,
                    rows_scanned,
                    db_rows,
                    row_count,
                    fingerprint,
                ) = node.future.result()
            except Exception as error:
                executable.charge_logical()
                if provenance.enabled:
                    provenance.probe(
                        module_name,
                        error=type(error).__name__,
                        speculative=speculated,
                    )
                _discard(node.on_populated)
                _discard(node.on_empty)
                pending -= 1
                raise
            pending -= 1
            elapsed = ended - started
            executable.charge_logical(elapsed)
            if budget_enabled and rows_scanned:
                session.budget.charge_rows_scanned(rows_scanned)
            if tracer.metrics is not None:
                tracer.metrics.counter("invocations_total").inc()
                tracer.metrics.histogram(
                    "invocation_latency_seconds"
                ).observe(elapsed)
                tracer.metrics.counter("scheduler_chain_links_total").inc()
                if speculated:
                    tracer.metrics.counter(
                        "scheduler_speculation_hits_total"
                    ).inc()
            if tracer.enabled:
                tracer.record(
                    executable.name,
                    kind="invocation",
                    start=started,
                    end=ended,
                    tags={
                        "executable": executable.name,
                        "db_rows": db_rows,
                        "parallel": True,
                        "speculative": speculated,
                    },
                )
            self.stats.chain_links += 1
            if speculated:
                self.stats.speculation_hits += 1
            table, candidate, fallback = node.probe
            populated = not empty
            state[table] = candidate if populated else fallback
            if provenance.enabled:
                # consumed link: the one logical invocation just charged
                provenance.probe(
                    module_name,
                    rows=row_count,
                    speculative=speculated,
                    db_fingerprint=fingerprint,
                )
                provenance.mutation(
                    module_name,
                    table,
                    detail=f"halving kept {len(state[table])} rows",
                )
            _discard(node.on_empty if populated else node.on_populated)
            node = _child(node, populated)
        _discard(node.on_populated)
        _discard(node.on_empty)
        for table in state:
            silo.install_rows(table, state[table])
        return state
