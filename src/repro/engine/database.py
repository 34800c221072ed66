"""The public database facade.

A :class:`Database` bundles a catalog with row storage and exposes:

* a SQL interface (:meth:`execute`) covering the EQC dialect plus DDL/DML —
  this is what hidden applications use;
* a direct Python API for the same operations (create/rename/drop/insert/
  sample/clone) — this is what the extraction pipeline uses, mirroring the
  paper's assumption that the DB is "freely accessible via its API";
* a table-access trace, the DB-side instrumentation that supports From-clause
  identification for imperative applications.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterable, Optional, Sequence

from repro.engine.catalog import Catalog, Column, ForeignKey, TableSchema
from repro.engine.executor import execute_plan
from repro.engine.expressions import evaluate, predicate_holds
from repro.engine.parser import parse_statement
from repro.engine.planner import _Scope, BoundTable, _resolve, plan_select
from repro.engine.result import Result
from repro.engine.sqlast import (
    ColumnDef,
    CreateTable,
    Delete,
    DropTable,
    Insert,
    Literal,
    RenameTable,
    SelectStatement,
    Update,
)
from repro.engine.storage import TableData, rows_digest
from repro.obs.trace import NULL_TRACER
from repro.engine.types import (
    BigIntType,
    CharType,
    DateType,
    IntegerType,
    NumericType,
    SQLType,
    TextType,
    VarcharType,
)
from repro.errors import (
    DatabaseError,
    ExecutableTimeoutError,
    ExecutionError,
    UndefinedTableError,
)


def type_from_def(definition: ColumnDef) -> SQLType:
    """Instantiate an engine type from a parsed DDL column definition."""
    name = definition.type_name
    args = definition.type_args
    if name in ("int", "integer"):
        return IntegerType()
    if name == "bigint":
        return BigIntType()
    if name in ("numeric", "decimal", "float"):
        scale = args[1] if len(args) > 1 else 2
        return NumericType(scale=scale)
    if name == "date":
        return DateType()
    if name == "varchar":
        return VarcharType(args[0] if args else 255)
    if name == "char":
        return CharType(args[0] if args else 1)
    if name == "text":
        return TextType()
    raise DatabaseError(f"unsupported column type {name!r}")


class DatabaseSnapshot:
    """An immutable point-in-time capture of a database (the sandbox token).

    Row lists are *shared* with the live tables (copy-on-write, see
    :meth:`~repro.engine.storage.TableData.share_rows`), so taking a snapshot
    is O(tables), not O(rows) — cheap enough to wrap every invocation.  The
    catalog is captured too: :meth:`Database.restore` undoes DDL (created,
    dropped, and renamed tables) as well as DML.

    Equality compares *content* (schemas and rows), so two independently
    built databases with identical data produce equal snapshots.
    """

    __slots__ = ("schemas", "rows", "version")

    def __init__(
        self,
        schemas: dict[str, TableSchema],
        rows: dict[str, list[tuple]],
        version: int = 0,
    ):
        self.schemas = schemas
        self.rows = rows
        #: the catalog version at capture time; :meth:`Database.restore`
        #: reinstates it so plan-cache entries compiled under this catalog
        #: become valid again (equality ignores it — it names a state within
        #: one database lineage, not content).
        self.version = version

    def __eq__(self, other) -> bool:
        if not isinstance(other, DatabaseSnapshot):
            return NotImplemented
        return self.schemas == other.schemas and self.rows == other.rows

    def __hash__(self):  # snapshots are mutable-adjacent; keep them unhashable
        raise TypeError("DatabaseSnapshot is not hashable")

    def fingerprint(self) -> str:
        """A stable content hash of the captured state (hex digest)."""
        return _content_fingerprint(self.schemas, self.rows)

    def total_rows(self) -> int:
        return sum(len(rows) for rows in self.rows.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DatabaseSnapshot {len(self.schemas)} tables, "
            f"{self.total_rows()} rows>"
        )


def _content_fingerprint(
    schemas: dict[str, TableSchema], rows: dict[str, list[tuple]]
) -> str:
    """sha256 over schema signatures and per-table row digests, in
    table-name order.

    Row *order* is included (see :func:`~repro.engine.storage.rows_digest`):
    the sandbox guarantee is byte-for-byte restoration, and the engine's
    scans are order-sensitive.  Table digests are cached on their row lists,
    so only tables changed since they were last hashed cost O(rows).
    """
    digest = hashlib.sha256()
    for name in sorted(schemas):
        digest.update(name.encode())
        digest.update(schemas[name].signature)
        digest.update(b"#")
        digest.update(rows_digest(rows[name]))
        digest.update(b"@")
    return digest.hexdigest()


class _VersionClock:
    """A monotonic catalog-version sequence shared across one database lineage.

    Every DDL statement draws a fresh version, so a version number names
    exactly one catalog state for the lifetime of the lineage — restoring a
    snapshot *reinstates* its recorded version rather than drawing a new one,
    which is what lets plan-cache entries survive the sandbox's
    restore-per-invocation cycle.  Probe replicas built with
    :meth:`Database.from_snapshot` share the parent's clock, so a shared
    plan cache keyed by version can never serve a plan compiled under a
    different catalog.
    """

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self._value += 1
            return self._value


class PlanCache:
    """An LRU cache of parsed statements and bound SELECT plans.

    Keyed by ``(sql, catalog_version)``: parsing is catalog-independent but
    planning binds column indices and schema objects, so any DDL (create,
    drop, rename, constraint stripping) must invalidate.  Rather than
    flushing, DDL bumps the database's catalog version — old entries become
    unreachable and age out of the LRU naturally, while a sandbox restore
    that reinstates an old version brings its entries straight back.

    Thread-safe: the probe scheduler shares one cache between the silo and
    its per-worker replicas.
    """

    __slots__ = ("capacity", "_entries", "_lock", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], tuple] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, sql: str, version: int):
        """The cached ``(statement, plan)`` pair, or None.  ``plan`` is None
        for non-SELECT statements (only the parse is reusable)."""
        with self._lock:
            entry = self._entries.get((sql, version))
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end((sql, version))
            self.hits += 1
            return entry

    def put(self, sql: str, version: int, statement, plan) -> None:
        with self._lock:
            key = (sql, version)
            self._entries[key] = (statement, plan)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "hit_rate": (self.hits / total) if total else 0.0,
            }


class SharedPlanCache:
    """A cross-job plan cache keyed ``(sql, catalog_version, catalog_digest)``.

    One instance is shared by every job the serve layer runs against the
    same process: concurrent extractions over the same ``(workload, scale,
    seed)`` instance replay near-identical probe SQL, so the second job's
    parses and bound plans are free.  The third key component is the catalog
    *content* digest — version numbers are per-lineage monotonic sequences,
    so two jobs can sit at the same version with different catalogs; the
    digest makes that collision structurally impossible (a plan is reused
    only when the catalog it was bound against is byte-identical).

    Per-scope (per-job) hit/miss accounting feeds each job's ``caches``
    report; ``cross_scope_hits`` counts reuse across job boundaries — the
    number this cache exists to make non-zero.
    """

    __slots__ = (
        "capacity", "_entries", "_owners", "_scopes", "_lock",
        "hits", "misses", "evictions", "cross_scope_hits",
    )

    def __init__(self, capacity: int = 2048):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._owners: dict[tuple, str] = {}
        self._scopes: dict[str, dict] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.cross_scope_hits = 0

    def lookup(self, key: tuple, scope: str):
        with self._lock:
            stats = self._scopes.setdefault(scope, {"hits": 0, "misses": 0})
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                stats["misses"] += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            stats["hits"] += 1
            if self._owners.get(key) != scope:
                self.cross_scope_hits += 1
            return entry

    def insert(self, key: tuple, value: tuple, scope: str) -> None:
        with self._lock:
            self._entries[key] = value
            self._owners.setdefault(key, scope)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                evicted, _ = self._entries.popitem(last=False)
                self._owners.pop(evicted, None)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "hit_rate": (self.hits / total) if total else 0.0,
                "cross_scope_hits": self.cross_scope_hits,
                "scopes": len(self._scopes),
            }

    def scoped_stats(self, scope: str) -> dict:
        with self._lock:
            stats = self._scopes.get(scope, {"hits": 0, "misses": 0})
            total = stats["hits"] + stats["misses"]
            return {
                "hits": stats["hits"],
                "misses": stats["misses"],
                "evictions": 0,  # eviction is a shared-cache-level event
                "entries": len(self._entries),
                "hit_rate": (stats["hits"] / total) if total else 0.0,
                "shared": True,
            }


class ScopedPlanCache:
    """A :class:`PlanCache`-shaped view of a :class:`SharedPlanCache`.

    Presents the exact ``get(sql, version)`` / ``put(...)`` interface the
    engine expects while widening every key with the owning database's
    catalog-content digest.  ``for_db`` rebinds the view to a probe replica
    (see :meth:`Database.from_snapshot`) so replicas share the same global
    cache under their own digests.
    """

    __slots__ = ("shared", "db", "scope")

    def __init__(self, shared: SharedPlanCache, db: "Database", scope: str):
        self.shared = shared
        self.db = db
        self.scope = scope

    def get(self, sql: str, version: int):
        key = (sql, version, self.db.catalog_digest())
        return self.shared.lookup(key, self.scope)

    def put(self, sql: str, version: int, statement, plan) -> None:
        key = (sql, version, self.db.catalog_digest())
        self.shared.insert(key, (statement, plan), self.scope)

    def for_db(self, db: "Database") -> "ScopedPlanCache":
        return ScopedPlanCache(self.shared, db, self.scope)

    def __len__(self) -> int:
        return len(self.shared)

    def stats(self) -> dict:
        return self.shared.scoped_stats(self.scope)


#: statement class → the ``statement`` tag value on its query span
_STATEMENT_KINDS = {
    SelectStatement: "select",
    CreateTable: "create_table",
    DropTable: "drop_table",
    RenameTable: "rename_table",
    Insert: "insert",
    Update: "update",
    Delete: "delete",
}


class Database:
    """An in-memory relational database instance."""

    def __init__(self, schemas: Iterable[TableSchema] = ()):
        self.catalog = Catalog()
        self._tables: dict[str, TableData] = {}
        self.access_log: list[str] = []
        self.trace_access = False
        #: observability hook: engine statements open ``query`` spans on this
        #: tracer (parse/plan/execute timing, row counts).  The default
        #: :data:`~repro.obs.trace.NULL_TRACER` keeps the untraced fast path.
        self.tracer = NULL_TRACER
        #: absolute ``time.perf_counter()`` deadline for cooperative timeouts;
        #: the executor and the scan cursor poll it (see :meth:`check_deadline`).
        self.deadline: Optional[float] = None
        #: optional :class:`repro.resilience.budgets.ResourceBudget`; when
        #: attached, SELECTs charge rows scanned against it and the deadline
        #: poll doubles as the wall-clock watchdog tick.
        self.budget = None
        #: monotonic catalog-version source for this lineage (shared with
        #: probe replicas, see :meth:`from_snapshot`).
        self._clock = _VersionClock()
        #: the current catalog version; bumped by DDL, reinstated by
        #: :meth:`restore`.  Plan-cache keys embed it.
        self.catalog_version = 0
        #: parse/plan LRU (set to None to disable caching entirely).
        self.plan_cache: Optional[PlanCache] = PlanCache()
        #: memoized (catalog_version, digest) pair for :meth:`catalog_digest`
        self._digest_cache: Optional[tuple[int, str]] = None
        for schema in schemas:
            self.create_table(schema)

    def check_deadline(self) -> None:
        """Raise if the cooperative execution deadline has passed.

        This models the paper's "terminate the ongoing execution after a short
        timeout period" (§4.1): the From-clause extractor sets a deadline so
        that probe runs against a mutated schema either fail fast (table
        renamed away) or are cut short.
        """
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise ExecutableTimeoutError("database execution deadline exceeded")
        if self.budget is not None:
            self.budget.check_wall_clock()

    # -- DDL -----------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.add(schema)
        self._tables[schema.name.lower()] = TableData(schema)
        self.catalog_version = self._clock.next()

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        del self._tables[name.lower()]
        self.catalog_version = self._clock.next()

    def rename_table(self, old: str, new: str) -> None:
        self.catalog.rename(old, new)
        self._tables[new.lower()] = self._tables.pop(old.lower())
        # keep the stored schema consistent with the catalog
        self._tables[new.lower()].schema = self.catalog.get(new)
        self.catalog_version = self._clock.next()

    def drop_constraints(self) -> None:
        """Remove all PK/FK declarations (silo preparation, paper §3.2).

        The *schema graph* needed by join extraction must be captured from the
        original database before calling this.
        """
        for schema in list(self.catalog):
            bare = TableSchema(
                name=schema.name,
                columns=schema.columns,
                primary_key=(),
                foreign_keys=(),
            )
            self.catalog.replace(bare)
            self._tables[schema.name.lower()].schema = bare
        self.catalog_version = self._clock.next()

    # -- data access -----------------------------------------------------------

    @property
    def table_names(self) -> list[str]:
        return self.catalog.table_names

    def table(self, name: str) -> TableData:
        data = self._tables.get(name.lower())
        if data is None:
            raise UndefinedTableError(name)
        if self.trace_access:
            self.access_log.append(name.lower())
        return data

    def schema(self, name: str) -> TableSchema:
        return self.catalog.get(name)

    def table_states(self) -> list[tuple[str, TableSchema, list[tuple]]]:
        """``(name, schema, shared_rows)`` for every table, bypassing the
        access trace.

        This is the isolation supervisor's delta source: the returned row
        lists are copy-on-write shares (see
        :meth:`~repro.engine.storage.TableData.share_rows`), so holding one
        and comparing it *by identity* on the next call is a sound
        changed-since-last-time test.  Reading through :meth:`table` would
        pollute ``access_log`` during From-clause trace runs, so this helper
        goes straight to storage.
        """
        return [
            (name, data.schema, data.share_rows())
            for name, data in self._tables.items()
        ]

    def row_count(self, name: str) -> int:
        return len(self.table(name))

    def rows(self, name: str) -> list[tuple]:
        return list(self.table(name).rows)

    def insert(self, name: str, rows: Iterable[Sequence]) -> None:
        self.table(name).extend(rows)

    def replace_rows(self, name: str, rows: Iterable[Sequence]) -> None:
        self.table(name).replace_all(rows)

    def install_rows(self, name: str, rows: Iterable[tuple]) -> None:
        """Replace a table's rows with rows that are already canonical.

        The trusted twin of :meth:`replace_rows`: no per-value coercion, so
        it is only for rows that came out of this engine (samples, halves,
        snapshot copies).  Values from outside — generated data, synthesised
        probe values, worker frames, counterexample JSON — must go through
        :meth:`replace_rows`.
        """
        self.table(name).install(rows)

    def clear_table(self, name: str) -> None:
        self.table(name).clear()

    def clear_all(self) -> None:
        for data in self._tables.values():
            data.clear()

    def sample_rows(self, name: str, count: int, seed: Optional[int] = None) -> list[tuple]:
        """A uniform random row sample (the engine's TABLESAMPLE stand-in)."""
        rng = random.Random(seed)
        return self.table(name).sample(count, rng)

    def scan(self, name: str):
        """Cursor-style row iteration used by imperative applications.

        Yields dict-like row views so imperative code reads columns by name,
        mirroring an ORM/resultset API.
        """
        data = self.table(name)
        names = [col.name for col in data.schema.columns]
        for i, row in enumerate(data.rows):
            if i % 256 == 0:
                self.check_deadline()
            yield dict(zip(names, row))

    def total_rows(self) -> int:
        return sum(len(data) for data in self._tables.values())

    def undigested_rows(self) -> int:
        """Rows in tables without a cached digest: what the next
        :meth:`fingerprint` has to hash."""
        return sum(
            len(data.rows)
            for data in self._tables.values()
            if getattr(data.rows, "digest", None) is None
        )

    def total_cells(self) -> int:
        """Resident cell count (rows × columns summed over all tables).

        The memory-pressure governor's engine-side footprint signal: cells
        dominate a silo's resident size, and counting them is O(tables).
        """
        return sum(
            len(data) * len(data.schema.columns)
            for data in self._tables.values()
        )

    def catalog_digest(self) -> str:
        """A content hash of the catalog (names, columns, types, PK/FK).

        Memoized per catalog version.  Within one lineage the version number
        already names the catalog uniquely; the digest is what makes a
        *cross-lineage* shared plan-cache key sound — two jobs at the same
        version number but different DDL histories can never alias.
        """
        version = self.catalog_version
        cached = self._digest_cache
        if cached is not None and cached[0] == version:
            return cached[1]
        digest = hashlib.sha256()
        for name in sorted(self.catalog.table_names, key=str.lower):
            schema = self.catalog.get(name)
            digest.update(name.lower().encode())
            for column in schema.columns:
                digest.update(f"|{column.name}:{column.type!r}".encode())
            digest.update(f"#pk:{schema.primary_key}".encode())
            digest.update(f"#fk:{schema.foreign_keys}".encode())
            digest.update(b"@")
        value = digest.hexdigest()[:16]
        self._digest_cache = (version, value)
        return value

    # -- SQL interface -----------------------------------------------------------

    def execute(self, sql: str) -> Result:
        """Execute one SQL statement; non-SELECT statements return empty results."""
        if self.tracer.enabled:
            return self._execute_traced(sql)
        statement, plan, _ = self._parse_and_plan(sql)
        if plan is not None:
            return self._run_select_plan(plan)
        return self._dispatch(statement)

    def _parse_and_plan(self, sql: str) -> tuple:
        """Resolve ``sql`` through the plan cache: ``(statement, plan, hit)``.

        ``plan`` is a bound plan for SELECTs and None otherwise (only the
        parse is reusable for DDL/DML).  Failures are never cached: planning
        errors such as :class:`~repro.errors.UndefinedTableError` are
        semantic signals to the From-clause extractor and must be recomputed
        against the live catalog every time.
        """
        cache = self.plan_cache
        if cache is None:
            statement = parse_statement(sql)
            plan = (
                plan_select(statement, self.catalog)
                if isinstance(statement, SelectStatement)
                else None
            )
            return statement, plan, False
        version = self.catalog_version
        entry = cache.get(sql, version)
        if entry is not None:
            return entry[0], entry[1], True
        statement = parse_statement(sql)
        plan = (
            plan_select(statement, self.catalog)
            if isinstance(statement, SelectStatement)
            else None
        )
        cache.put(sql, version, statement, plan)
        return statement, plan, False

    def _run_select_plan(self, plan) -> Result:
        rows_by_binding = {
            bound.binding: self.table(bound.schema.name).rows for bound in plan.tables
        }
        if self.budget is None:
            return execute_plan(plan, rows_by_binding, tick=self.check_deadline)
        profile: dict = {}
        result = execute_plan(
            plan, rows_by_binding, tick=self.check_deadline, profile=profile
        )
        self.budget.charge_rows_scanned(profile["rows_scanned"])
        return result

    def _execute_traced(self, sql: str) -> Result:
        """The profiled twin of :meth:`execute`: one ``query`` span per
        statement with parse/plan/execute phase timing and row counts."""
        tracer = self.tracer
        metrics = tracer.metrics
        with tracer.span("statement", kind="query") as span:
            started = time.perf_counter()
            try:
                return self._execute_traced_inner(sql, span, started)
            except Exception:
                # Failed probes (e.g. From-clause rename runs) still count:
                # the paper's invocation budgets include them.
                if metrics is not None:
                    metrics.counter("queries_total").inc()
                    metrics.counter("query_errors_total").inc()
                    metrics.histogram("query_latency_seconds").observe(
                        time.perf_counter() - started
                    )
                raise

    def _execute_traced_inner(self, sql: str, span, started: float) -> Result:
        metrics = self.tracer.metrics
        cache = self.plan_cache
        version = self.catalog_version
        entry = cache.get(sql, version) if cache is not None else None
        if entry is not None:
            statement, cached_plan = entry
            span.set_tag("plan_cache", "hit")
        else:
            statement = parse_statement(sql)
            cached_plan = None
        parse_seconds = time.perf_counter() - started
        kind = _STATEMENT_KINDS.get(type(statement), "other")
        span.name = kind
        span.set_tags(statement=kind, parse_seconds=round(parse_seconds, 9))

        if isinstance(statement, SelectStatement):
            plan_started = time.perf_counter()
            if cached_plan is not None:
                plan = cached_plan
            else:
                plan = plan_select(statement, self.catalog)
                if cache is not None:
                    cache.put(sql, version, statement, plan)
                    span.set_tag("plan_cache", "miss")
            span.set_tag(
                "plan_seconds", round(time.perf_counter() - plan_started, 9)
            )
            span.set_tag("tables", [bound.schema.name for bound in plan.tables])
            rows_by_binding = {
                bound.binding: self.table(bound.schema.name).rows
                for bound in plan.tables
            }
            profile: dict = {}
            exec_started = time.perf_counter()
            result = execute_plan(
                plan, rows_by_binding, tick=self.check_deadline, profile=profile
            )
            if self.budget is not None:
                self.budget.charge_rows_scanned(profile["rows_scanned"])
            span.set_tag(
                "execute_seconds", round(time.perf_counter() - exec_started, 9)
            )
            span.set_tags(**profile)
            if metrics is not None:
                metrics.counter("queries_total").inc()
                metrics.counter("rows_scanned_total").inc(profile["rows_scanned"])
                metrics.counter("rows_emitted_total").inc(profile["rows_emitted"])
                metrics.histogram("query_latency_seconds").observe(
                    time.perf_counter() - started
                )
            return result

        if entry is None and cache is not None:
            # Cache the parse keyed at the *pre-execution* version: DDL bumps
            # the version as it runs, so its own entry can never replay
            # against the catalog it just changed.
            cache.put(sql, version, statement, None)
            span.set_tag("plan_cache", "miss")
        result = self._dispatch(statement)
        if kind in ("insert", "update", "delete"):
            affected = (
                len(statement.rows)
                if isinstance(statement, Insert)
                else (result.rows[0][0] if result.rows else 0)
            )
            span.set_tag("rows_affected", affected)
            if metrics is not None:
                metrics.counter("dml_statements_total").inc()
                metrics.counter("dml_rows_affected_total").inc(affected)
        if metrics is not None:
            metrics.counter("queries_total").inc()
            metrics.histogram("query_latency_seconds").observe(
                time.perf_counter() - started
            )
        return result

    def _dispatch(self, statement) -> Result:
        if isinstance(statement, SelectStatement):
            return self.execute_select(statement)
        if isinstance(statement, CreateTable):
            columns = tuple(
                Column(col.name, type_from_def(col)) for col in statement.columns
            )
            foreign_keys = tuple(
                ForeignKey(local, ref_table, ref_cols)
                for local, ref_table, ref_cols in statement.foreign_keys
            )
            self.create_table(
                TableSchema(
                    name=statement.name,
                    columns=columns,
                    primary_key=statement.primary_key,
                    foreign_keys=foreign_keys,
                )
            )
            return Result.empty()
        if isinstance(statement, DropTable):
            self.drop_table(statement.name)
            return Result.empty()
        if isinstance(statement, RenameTable):
            self.rename_table(statement.old_name, statement.new_name)
            return Result.empty()
        if isinstance(statement, Insert):
            return self._execute_insert(statement)
        if isinstance(statement, Update):
            return self._execute_update(statement)
        if isinstance(statement, Delete):
            return self._execute_delete(statement)
        raise DatabaseError(f"unsupported statement type {type(statement).__name__}")

    def execute_select(self, statement: SelectStatement) -> Result:
        plan = plan_select(statement, self.catalog)
        rows_by_binding = {
            bound.binding: self.table(bound.schema.name).rows for bound in plan.tables
        }
        if self.budget is None:
            return execute_plan(plan, rows_by_binding, tick=self.check_deadline)
        profile: dict = {}
        result = execute_plan(
            plan, rows_by_binding, tick=self.check_deadline, profile=profile
        )
        self.budget.charge_rows_scanned(profile["rows_scanned"])
        return result

    def _execute_insert(self, statement: Insert) -> Result:
        data = self.table(statement.table)
        schema = data.schema
        column_order = statement.columns or schema.column_names
        indices = [schema.column_index(col) for col in column_order]
        for value_row in statement.rows:
            values = [evaluate(expr, ()) for expr in value_row]
            full = [None] * len(schema.columns)
            for idx, value in zip(indices, values):
                full[idx] = value
            data.insert(full)
        return Result.empty()

    def _single_table_predicate(self, table: str, where) -> Callable[[tuple], bool]:
        schema = self.catalog.get(table)
        bound = BoundTable(binding=table.lower(), schema=schema, slot_offset=0)
        scope = _Scope([bound])
        resolved = _resolve(where, scope)
        return lambda row: predicate_holds(resolved, row)

    def _execute_update(self, statement: Update) -> Result:
        data = self.table(statement.table)
        schema = data.schema
        predicate = (
            self._single_table_predicate(statement.table, statement.where)
            if statement.where is not None
            else (lambda row: True)
        )
        bound = BoundTable(binding=statement.table.lower(), schema=schema, slot_offset=0)
        scope = _Scope([bound])
        assignments = [
            (schema.column_index(column), _resolve(expr, scope))
            for column, expr in statement.assignments
        ]

        def updater(row: tuple) -> tuple:
            new_row = list(row)
            for index, expr in assignments:
                new_row[index] = evaluate(expr, row)
            return tuple(new_row)

        count = data.update_where(predicate, updater)
        return Result(["updated"], [(count,)])

    def _execute_delete(self, statement: Delete) -> Result:
        data = self.table(statement.table)
        predicate = (
            self._single_table_predicate(statement.table, statement.where)
            if statement.where is not None
            else (lambda row: True)
        )
        count = data.delete_where(predicate)
        return Result(["deleted"], [(count,)])

    def explain(self, sql: str) -> str:
        """Describe how the engine would execute a SELECT (no execution)."""
        from repro.engine.explain import explain_sql

        statement = parse_statement(sql)
        if not isinstance(statement, SelectStatement):
            raise DatabaseError("EXPLAIN supports SELECT statements only")
        return explain_sql(statement, self.catalog)

    # -- cloning / silos -----------------------------------------------------------

    def clone(self, with_data: bool = True) -> "Database":
        """An independent copy (the extraction silo of paper §3.2)."""
        clone = Database()
        clone.catalog = self.catalog.copy()
        clone.tracer = self.tracer
        for name, data in self._tables.items():
            clone._tables[name] = data.copy() if with_data else TableData(data.schema)
        return clone

    @classmethod
    def from_snapshot(
        cls,
        token: DatabaseSnapshot,
        *,
        plan_cache: Optional[PlanCache] = None,
        clock: Optional[_VersionClock] = None,
    ) -> "Database":
        """A fresh, untraced database positioned at ``token``'s state.

        This is the probe scheduler's replica constructor: worker threads
        probe private replicas instead of the shared silo.  Passing the
        silo's ``plan_cache`` together with its version ``clock`` lets all
        replicas share compiled plans soundly — versions come from one
        monotonic sequence, so a (sql, version) key can never alias two
        different catalogs.  Rows are adopted copy-on-write, so construction
        is O(tables).
        """
        db = cls()
        if clock is not None:
            db._clock = clock
        if plan_cache is not None:
            # A scoped view of a shared cross-job cache must be rebound to
            # the replica so keys carry *its* catalog digest; a plain
            # PlanCache is shared as-is (same lineage, same version clock).
            rebind = getattr(plan_cache, "for_db", None)
            db.plan_cache = rebind(db) if rebind is not None else plan_cache
        db.restore(token)
        return db

    # -- transactional sandbox ----------------------------------------------

    def snapshot(self) -> DatabaseSnapshot:
        """Capture catalog and rows as a restorable token (copy-on-write).

        O(tables): row lists are shared with the live tables and only copied
        if a later mutation touches them.
        """
        return DatabaseSnapshot(
            schemas={name: data.schema for name, data in self._tables.items()},
            rows={name: data.share_rows() for name, data in self._tables.items()},
            version=self.catalog_version,
        )

    def restore(self, token: DatabaseSnapshot) -> None:
        """Restore the exact state captured by ``token``.

        Undoes DML *and* DDL: tables created after the snapshot are dropped,
        dropped tables reappear, renames are reversed.  The token stays
        valid — it can be restored again later.
        """
        self.catalog = Catalog(token.schemas.values())
        tables: dict[str, TableData] = {}
        for name, schema in token.schemas.items():
            data = TableData(schema)
            data.adopt_rows(token.rows[name])
            tables[name] = data
        self._tables = tables
        # Reinstate (not bump) the captured catalog version: the version
        # sequence is monotonic, so this value still names exactly the
        # catalog state being restored and plans compiled under it revive.
        self.catalog_version = token.version

    @contextmanager
    def sandbox(self):
        """Run a block against this database, then roll everything back.

        ``with db.sandbox():`` guarantees the database is byte-identical to
        its entry state on exit — on success, on any exception, and on a
        mid-block crash that unwinds the stack.
        """
        token = self.snapshot()
        try:
            yield token
        finally:
            self.restore(token)

    def fingerprint(self) -> str:
        """A stable content hash of the live state (schemas + rows).

        Costs O(tables + :meth:`undigested_rows`): per-table digests are
        cached on the row lists until a mutation replaces or appends to them.
        """
        return _content_fingerprint(
            {name: data.schema for name, data in self._tables.items()},
            {name: data.rows for name, data in self._tables.items()},
        )
