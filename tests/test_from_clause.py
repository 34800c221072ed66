"""Unit tests for From-clause identification (paper §4.1 + schema scaling)."""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.apps.imperative import ImperativeExecutable
from repro.core.config import ExtractionConfig
from repro.core.from_clause import extract_tables
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.datagen import wide_schema
from repro.engine import Result
from repro.errors import ExtractionError, ExtractionPaused
from repro.obs.provenance import REJECTED, ProvenanceRecorder
from repro.workloads import tpch_queries


def session_for(db, executable, **config_kwargs):
    return ExtractionSession(db, executable, ExtractionConfig(**config_kwargs))


class TestRenameStrategy:
    def test_identifies_exact_tables(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        assert extract_tables(session) == ["customer", "lineitem", "orders"]

    def test_single_table_query(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) as n, max(r_name) as m from region")
        session = session_for(tiny_tpch_db, app)
        assert extract_tables(session) == ["region"]

    def test_silo_restored_after_probing(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert sorted(session.silo.table_names) == sorted(tiny_tpch_db.table_names)

    def test_ignores_unreferenced_tables(self, tiny_tpch_db):
        wide = wide_schema.widen_database(tiny_tpch_db, extra=10)
        app = SQLExecutable("select count(*) as n, max(n_name) as m from nation")
        session = session_for(wide, app)
        assert extract_tables(session) == ["nation"]

    def test_application_that_queries_nothing_rejected(self, tiny_tpch_db):
        app = ImperativeExecutable(lambda db: Result(["x"], [(1,)]))
        session = session_for(tiny_tpch_db, app)
        with pytest.raises(ExtractionError):
            extract_tables(session)


class RowCountingSQL(SQLExecutable):
    """Records how many rows each invocation could see."""

    def __init__(self, sql):
        super().__init__(sql)
        self.rows_seen = []

    def run(self, db, timeout=None):
        self.rows_seen.append(db.total_rows())
        return super().run(db, timeout=timeout)


class FailsOnEmptySQL(SQLExecutable):
    """A SQL app that raises ``error`` whenever every table is empty."""

    def __init__(self, sql, error):
        super().__init__(sql)
        self.error = error

    def _execute(self, db, timeout):
        if db.total_rows() == 0:
            raise self.error
        return super()._execute(db, timeout)


class TestEmptiedSiloProbes:
    def test_data_dependent_table_read_found_by_di_fallback(self, tiny_tpch_db):
        # On the emptied silo the supplier scan never happens, so only the
        # D_I fallback can see that the app reads supplier.
        def logic(db):
            nations = list(db.scan("nation"))
            if not nations:
                return Result(["n"], [(0,)])
            return Result(["n"], [(sum(1 for _ in db.scan("supplier")),)])

        session = session_for(tiny_tpch_db, ImperativeExecutable(logic))
        assert extract_tables(session) == ["nation", "supplier"]

    def test_one_di_run_confirms_every_rejection(self, tiny_tpch_db):
        app = RowCountingSQL(tpch_queries.QUERIES["Q3"].sql)
        session = session_for(tiny_tpch_db, app)
        assert extract_tables(session) == ["customer", "lineitem", "orders"]
        assert len(app.rows_seen) == len(tiny_tpch_db.table_names) + 1
        assert sum(1 for rows in app.rows_seen if rows > 0) <= 1

    def test_silo_is_back_at_di(self, tiny_tpch_db):
        session = session_for(
            tiny_tpch_db, SQLExecutable(tpch_queries.QUERIES["Q3"].sql)
        )
        extract_tables(session)
        assert session.silo.fingerprint() == session.di_fingerprint

    def test_rejections_cite_the_di_confirmation(self, tiny_tpch_db):
        provenance = ProvenanceRecorder()
        session = ExtractionSession(
            tiny_tpch_db,
            SQLExecutable(tpch_queries.QUERIES["Q3"].sql),
            ExtractionConfig(),
            provenance=provenance,
        )
        extract_tables(session)
        confirmation = provenance.module_probes("from_clause")[-1]
        final = {
            event.target: event
            for event in provenance.clause_events()
            if event.kind == REJECTED
        }
        assert sorted(final) == ["nation", "part", "partsupp", "region", "supplier"]
        for event in final.values():
            assert len(event.evidence) == 2
            assert event.evidence[-1] == confirmation

    def test_app_failing_on_empty_instance_extracts_as_on_di(self, tiny_tpch_db):
        sql = tpch_queries.QUERIES["Q14"].sql
        plain = UnmasqueExtractor(
            tiny_tpch_db, SQLExecutable(sql), ExtractionConfig(eqc_guard=False)
        ).extract()
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            FailsOnEmptySQL(sql, IndexError("no settings row")),
            ExtractionConfig(eqc_guard=False),
        ).extract()
        assert outcome.verdict == "ok"
        assert outcome.sql == plain.sql

    def test_repro_errors_on_empty_instance_propagate(self, tiny_tpch_db):
        app = FailsOnEmptySQL("select r_name from region", ExtractionPaused("x"))
        session = session_for(tiny_tpch_db, app, eqc_guard=False)
        with pytest.raises(ExtractionPaused):
            extract_tables(session)


class TestTraceStrategy:
    def test_trace_identifies_imperative_tables(self, tiny_tpch_db):
        def logic(db):
            nations = {row["n_nationkey"]: row["n_name"] for row in db.scan("nation")}
            count = sum(1 for row in db.scan("supplier") if row["s_nationkey"] in nations)
            return Result(["n"], [(count,)])

        app = ImperativeExecutable(logic)
        session = session_for(tiny_tpch_db, app, from_clause_strategy="trace")
        assert extract_tables(session) == ["nation", "supplier"]

    def test_trace_disabled_after_run(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app, from_clause_strategy="trace")
        extract_tables(session)
        assert session.silo.trace_access is False

    def test_unknown_strategy_rejected(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app, from_clause_strategy="magic")
        with pytest.raises(ExtractionError):
            extract_tables(session)


class TestSessionBookkeeping:
    def test_invocations_attributed_to_module(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q4"].sql)
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        assert session.stats.module("from_clause").invocations >= 1
        assert session.stats.module("from_clause").seconds > 0

    def test_run_on_restores_rows(self, tiny_tpch_db):
        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app)
        before = session.silo.rows("region")
        session.run_on({"region": [before[0]]})
        assert session.silo.rows("region") == before

    def test_original_database_is_never_mutated(self, tiny_tpch_db):
        app = SQLExecutable(tpch_queries.QUERIES["Q4"].sql)
        snapshot = tiny_tpch_db.snapshot()
        session = session_for(tiny_tpch_db, app)
        extract_tables(session)
        session.silo.clear_table("orders")
        assert tiny_tpch_db.snapshot() == snapshot

    def test_di_samples_capture_original_values(self, tiny_tpch_db):
        from repro.sgraph import ColumnNode

        app = SQLExecutable("select count(*) from region")
        session = session_for(tiny_tpch_db, app)
        segments = session.di_samples[ColumnNode("customer", "c_mktsegment")]
        assert "BUILDING" in segments
