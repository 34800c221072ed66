"""End-to-end observability: tracing a real extraction, stats attribution,
and the CLI --trace-out / --metrics-out / trace-report surface."""

from __future__ import annotations

import io
import json
import time

import pytest

from repro.apps.executable import SQLExecutable
from repro.cli import main
from repro.core.config import ExtractionConfig
from repro.core.pipeline import UnmasqueExtractor
from repro.core.session import ExtractionSession
from repro.obs import MetricsRegistry, Tracer, read_jsonl

QUERY = (
    "select n_name, count(*) as suppliers from nation, supplier "
    "where n_nationkey = s_nationkey group by n_name"
)


def _traced_extraction(db, sql=QUERY, **config_kwargs):
    registry = MetricsRegistry()
    tracer = Tracer(metrics=registry)
    config = ExtractionConfig(run_checker=False, **config_kwargs)
    app = SQLExecutable(sql, name="obs-app")
    outcome = UnmasqueExtractor(db, app, config, tracer=tracer).extract()
    return outcome, tracer, registry


class TestTracedExtraction:
    def test_root_span_covers_whole_extraction(self, tpch_db):
        outcome, tracer, _ = _traced_extraction(tpch_db)
        root = tracer.root
        assert root is not None and root.kind == "pipeline"
        others = [s for s in tracer.spans if s is not root]
        assert others, "expected child spans under the root"
        assert all(s.parent_id is not None for s in others)
        assert all(s.start >= root.start and s.end <= root.end for s in others)
        assert root.tags["invocations"] == outcome.stats.total_invocations
        assert sorted(outcome.query.tables) == sorted(root.tags["tables"])

    def test_every_pipeline_module_has_a_span(self, tpch_db):
        outcome, tracer, _ = _traced_extraction(tpch_db)
        module_spans = {s.name for s in tracer.spans if s.kind == "module"}
        assert set(outcome.stats.modules) <= module_spans

    def test_query_spans_carry_row_counts_and_phase_timing(self, tpch_db):
        _, tracer, _ = _traced_extraction(tpch_db)
        selects = [
            s
            for s in tracer.spans
            if s.kind == "query" and s.tags.get("statement") == "select"
            and "error" not in s.tags
        ]
        assert selects
        for span in selects:
            assert span.tags["rows_scanned"] >= span.tags["rows_emitted"] >= 0
            assert "parse_seconds" in span.tags
            assert "plan_seconds" in span.tags
            assert "execute_seconds" in span.tags

    def test_invocation_spans_nest_queries_under_modules(self, tpch_db):
        _, tracer, _ = _traced_extraction(tpch_db)
        by_id = {s.span_id: s for s in tracer.spans}
        invocations = [s for s in tracer.spans if s.kind == "invocation"]
        assert invocations
        assert all(by_id[s.parent_id].kind == "module" for s in invocations)
        queries = [s for s in tracer.spans if s.kind == "query"]
        assert queries
        assert all(by_id[s.parent_id].kind == "invocation" for s in queries)

    def test_metrics_agree_with_stats(self, tpch_db):
        outcome, _, registry = _traced_extraction(tpch_db)
        snap = registry.snapshot()
        assert snap["invocations_total"]["value"] == outcome.stats.total_invocations
        assert snap["extractions_total"]["value"] == 1
        # every physical execution issues at least one query; memo hits
        # are logical invocations that reach no engine at all
        physical = (
            outcome.stats.total_invocations
            - snap["invocation_cache_hits_total"]["value"]
        )
        assert snap["queries_total"]["value"] >= physical
        assert snap["rows_scanned_total"]["value"] > 0
        assert (
            snap["query_latency_seconds"]["count"] == snap["queries_total"]["value"]
        )

    def test_tracing_does_not_change_extraction_output(self, tpch_db):
        app = SQLExecutable(QUERY, name="plain-app")
        config = ExtractionConfig(run_checker=False)
        plain = UnmasqueExtractor(tpch_db, app, config).extract()
        traced, _, _ = _traced_extraction(tpch_db)
        assert traced.sql == plain.sql
        assert traced.stats.total_invocations == plain.stats.total_invocations


class TestNestedModuleAttribution:
    """Regression: nested modules must not double-attribute wall-clock."""

    def _session(self, tiny_tpch_db):
        app = SQLExecutable("select n_name from nation", name="nested-app")
        return ExtractionSession(tiny_tpch_db, app, ExtractionConfig())

    def test_inner_module_time_charged_once(self, tiny_tpch_db):
        session = self._session(tiny_tpch_db)
        started = time.perf_counter()
        with session.module("outer"):
            time.sleep(0.02)
            with session.module("inner"):
                time.sleep(0.05)
            time.sleep(0.01)
        elapsed = time.perf_counter() - started

        outer = session.stats.module("outer").seconds
        inner = session.stats.module("inner").seconds
        assert inner == pytest.approx(0.05, abs=0.02)
        assert outer == pytest.approx(0.03, abs=0.02)
        # The invariant: total attributed time never exceeds true wall-clock.
        assert session.stats.total_seconds <= elapsed + 1e-6

    def test_nested_run_invocations_attributed_to_innermost(self, tiny_tpch_db):
        session = self._session(tiny_tpch_db)
        with session.module("outer"):
            session.run()
            with session.module("inner"):
                session.run()
                session.run()
        assert session.stats.module("outer").invocations == 1
        assert session.stats.module("inner").invocations == 2

    def test_having_pipeline_total_not_double_counted(self, tpch_db):
        """The §7 pipeline re-enters `filters` nested inside other modules;
        the per-module sum must stay within the true wall-clock."""
        sql = (
            "select o_custkey, count(*) as orders from orders "
            "group by o_custkey having count(*) >= 2"
        )
        app = SQLExecutable(sql, name="having-app")
        config = ExtractionConfig(run_checker=False, extract_having=True)
        started = time.perf_counter()
        outcome = UnmasqueExtractor(tpch_db, app, config).extract()
        elapsed = time.perf_counter() - started
        assert outcome.stats.total_seconds <= elapsed + 1e-6


class TestCliObservability:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_trace_and_metrics_out(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code, output = self.run_cli(
            [
                "extract",
                "--workload", "tpch",
                "--query", "q1",  # case-insensitive lookup
                "--scale", "0.001",
                "--no-checker",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        assert "trace       :" in output and "metrics     :" in output

        spans = read_jsonl(trace_path)
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1 and roots[0].kind == "pipeline"
        kinds = {s.kind for s in spans}
        assert {"pipeline", "module", "invocation", "query"} <= kinds
        assert any(
            s.kind == "query" and "rows_scanned" in s.tags for s in spans
        )

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["invocations_total"]["value"] > 0
        assert snapshot["rows_scanned_total"]["value"] > 0

    def test_trace_report_renders_tree(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        code, _ = self.run_cli(
            [
                "extract",
                "--workload", "tpch",
                "--query", "Q6",
                "--scale", "0.001",
                "--no-checker",
                "--trace-out", str(trace_path),
            ]
        )
        assert code == 0
        code, output = self.run_cli(["trace-report", str(trace_path), "--top", "3"])
        assert code == 0
        assert "pipeline:extraction" in output
        assert "module:" in output
        assert "slowest engine queries" in output

    def test_trace_report_missing_file(self, tmp_path):
        code, output = self.run_cli(["trace-report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read" in output

    def test_no_flags_means_no_trace_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, output = self.run_cli(
            ["extract", "--workload", "tpch", "--query", "Q6",
             "--scale", "0.001", "--no-checker"]
        )
        assert code == 0
        assert "trace       :" not in output
        assert list(tmp_path.iterdir()) == []
