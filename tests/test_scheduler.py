"""Unit tests for the probe scheduler (``repro.sched``).

The golden-corpus and sweep suites check the determinism contract end to
end; this suite pins the scheduler's own semantics — map parity with the
sequential schedule, submission-order error selection, speculative chain
resolution and its gates, the session fork/join contract, and the
exactly-once accounting of logical invocations into module stats, budgets,
metrics and spans.
"""

from __future__ import annotations

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor
from repro.core.from_clause import extract_tables
from repro.core.minimizer import minimize
from repro.core.session import ExtractionSession
from repro.datagen import tpch
from repro.errors import BudgetExhausted
from repro.obs import MetricsRegistry, Tracer
from repro.resilience.budgets import BudgetSpec, ResourceBudget
from repro.resilience.faults import FAULT_PROFILES, FaultyExecutable
from repro.workloads import tpch_queries

Q3 = tpch_queries.QUERIES["Q3"].sql
Q6 = tpch_queries.QUERIES["Q6"].sql


def make_session(db, sql, **config_kwargs):
    config = ExtractionConfig(**config_kwargs)
    session = ExtractionSession(db, SQLExecutable(sql), config)
    extract_tables(session)
    return session


class TestMap:
    def test_parallel_map_matches_sequential(self, tiny_tpch_db):
        """Same results, same per-module logical charges, any jobs level."""
        observed = {}
        for jobs in (1, 4):
            session = make_session(tiny_tpch_db, Q3, jobs=jobs)
            minimize(session)
            tables = list(session.query.tables)
            with session.module("filters"):
                results = session.scheduler.map(
                    tables,
                    lambda ctx, table: ctx.run_on(
                        {table: [ctx.d1[table]]}
                    ).row_count,
                )
            observed[jobs] = (
                results,
                session.stats.module("filters").invocations,
            )
            session.close()
        assert observed[1] == observed[4]
        assert observed[1][1] == len(observed[1][0])

    def test_single_item_and_jobs1_stay_inline(self, tiny_tpch_db):
        """Degenerate batches never touch a thread pool: the ctx IS the
        session, so tasks may freely use session-only surface (e.g. rng)."""
        session = make_session(tiny_tpch_db, Q6, jobs=1)
        seen = []
        session.scheduler.map(
            ["only"], lambda ctx, item: seen.append(ctx is session)
        )
        assert seen == [True]
        assert session.scheduler.stats.batches == 0
        session.close()

    def test_first_error_in_item_order_wins(self, tiny_tpch_db):
        """Later items may fail earlier in wall-clock; the earliest *item's*
        error is the one re-raised, matching a sequential schedule."""
        session = make_session(tiny_tpch_db, Q6, jobs=4)
        minimize(session)

        def task(ctx, item):
            if item >= 1:
                raise ValueError(f"boom-{item}")
            return item

        with session.module("filters"):
            with pytest.raises(ValueError, match="boom-1"):
                session.scheduler.map([0, 1, 2, 3], task)
        session.close()


class TestChain:
    def test_speculative_chain_matches_sequential(self, tiny_tpch_db):
        observed = {}
        for jobs in (1, 4):
            session = make_session(tiny_tpch_db, Q3, jobs=jobs)
            d1 = minimize(session)
            observed[jobs] = (
                d1,
                session.stats.module("minimizer").invocations,
            )
            stats = session.scheduler.stats
            if jobs == 1:
                assert stats.speculation_hits == 0
            else:
                assert stats.speculation_hits > 0
            session.close()
        assert observed[1] == observed[4]

    def test_random_policy_never_speculates(self, tiny_tpch_db):
        """The random halving policy draws from the session RNG per consumed
        link; speculation would evaluate hypothetical states, so the gate
        must hold — and the result must still match jobs=1 exactly."""
        observed = {}
        for jobs in (1, 4):
            session = make_session(
                tiny_tpch_db, Q3, jobs=jobs, halving_policy="random"
            )
            d1 = minimize(session)
            stats = session.scheduler.stats
            assert stats.speculation_hits == 0
            assert stats.speculation_wasted == 0
            observed[jobs] = d1
            session.close()
        assert observed[1] == observed[4]


class TestAccounting:
    def test_metrics_count_logical_invocations_once(self, tiny_tpch_db):
        """invocations_total must equal stats.total_invocations at jobs=4:
        speculative physical executions are invisible, consumed ones tick
        exactly once."""
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry, keep_spans=False)
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q3, name="acct"),
            ExtractionConfig(run_checker=False, jobs=4),
            tracer=tracer,
        ).extract()
        snapshot = registry.snapshot()
        assert (
            snapshot["invocations_total"]["value"]
            == outcome.stats.total_invocations
        )
        assert snapshot["scheduler_parallel_probes_total"]["value"] > 0

    def test_outcome_reports_cache_stats(self, tiny_tpch_db):
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q6, name="caches"),
            ExtractionConfig(run_checker=False, jobs=2),
        ).extract()
        caches = outcome.caches
        assert caches["scheduler"]["jobs"] == 2
        assert caches["plan_cache"]["hit_rate"] > 0
        assert caches["invocation_cache"]["hit_rate"] > 0

    def test_cache_knobs_disable_cleanly(self, tiny_tpch_db):
        outcome = UnmasqueExtractor(
            tiny_tpch_db,
            SQLExecutable(Q6, name="no-caches"),
            ExtractionConfig(
                run_checker=False,
                plan_cache_size=0,
                invocation_cache=False,
            ),
        ).extract()
        assert outcome.caches.get("plan_cache") is None
        assert outcome.caches.get("invocation_cache") is None
        assert outcome.caches["scheduler"]["jobs"] == 1


class TestForkContract:
    def test_parallel_task_has_no_rng(self, tiny_tpch_db):
        session = make_session(tiny_tpch_db, Q6, jobs=2)
        minimize(session)
        with session.module("filters"):
            seen = session.scheduler.map(
                [0, 1], lambda ctx, _: (ctx is session, ctx.rng)
            )
        assert seen == [(False, None), (False, None)]
        assert session.rng is not None
        session.close()

    def test_d1_updates_to_different_columns_all_land(self, tiny_tpch_db):
        """Two forks change different columns of one table's row; joining
        both, in order, keeps both changes in ``d1`` and in the silo."""
        session = make_session(tiny_tpch_db, Q6, jobs=2)
        minimize(session)
        resident = dict(session.d1)
        base = session.silo.snapshot()
        updates = [("l_quantity", 7), ("l_comment", "forked")]
        forks = [session.fork(base) for _ in updates]
        for fork, (column, value) in zip(forks, updates):
            fork.update_d1("lineitem", {column: value})
        assert session.d1 == resident
        for fork in forks:
            session.join(fork)
        schema = session.silo.schema("lineitem")
        (silo_row,) = session.silo.rows("lineitem")
        for column, value in updates:
            index = schema.column_index(column)
            assert session.d1["lineitem"][index] == value
            assert silo_row[index] == value
        session.close()

    def test_cells_are_charged_once_where_the_task_runs(self, tiny_tpch_db):
        """A fork charges the shared budget as its task runs, and the join
        does not charge again: totals match jobs 1, and a cell limit crossed
        by a task's ``update_d1`` stops that task before its probe."""

        def task(ctx, value):
            ctx.update_d1("lineitem", {"l_quantity": value})
            return ctx.run_on({"lineitem": [ctx.d1["lineitem"]] * 2})

        def update_then_run(ctx, value):
            ctx.update_d1("lineitem", {"l_quantity": value})
            return ctx.run()

        charged = {}
        for jobs in (1, 4):
            session = make_session(
                tiny_tpch_db, Q6, jobs=jobs, budget_cells=10**9
            )
            minimize(session)
            budget = session.budget
            cells, invocations = budget.cells, budget.invocations
            with session.module("filters"):
                session.scheduler.map([1, 2, 3, 4], task)
            charged[jobs] = (
                budget.cells - cells,
                budget.invocations - invocations,
            )
            session.close()
        assert charged[1] == charged[4]
        assert charged[1][0] > 0

        session = make_session(tiny_tpch_db, Q6, jobs=4)
        minimize(session)
        session.budget = ResourceBudget(BudgetSpec(max_cells=1))
        session.silo.budget = session.budget
        with session.module("filters"):
            with pytest.raises(BudgetExhausted):
                session.scheduler.map([1, 2, 3, 4], update_then_run)
        assert session.budget.invocations == 0
        assert session.stats.module("filters").invocations == 0
        session.close()


@pytest.fixture(scope="module")
def q3_db():
    return tpch.build_database(scale=0.001, seed=7)


class TestForkParity:
    def test_retry_metrics_and_invocation_spans_match_jobs1(self, q3_db):
        """Retries, the ``retries_total`` metric and the invocation span tree
        are the same at jobs 1 and 4, and a parallel invocation's engine
        queries nest under its span."""
        observed = {}
        for jobs in (1, 4):
            registry = MetricsRegistry()
            tracer = Tracer(metrics=registry)
            outcome = UnmasqueExtractor(
                q3_db,
                FaultyExecutable(
                    SQLExecutable(Q3, name="parity"),
                    FAULT_PROFILES["transient"],
                ),
                ExtractionConfig(
                    run_checker=False,
                    jobs=jobs,
                    retry_base_delay=0.0,
                    retry_max_delay=0.0,
                ),
                tracer=tracer,
            ).extract()
            assert outcome.stats.retries > 0
            assert (
                registry.snapshot()["retries_total"]["value"]
                == outcome.stats.retries
            )
            invocations = [s for s in tracer.spans if s.kind == "invocation"]
            query_parents = {
                s.parent_id for s in tracer.spans if s.kind == "query"
            }
            parallel = [
                s
                for s in invocations
                if s.tags.get("parallel")
                and s.tags.get("invocation_cache") != "hit"
            ]
            assert all(s.span_id in query_parents for s in parallel)
            observed[jobs] = (len(invocations), len(parallel) > 0)
        assert observed[1][0] == observed[4][0]
        assert observed[4][1]
