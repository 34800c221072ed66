"""Golden-corpus gate: pinned extracted SQL across workloads and ``--jobs``.

Every corpus entry is extracted twice — at ``jobs=1`` (the fully sequential
reference schedule) and ``jobs=4`` (parallel probe batches + speculative
minimizer chains) — and both extractions must be byte-identical to each
other *and* to the SQL pinned under ``tests/goldens/``.  This is the
enforcement point of the determinism contract (DESIGN.md §5.14): any change
to probe ordering, caching, or scheduling that alters the extracted SQL
shows up here as a diff against a committed file.

To re-pin after an intentional extractor change::

    PYTHONPATH=src python -m pytest tests/test_golden_corpus.py --update-goldens
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.apps import SQLExecutable
from repro.core import ExtractionConfig, UnmasqueExtractor
from repro.engine.storage import TableData

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: (workload, query name) — a cross-section of the bundled workloads: the
#: paper's running example, range/LIKE filters, multi-way joins, grouping,
#: ordering, and the snowflake schemas of JOB and TPC-DS.
CORPUS = [
    ("tpch", "Q3"),
    ("tpch", "Q6"),
    ("tpch", "Q12"),
    ("job", "JQ1"),
    ("job", "JQ4"),
    ("tpcds", "DS19"),
    ("tpcds", "DS98"),
]

JOBS_LEVELS = (1, 4)


@pytest.fixture(scope="module")
def corpus_dbs(tpch_db):
    from repro.datagen import imdb, tpcds

    return {
        "tpch": tpch_db,
        # same instances as the per-workload pipeline suites, so every corpus
        # query is known to have a populated initial result
        "job": imdb.build_database(movies=250, seed=5),
        "tpcds": tpcds.build_database(sales=3000, seed=3),
    }


def _queries(workload):
    from repro.workloads import job_queries, tpcds_queries, tpch_queries

    return {
        "tpch": tpch_queries,
        "job": job_queries,
        "tpcds": tpcds_queries,
    }[workload].QUERIES


@pytest.mark.parametrize(
    "workload,name", CORPUS, ids=[f"{w}-{n}" for w, n in CORPUS]
)
def test_golden_corpus_pinned_and_jobs_invariant(workload, name, corpus_dbs, request):
    db = corpus_dbs[workload]
    query = _queries(workload)[name]

    extracted: dict[int, str] = {}
    invocations: dict[int, int] = {}
    for jobs in JOBS_LEVELS:
        app = SQLExecutable(query.sql, name=f"golden-{name}")
        outcome = UnmasqueExtractor(
            db, app, ExtractionConfig(run_checker=False, jobs=jobs)
        ).extract()
        extracted[jobs] = outcome.sql
        invocations[jobs] = outcome.stats.total_invocations

    base = JOBS_LEVELS[0]
    for jobs in JOBS_LEVELS[1:]:
        assert extracted[jobs] == extracted[base], (
            f"extracted SQL for {name} differs between --jobs {base} and "
            f"--jobs {jobs}"
        )
        assert invocations[jobs] == invocations[base], (
            f"logical invocation count for {name} differs between "
            f"--jobs {base} and --jobs {jobs}"
        )

    golden_path = GOLDEN_DIR / f"{workload}_{name.lower()}.sql"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(extracted[base] + "\n", encoding="utf-8")
    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; generate it with "
        "pytest tests/test_golden_corpus.py --update-goldens"
    )
    pinned = golden_path.read_text(encoding="utf-8").rstrip("\n")
    assert extracted[base] == pinned, (
        f"extracted SQL for {name} no longer matches the pinned golden "
        f"{golden_path.name}; if the change is intentional re-pin with "
        "--update-goldens"
    )


@pytest.mark.parametrize(
    "workload,name", CORPUS, ids=[f"{w}-{n}" for w, n in CORPUS]
)
def test_trusted_installs_are_canonical(workload, name, corpus_dbs, monkeypatch):
    """Every row the pipeline installs without coercion is already canonical.

    ``TableData.install`` skips ``coerce_row``; it is patched here to record
    any row that coercion would change in value or in value type, so an
    external value routed past coercion fails the corpus.  The checker runs
    too, covering its restore loop.
    """
    original = TableData.install
    installed: list[int] = []
    violations: list[str] = []

    def checked_install(self, rows):
        rows = list(rows)
        for row in rows:
            coerced = self.coerce_row(row)
            if coerced != row or list(map(type, coerced)) != list(map(type, row)):
                violations.append(f"{self.schema.name}: {row!r} -> {coerced!r}")
        installed.append(len(rows))
        original(self, rows)

    monkeypatch.setattr(TableData, "install", checked_install)
    query = _queries(workload)[name]
    pinned = (GOLDEN_DIR / f"{workload}_{name.lower()}.sql").read_text(
        encoding="utf-8"
    ).rstrip("\n")
    for jobs in JOBS_LEVELS:
        app = SQLExecutable(query.sql, name=f"golden-{name}")
        outcome = UnmasqueExtractor(
            corpus_dbs[workload], app, ExtractionConfig(jobs=jobs)
        ).extract()
        assert outcome.sql == pinned
    assert installed, "no trusted install happened"
    assert violations == []
