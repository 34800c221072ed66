"""Soundness of the cached per-table content digests.

``Database.fingerprint()`` hashes per-table digests that are cached on the
row lists (see :mod:`repro.engine.storage`).  These tests drive seeded random
sequences of every mutator — Python API, SQL DML, DDL — interleaved with
snapshot, restore, ``from_snapshot`` and ``clone``, and after every step
compare the fingerprint with a reference recomputed from scratch that never
reads a cached digest.  A mutator that forgets to invalidate a digest makes
the two disagree.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.engine import Column, Database, IntegerType, TableSchema, VarcharType
from repro.engine.types import NumericType


def reference_fingerprint(db: Database) -> str:
    """The fingerprint's definition, recomputed without any cache.

    Reads rows through :attr:`TableData.rows`, which (unlike a snapshot)
    does not mark them shared, so the read cannot change copy-on-write
    behaviour under test.
    """
    tables = {name.lower(): db.table(name) for name in db.table_names}
    digest = hashlib.sha256()
    for name in sorted(tables):
        data = tables[name]
        digest.update(name.encode())
        for column in data.schema.columns:
            digest.update(f"|{column.name}:{column.type!r}".encode())
        digest.update(b"#")
        rows = hashlib.sha256()
        for row in data.rows:
            rows.update(repr(row).encode() + b"\n")
        digest.update(rows.digest())
        digest.update(b"@")
    return digest.hexdigest()


def _schema(name: str) -> TableSchema:
    return TableSchema(
        name=name,
        columns=(
            Column("k", IntegerType()),
            Column("v", VarcharType(8)),
            Column("n", NumericType(scale=2)),
        ),
    )


def _row(rng: random.Random) -> tuple:
    return (rng.randint(0, 9), rng.choice(["a", "b", "c", None]), rng.randint(0, 99) / 4)


class _Walk:
    """One seeded random walk over the mutator surface."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.db = Database([_schema("t0"), _schema("t1")])
        self.tokens = []
        self.fresh = 2

    def table(self) -> str:
        return self.rng.choice(self.db.table_names)

    def rows(self) -> list[tuple]:
        return [_row(self.rng) for _ in range(self.rng.randint(0, 4))]

    # -- DML (Python API) ---------------------------------------------------

    def insert(self):
        self.db.insert(self.table(), [_row(self.rng)])

    def extend(self):
        self.db.table(self.table()).extend(self.rows())

    def replace_rows(self):
        self.db.replace_rows(self.table(), self.rows())

    def install_rows(self):
        # canonical rows: copies of rows the engine already holds
        table = self.table()
        source = self.db.rows(table)
        self.rng.shuffle(source)
        self.db.install_rows(table, source[: self.rng.randint(0, len(source))])

    def clear_table(self):
        self.db.clear_table(self.table())

    def set_column(self):
        self.db.table(self.table()).set_column("v", self.rng.choice(["x", None]))

    def map_column(self):
        self.db.table(self.table()).map_column("k", lambda k: None if k is None else k + 1)

    # -- DML (SQL) ------------------------------------------------------------

    def sql_insert(self):
        k, v, n = _row(self.rng)
        v = "null" if v is None else f"'{v}'"
        self.db.execute(f"insert into {self.table()} values ({k}, {v}, {n})")

    def sql_update(self):
        self.db.execute(
            f"update {self.table()} set n = {self.rng.randint(0, 9)} "
            f"where k < {self.rng.randint(0, 9)}"
        )

    def sql_delete(self):
        self.db.execute(f"delete from {self.table()} where k = {self.rng.randint(0, 9)}")

    # -- DDL --------------------------------------------------------------------

    def rename(self):
        self.fresh += 1
        self.db.rename_table(self.table(), f"t{self.fresh}")

    def create(self):
        self.fresh += 1
        self.db.create_table(_schema(f"t{self.fresh}"))

    def drop(self):
        if len(self.db.table_names) > 1:
            self.db.drop_table(self.table())

    # -- sandbox / lineage -------------------------------------------------------

    def snapshot(self):
        self.tokens.append((self.db.snapshot(), self.db.fingerprint()))

    def restore(self):
        if self.tokens:
            token, expected = self.rng.choice(self.tokens)
            self.db.restore(token)
            assert self.db.fingerprint() == expected

    def from_snapshot(self):
        if self.tokens:
            token, expected = self.rng.choice(self.tokens)
            self.db = Database.from_snapshot(token)
            assert self.db.fingerprint() == expected

    def clone(self):
        self.db = self.db.clone()

    STEPS = (
        "insert", "extend", "replace_rows", "install_rows", "clear_table",
        "set_column", "map_column", "sql_insert", "sql_update", "sql_delete",
        "rename", "create", "drop", "snapshot", "restore", "from_snapshot",
        "clone",
    )


@pytest.mark.parametrize("seed", range(40))
def test_fingerprint_matches_reference_after_every_mutation(seed):
    walk = _Walk(seed)
    for step in range(120):
        name = walk.rng.choice(_Walk.STEPS)
        getattr(walk, name)()
        assert walk.db.fingerprint() == reference_fingerprint(walk.db), (
            f"step {step}: {name}"
        )
        # frozen tokens keep their content and their digests
        for token, expected in walk.tokens:
            assert token.fingerprint() == expected


def test_every_mutator_is_exercised():
    steps = set()
    for seed in range(40):
        rng = random.Random(seed)
        steps.update(rng.choice(_Walk.STEPS) for _ in range(120))
    assert steps == set(_Walk.STEPS)


def test_equal_content_built_independently_has_equal_fingerprint():
    rows = [(1, "a", 0.5), (2, None, 1.25), (3, "c", 2.0)]
    by_insert = Database([_schema("t")])
    for row in rows:
        by_insert.insert("t", [row])
    by_replace = Database([_schema("t")])
    by_replace.replace_rows("t", rows)
    by_sql = Database([_schema("t")])
    by_sql.execute("insert into t values (1, 'a', 0.5), (2, null, 1.25), (3, 'c', 2)")
    by_install = Database([_schema("t")])
    by_install.install_rows("t", by_sql.rows("t"))
    # warm the caches on some of them before comparing
    by_insert.fingerprint()
    by_sql.snapshot().fingerprint()
    prints = {
        db.fingerprint() for db in (by_insert, by_replace, by_sql, by_install)
    }
    assert prints == {reference_fingerprint(by_replace)}


def test_row_order_swap_changes_fingerprint():
    db = Database([_schema("t")])
    db.replace_rows("t", [(1, "a", 0.5), (2, "b", 1.0)])
    before = db.fingerprint()
    db.install_rows("t", list(reversed(db.rows("t"))))
    assert db.fingerprint() != before
    db.install_rows("t", list(reversed(db.rows("t"))))
    assert db.fingerprint() == before


def test_undigested_rows_counts_only_unhashed_tables():
    db = Database([_schema("big"), _schema("small")])
    db.replace_rows("big", [(k, "a", 0.0) for k in range(50)])
    db.replace_rows("small", [(1, "a", 0.0)])
    assert db.undigested_rows() == 51
    db.fingerprint()
    assert db.undigested_rows() == 0
    db.insert("small", [(2, "b", 1.0)])
    assert db.undigested_rows() == 2


def test_replicas_hash_shared_lists_concurrently():
    """Probe replicas share snapshot row lists and may cache a digest on the
    same list from several threads at once; every thread must still see the
    reference fingerprint of its own state."""
    import sys
    import threading

    base = Database([_schema("big"), _schema("small")])
    base.replace_rows("big", [(k % 10, "a", k / 4) for k in range(2000)])
    token = base.snapshot()
    errors: list[str] = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(30):
            replica = Database.from_snapshot(token)
            replica.install_rows("small", [(rng.randint(0, 9), "b", 0.5)])
            if rng.random() < 0.5:
                replica.insert("big", [(1, "c", 1.0)])
            if replica.fingerprint() != reference_fingerprint(replica):
                errors.append(f"thread {seed}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert token.fingerprint() == reference_fingerprint(base)
