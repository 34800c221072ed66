"""Correctness oracle for extracted SQL that does not trust the checker.

The hidden SQL and the extracted SQL both run in the standard library's
sqlite3 on copies of generated instances, and their result multisets are
compared with LIMIT stripped; the LIMIT values are compared separately
(with ORDER BY ties, two correct queries may return different top-k rows).
Neither the extraction pipeline nor the in-memory engine is involved in
producing the compared results.
"""

from __future__ import annotations

import datetime
import math
import re
import sqlite3

_LIMIT = re.compile(r"\s+limit\s+(\d+)\s*;?\s*$", re.IGNORECASE)
_DATE = re.compile(r"date\s*'([^']*)'", re.IGNORECASE)


def _encode(value):
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def split_limit(sql: str) -> tuple[str, int | None]:
    """``(sql without its trailing LIMIT, the LIMIT value or None)``."""
    sql = sql.strip()
    match = _LIMIT.search(sql)
    if match is None:
        return sql, None
    return sql[: match.start()], int(match.group(1))


def to_sqlite(sql: str) -> str:
    """Engine SQL as sqlite3 reads it: date literals become ISO strings,
    which compare in date order."""
    return _DATE.sub(r"'\1'", sql)


def load(db) -> sqlite3.Connection:
    """An in-memory sqlite3 copy of every table of the engine ``db``."""
    conn = sqlite3.connect(":memory:")
    for name in db.table_names:
        schema = db.schema(name)
        columns = ", ".join(f'"{column.name}"' for column in schema.columns)
        conn.execute(f"create table {name} ({columns})")
        placeholders = ", ".join("?" for _ in schema.columns)
        conn.executemany(
            f"insert into {name} values ({placeholders})",
            (tuple(_encode(value) for value in row) for row in db.rows(name)),
        )
    conn.commit()
    return conn


def _sort_key(row):
    # floats rounded only to order rows; equality is checked with a tolerance
    return repr(tuple(round(v, 4) if isinstance(v, float) else v for v in row))


def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return a is b
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)
    return a == b


def same_multiset(left: list, right: list) -> bool:
    if len(left) != len(right):
        return False
    left = sorted(left, key=_sort_key)
    right = sorted(right, key=_sort_key)
    return all(
        len(a) == len(b) and all(_same_value(x, y) for x, y in zip(a, b))
        for a, b in zip(left, right)
    )


def check(hidden: str, extracted: str, conns: list) -> str | None:
    """None when ``extracted`` matches ``hidden`` on every connection, else
    the reason it does not."""
    hidden_body, hidden_limit = split_limit(hidden)
    extracted_body, extracted_limit = split_limit(extracted)
    if hidden_limit != extracted_limit:
        return f"LIMIT {extracted_limit} differs from hidden LIMIT {hidden_limit}"
    for index, conn in enumerate(conns):
        expected = conn.execute(to_sqlite(hidden_body)).fetchall()
        try:
            got = conn.execute(to_sqlite(extracted_body)).fetchall()
        except sqlite3.Error as error:
            return f"extracted SQL fails in sqlite3: {error}"
        if not same_multiset(expected, got):
            return (
                f"result multiset differs on instance {index} "
                f"({len(got)} rows vs {len(expected)} expected)"
            )
    return None
