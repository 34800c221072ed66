"""Row storage for the in-memory engine.

A table is a list of value tuples in schema column order.  The store favours
simplicity and predictable semantics over raw speed — the extraction pipeline
operates almost exclusively on single-digit-row databases after minimization,
and the minimizer itself only needs cheap slicing/sampling of row lists.

Snapshot support is copy-on-write: :meth:`TableData.share_rows` hands out the
internal row list and marks it *shared*; the next in-place mutation copies the
list first, so the shared reference stays frozen.  Most mutators already
rebind ``_rows`` to a freshly built list, which makes sharing nearly free —
the extraction pipeline takes a snapshot around every invocation.

Every stored row list is a :class:`RowList`, which caches its content digest
(see :func:`rows_digest`).  A digest is valid only while its list is frozen:
in-place appends clear it and every rebinding mutator installs a fresh list
without one.  Snapshots share list objects, so they carry the digests for
free, and a database fingerprint costs O(tables + rows not yet digested).
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Iterable, Iterator, Sequence

from repro.engine.catalog import TableSchema
from repro.errors import TypeMismatchError


class RowList(list):
    """A table's row list with a lazily cached content digest."""

    __slots__ = ("digest",)


def rows_digest(rows: RowList) -> bytes:
    """sha256 over the rows' reprs, in order; cached on ``rows``."""
    digest = getattr(rows, "digest", None)
    if digest is None:
        hasher = hashlib.sha256()
        for row in rows:
            hasher.update(repr(row).encode())
            hasher.update(b"\n")
        digest = rows.digest = hasher.digest()
    return digest


class TableData:
    """Rows of a single table, validated against its schema."""

    def __init__(self, schema: TableSchema, rows: Iterable[Sequence] = ()):
        self.schema = schema
        self._rows = RowList()
        #: True while ``_rows`` is also referenced by a snapshot and must not
        #: be mutated in place (copy-on-write)
        self._shared = False
        self.extend(rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    @property
    def rows(self) -> list[tuple]:
        """The stored rows (direct reference; callers must not mutate)."""
        return self._rows

    # -- copy-on-write snapshot hooks -------------------------------------

    def share_rows(self) -> list[tuple]:
        """The internal row list, frozen for snapshot use.

        The list is marked shared: the next in-place mutation copies it
        first, so the returned reference keeps the snapshot-time contents.
        """
        self._shared = True
        return self._rows

    def adopt_rows(self, rows: list[tuple]) -> None:
        """Install a snapshot's row list (restore path).

        The list stays owned by the snapshot too, so it is adopted in shared
        mode — the same snapshot token can be restored any number of times.
        """
        self._rows = rows
        self._shared = True

    def _mutable_rows(self) -> list[tuple]:
        if self._shared:
            self._rows = RowList(self._rows)
            self._shared = False
        else:
            self._rows.digest = None
        return self._rows

    def _rebind(self, rows: Iterable[tuple]) -> None:
        self._rows = RowList(rows)
        self._shared = False

    # -- mutation ----------------------------------------------------------

    def coerce_row(self, row: Sequence) -> tuple:
        if len(row) != len(self.schema.columns):
            raise TypeMismatchError(
                f"table {self.schema.name!r} expects {len(self.schema.columns)} values, "
                f"got {len(row)}"
            )
        return tuple(
            col.type.coerce(value) for col, value in zip(self.schema.columns, row)
        )

    def insert(self, row: Sequence) -> None:
        self._mutable_rows().append(self.coerce_row(row))

    def extend(self, rows: Iterable[Sequence]) -> None:
        self._mutable_rows().extend(map(self.coerce_row, rows))

    def clear(self) -> None:
        self._rebind([])

    def replace_all(self, rows: Iterable[Sequence]) -> None:
        self._rebind(map(self.coerce_row, rows))

    def install(self, rows: Iterable[tuple]) -> None:
        """Adopt rows that are already canonical, without coercion.

        Only for rows the engine itself produced (snapshot slices, samples,
        minimizer halves); external values go through :meth:`replace_all`.
        """
        self._rebind(rows)

    def delete_where(self, predicate: Callable[[tuple], bool]) -> int:
        kept = [row for row in self._rows if not predicate(row)]
        deleted = len(self._rows) - len(kept)
        self._rebind(kept)
        return deleted

    def update_where(
        self,
        predicate: Callable[[tuple], bool],
        updater: Callable[[tuple], Sequence],
    ) -> int:
        updated = 0
        new_rows = []
        for row in self._rows:
            if predicate(row):
                new_rows.append(self.coerce_row(updater(row)))
                updated += 1
            else:
                new_rows.append(row)
        self._rebind(new_rows)
        return updated

    def set_column(self, column: str, value) -> None:
        """Assign ``value`` to ``column`` in every row (bulk mutation helper)."""
        idx = self.schema.column_index(column)
        coerced = self.schema.column(column).type.coerce(value)
        self._rebind(row[:idx] + (coerced,) + row[idx + 1 :] for row in self._rows)

    def map_column(self, column: str, fn: Callable) -> None:
        """Apply ``fn`` to ``column`` in every row (e.g. the Negate mutation)."""
        idx = self.schema.column_index(column)
        col_type = self.schema.column(column).type
        self._rebind(
            row[:idx] + (col_type.coerce(fn(row[idx])),) + row[idx + 1 :]
            for row in self._rows
        )

    # -- read helpers --------------------------------------------------------

    def halves(self) -> tuple[list[tuple], list[tuple]]:
        """Split the rows roughly into two halves (minimizer primitive)."""
        mid = (len(self._rows) + 1) // 2
        return self._rows[:mid], self._rows[mid:]

    def sample(self, count: int, rng: random.Random) -> list[tuple]:
        """A uniform random sample of ``count`` rows (without replacement)."""
        if count >= len(self._rows):
            return list(self._rows)
        return rng.sample(self._rows, count)

    def copy(self) -> "TableData":
        clone = TableData(self.schema)
        clone._rows = RowList(self._rows)
        return clone
