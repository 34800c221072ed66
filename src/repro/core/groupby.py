"""Group-by extraction (paper §5.1).

For each candidate attribute a tiny synthetic database is generated whose
(invisible) intermediate SPJ result holds exactly three rows that agree on
every column except the attribute under test, which carries two distinct
values split 2/1.  A final result of two rows then proves the attribute is a
grouping column.

* Case 1 — attribute outside the join graph: its table gets three rows with
  values ``(p, p, q)``; every other table one row.
* Case 2 — attribute inside a join clique: its table gets three rows with key
  values ``(1, 1, 2)``; each table holding a clique-mate gets two rows keyed
  ``(1, 2)``; the rest one row.

Columns pinned by equality filters are skipped (grouping on them is
superfluous), and one clique member stands for the whole clique (its members
are interchangeable under the equi-join).  If no grouping column surfaces, a
two-row all-distinct database distinguishes an ungrouped aggregation (one
result row) from a plain SPJ query (two rows).
"""

from __future__ import annotations

from repro.core.dgen import DgenBuilder
from repro.core.session import ExtractionSession
from repro.core.svalues import SValueError, SValueSource
from repro.sgraph.schema_graph import ColumnNode


def extract_group_by(session: ExtractionSession, svalues: SValueSource) -> list[ColumnNode]:
    """Identify ``G_E`` and the ungrouped-aggregation flag."""
    with session.module("group_by"):
        builder = DgenBuilder(session, svalues)
        tested_cliques: set = set()

        # Each candidate's probe database is a pure function of the schema,
        # the join cliques, and the (cached) s-values, and its two-row/one-row
        # outcome decides membership for that candidate alone — so the probe
        # databases are materialized up front in discovery order and the runs
        # fan out across the probe scheduler.
        probes: list[tuple[ColumnNode, dict[str, list[tuple]]]] = []
        for table in session.query.tables:
            for column in session.table_columns(table):
                clique = session.query.clique_of(column)
                if clique is not None:
                    if clique in tested_cliques:
                        continue
                    tested_cliques.add(clique)
                    probes.append(_clique_probe(builder, clique))
                    continue
                if svalues.is_equality_constrained(column):
                    continue  # superfluous in G_E
                probe = _case1_probe(svalues, builder, column)
                if probe is not None:
                    probes.append(probe)

        row_counts = session.scheduler.map(probes, _membership_probe)
        group_by = [
            column
            for (column, _), count in zip(probes, row_counts)
            if count == 2
        ]

        session.query.group_by = sorted(group_by)
        if not group_by:
            session.query.ungrouped_aggregation = _is_ungrouped_aggregation(
                session, svalues, builder
            )
            if session.provenance.enabled:
                session.provenance.observation(
                    "group_by",
                    detail=(
                        "two-row all-distinct probe: "
                        + (
                            "one result row — ungrouped aggregation"
                            if session.query.ungrouped_aggregation
                            else "two result rows — plain SPJ query"
                        )
                    ),
                )
        return session.query.group_by


def _membership_probe(session: ExtractionSession, probe) -> int:
    """One candidate's 2/1-split probe, with its accept/reject evidence.

    The decision is made (and recorded) inside the task so each scheduler
    context's recorder claims exactly its own probe — sequentially, the
    session recorder behaves identically.
    """
    column, rows = probe
    count = session.run_on(rows).row_count
    provenance = session.provenance
    if provenance.enabled:
        target = f"{column.table}.{column.column}"
        if count == 2:
            provenance.accept(
                "group_by",
                target,
                "group_by",
                detail="2/1-split probe returned two result rows",
            )
        else:
            provenance.reject(
                "group_by",
                target,
                "group_by",
                detail=f"2/1-split probe returned {count} result row(s)",
            )
    return count


def _case1_probe(
    svalues: SValueSource, builder: DgenBuilder, column: ColumnNode
) -> tuple[ColumnNode, dict[str, list[tuple]]] | None:
    """Case 1 probe database, or None for an effectively pinned column."""
    try:
        p, q = svalues.pair(column)
    except SValueError:
        return None  # effectively equality-pinned: superfluous in G_E
    rows = builder.build(
        row_counts={column.table: 3},
        overrides={column: [p, p, q]},
    )
    return column, rows


def _clique_probe(
    builder: DgenBuilder, clique
) -> tuple[ColumnNode, dict[str, list[tuple]]]:
    """Case 2 probe database for the clique's representative."""
    column = clique.representative()
    overrides: dict[ColumnNode, list] = {column: [1, 1, 2]}
    row_counts: dict[str, int] = {column.table: 3}
    for table, member in builder.connected_tables(column).items():
        row_counts[table] = 2
        overrides[member] = [1, 2]
    # Clique-mates sharing the probe table (if any) must mirror the values.
    for member in clique.sorted_columns():
        if member != column and member.table == column.table:
            overrides[member] = [1, 1, 2]
    return column, builder.build(row_counts, overrides)


def _is_ungrouped_aggregation(
    session: ExtractionSession, svalues: SValueSource, builder: DgenBuilder
) -> bool:
    """Two-row probe: one result row ⇒ aggregation without grouping."""
    overrides: dict[ColumnNode, list] = {}
    row_counts = {table: 2 for table in session.query.tables}
    for clique in session.query.join_cliques:
        for member in clique.sorted_columns():
            overrides[member] = [1, 2]
    for table in session.query.tables:
        for column in session.table_columns(table):
            if column in overrides:
                continue
            try:
                p, q = svalues.pair(column)
                overrides[column] = [p, q]
            except SValueError:
                overrides[column] = [svalues.value(column)] * 2
    result = builder.run(builder.build(row_counts, overrides))
    return result.row_count == 1
