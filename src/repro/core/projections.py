"""Projection extraction (paper §4.5): dependency lists + function identity.

Every output column is treated as an unknown multilinear scalar function of
base columns.  Working on the single-row ``D^1`` (where every aggregate
collapses to its argument and count() to 1):

1. **Dependency list identification** — each mutation unit (a join clique
   moves as one unit to keep the SPJ core satisfied; every other column moves
   alone) is flipped to fresh s-values; output columns that change depend on
   it.  A second, context-jittered attempt guards against coincidental
   cancellations (the paper's ``A = -b/c`` example).
2. **Function identification** — for ``k`` dependency units, the multilinear
   form has ``2^k`` coefficients over the product basis; probe assignments are
   drawn until the basis matrix is invertible and the system is solved
   exactly.  (The paper presents ``k ≤ 2``; this is the general-``k``
   extension its technical report defers.)

Outputs whose value never moves are left *unmapped* here — the aggregation
module later resolves them into ``count(*)`` or a constant projection.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from repro.core.model import OutputColumn, ScalarFunction
from repro.core.session import ExtractionSession
from repro.obs.provenance import PROBE
from repro.core.svalues import SValueError, SValueSource
from repro.errors import ExtractionError, UnsupportedQueryError
from repro.sgraph.schema_graph import ColumnNode

_MAX_SOLVE_ATTEMPTS = 40


class MutationUnit:
    """A set of columns mutated together: a join clique or a single column."""

    def __init__(self, columns: tuple[ColumnNode, ...]):
        self.columns = columns

    @property
    def representative(self) -> ColumnNode:
        return min(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<unit {self.representative}>"


def extract_projections(session: ExtractionSession, svalues: SValueSource) -> list[OutputColumn]:
    """Identify ``P̃_E`` (projections-before-aggregation-refinement)."""
    with session.module("projections"):
        baseline = session.run()
        if baseline.row_count != 1:
            raise ExtractionError(
                f"expected a single-row result on D^1, got {baseline.row_count} rows"
            )
        session.baseline_result = baseline
        names = _unique_names(baseline.columns)

        units = _mutation_units(session)
        # Dependency probing mutates disjoint units against the same D^1
        # baseline, so the per-unit checks are independent and fan out across
        # the probe scheduler.  The s-value source is prewarmed first: its
        # caches make the worker-thread lookups read-only (and it is a pure
        # function of the filter set, so prewarming changes no outcome).
        # Function identification below stays sequential — it consumes the
        # session RNG, whose draw order is part of the determinism contract.
        if session.scheduler.parallel:
            _prewarm_svalues(session, svalues, units)
        changed_per_unit = session.scheduler.map(
            units,
            lambda ctx, unit: _dependency_probe(ctx, svalues, unit, baseline),
        )
        deps_per_output: list[list[MutationUnit]] = [[] for _ in names]
        for unit, changed in zip(units, changed_per_unit):
            for output_index in changed:
                deps_per_output[output_index].append(unit)

        provenance = session.provenance
        outputs: list[OutputColumn] = []
        for position, name in enumerate(names):
            deps = deps_per_output[position]
            before = len(provenance.events)
            if not deps:
                function = None  # unmapped: count(*) or constant, resolved later
            else:
                function = _identify_function(
                    session, svalues, deps, position, baseline
                )
            output = OutputColumn(name=name, position=position, function=function)
            outputs.append(output)
            if provenance.enabled and function is not None:
                seqs = _probe_seqs(provenance, before)
                provenance.refine(
                    "select",
                    output.select_sql(),
                    "projections",
                    detail=(
                        f"{len(deps)} dependency unit(s); function solved "
                        f"with {len(seqs)} probe(s)"
                    ),
                    key=("select", position),
                    claim=False,
                    extra_evidence=seqs,
                )
        session.query.outputs = outputs
        return outputs


def _probe_seqs(provenance, start: int) -> tuple[int, ...]:
    """Sequence numbers of the probes recorded since event index ``start``."""
    return tuple(
        event.seq
        for event in provenance.events[start:]
        if event.kind == PROBE
    )


def _dependency_probe(
    session: ExtractionSession,
    svalues: SValueSource,
    unit: MutationUnit,
    baseline,
) -> set[int]:
    """One unit's dependency check, with its probes attributed per output.

    The refine events accumulate under ``("select", position)`` so the later
    function-identification and aggregation-refinement stages inherit this
    unit's probes into the final select clause's evidence chain.  Runs inside
    a scheduler task: each context's recorder sees exactly this unit's probes.
    """
    provenance = session.provenance
    before = len(provenance.events)
    changed = _unit_affects(session, svalues, unit, baseline)
    if provenance.enabled and changed:
        seqs = _probe_seqs(provenance, before)
        for index in sorted(changed):
            provenance.refine(
                "select",
                f"output #{index}",
                "projections",
                detail=f"mutating {unit.representative} moved output {index}",
                key=("select", index),
                claim=False,
                extra_evidence=seqs,
            )
    return changed


def _unique_names(names: list[str]) -> list[str]:
    seen: dict[str, int] = {}
    result = []
    for raw in names:
        name = "".join(ch if (ch.isalnum() or ch == "_") else "" for ch in raw or "")
        if not name or not (name[0].isalpha() or name[0] == "_"):
            name = f"col_{name}" if name else "column"
        if name in seen:
            seen[name] += 1
            result.append(f"{name}_{seen[name]}")
        else:
            seen[name] = 1
            result.append(name)
    return result


def _mutation_units(session: ExtractionSession) -> list[MutationUnit]:
    units: list[MutationUnit] = []
    clique_members: set[ColumnNode] = set()
    for clique in session.query.join_cliques:
        units.append(MutationUnit(tuple(clique.sorted_columns())))
        clique_members.update(clique.columns)
    for table in session.query.tables:
        for column in session.table_columns(table):
            if column not in clique_members:
                units.append(MutationUnit((column,)))
    return units


def _prewarm_svalues(
    session: ExtractionSession, svalues: SValueSource, units: list[MutationUnit]
) -> None:
    """Populate the s-value caches for every column a parallel dependency
    probe may touch, replicating the exact lookups :func:`_fresh_values` and
    :func:`_jitter_context` will make so those become pure cache hits."""
    columns = {unit.representative for unit in units}
    for table in session.query.tables:
        columns.update(
            column
            for column in session.nonkey_columns(table)
            if session.column_type(column).is_numeric
        )
    for column in sorted(columns):
        if svalues.capacity(column) < 2:
            continue
        try:
            svalues.distinct(column, 6)
        except SValueError:
            svalues.distinct(column, svalues.capacity(column))


def _fresh_values(
    session: ExtractionSession, svalues: SValueSource, unit: MutationUnit, avoid: set
) -> dict[ColumnNode, object] | None:
    """A consistent fresh assignment for the unit, avoiding given values."""
    representative = unit.representative
    try:
        candidates = svalues.distinct(representative, 6)
    except SValueError:
        candidates = svalues.distinct(
            representative, svalues.capacity(representative)
        )
    for value in candidates:
        if value not in avoid:
            return {column: value for column in unit.columns}
    return None


def _run_with(
    session: ExtractionSession, assignment: dict[ColumnNode, object]
):
    by_table: dict[str, dict[str, object]] = {}
    for column, value in assignment.items():
        by_table.setdefault(column.table, {})[column.column] = value
    rows: dict[str, list[tuple]] = {}
    for table, mutations in by_table.items():
        schema = session.silo.schema(table)
        row = list(session.d1[table])
        for name, value in mutations.items():
            row[schema.column_index(name)] = value
        rows[table] = [tuple(row)]
    return session.run_on(rows)


def _unit_affects(
    session: ExtractionSession,
    svalues: SValueSource,
    unit: MutationUnit,
    baseline,
) -> set[int]:
    """Output positions affected by mutating this unit (two-attempt guard)."""
    representative = unit.representative
    if svalues.capacity(representative) < 2:
        return set()  # equality-pinned columns cannot be probed (nor grouped)
    current = session.d1_value(representative)

    changed: set[int] = set()
    # Attempt 1: flip the unit alone.
    assignment = _fresh_values(session, svalues, unit, {current})
    if assignment is not None:
        result = _run_with(session, assignment)
        changed = _diff_outputs(baseline.first_row(), result)
        if changed:
            return changed
        # Attempt 2: flip to yet another value (coincidence guard), with the
        # rest of the row jittered to break multiplicative cancellations.
        jitter = _jitter_context(session, svalues, unit)
        base2 = _run_with(session, jitter)
        assignment2 = _fresh_values(
            session, svalues, unit, {current, next(iter(assignment.values()))}
        )
        if assignment2 is not None and base2.row_count == 1:
            combined = dict(jitter)
            combined.update(assignment2)
            result2 = _run_with(session, combined)
            changed = _diff_outputs(base2.first_row(), result2)
    return changed


def _jitter_context(
    session: ExtractionSession, svalues: SValueSource, unit: MutationUnit
) -> dict[ColumnNode, object]:
    """Fresh s-values for the numeric non-key columns outside the unit."""
    jitter: dict[ColumnNode, object] = {}
    unit_columns = set(unit.columns)
    for table in session.query.tables:
        for column in session.nonkey_columns(table):
            if column in unit_columns:
                continue
            if not session.column_type(column).is_numeric:
                continue
            if svalues.capacity(column) < 2:
                continue
            current = session.d1_value(column)
            fresh = _fresh_values(session, svalues, MutationUnit((column,)), {current})
            if fresh:
                jitter.update(fresh)
    return jitter


def _diff_outputs(baseline_row: tuple, result) -> set[int]:
    if result.row_count != 1:
        return set()  # a broken probe (empty result) proves nothing
    row = result.first_row()
    return {
        i
        for i, (before, after) in enumerate(zip(baseline_row, row))
        if not _values_equal(before, after)
    }


def _values_equal(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
    return a == b


# --- function identification -------------------------------------------------


def _identify_function(
    session: ExtractionSession,
    svalues: SValueSource,
    deps: list[MutationUnit],
    output_index: int,
    baseline,
) -> ScalarFunction:
    representatives = [unit.representative for unit in deps]
    dep_types = [session.column_type(rep) for rep in representatives]

    if any(t.is_textual or t.is_temporal for t in dep_types):
        if len(deps) > 1:
            raise UnsupportedQueryError(
                "non-numeric columns may appear only in identity projections"
            )
        return _verify_identity(session, svalues, deps[0], output_index, baseline)

    return _solve_multilinear(session, svalues, deps, output_index)


def _verify_identity(
    session: ExtractionSession,
    svalues: SValueSource,
    unit: MutationUnit,
    output_index: int,
    baseline,
) -> ScalarFunction:
    """Confirm a textual/temporal output is a straight column projection."""
    representative = unit.representative
    if baseline.first_row()[output_index] != session.d1_value(representative):
        raise UnsupportedQueryError(
            f"output {output_index} depends on {representative} but is not an "
            "identity projection (non-numeric functions are outside EQC)"
        )
    probe = _fresh_values(session, svalues, unit, {session.d1_value(representative)})
    if probe is not None:
        result = _run_with(session, probe)
        if result.row_count == 1:
            expected = next(iter(probe.values()))
            if result.first_row()[output_index] != expected:
                raise UnsupportedQueryError(
                    f"output {output_index} is a non-identity function of "
                    f"{representative}"
                )
    return ScalarFunction.identity(representative)


def _solve_multilinear(
    session: ExtractionSession,
    svalues: SValueSource,
    deps: list[MutationUnit],
    output_index: int,
) -> ScalarFunction:
    """Solve for the 2^k multilinear coefficients via independent probes."""
    k = len(deps)
    subsets = [
        tuple(sorted(s))
        for r in range(k + 1)
        for s in itertools.combinations(range(k), r)
    ]
    needed = len(subsets)

    value_pools = []
    for unit in deps:
        pool = svalues.distinct(
            unit.representative, min(max(needed + 2, 4), svalues.capacity(unit.representative))
        )
        value_pools.append(pool)

    rows: list[list[float]] = []
    rhs: list[float] = []
    attempts = 0
    while len(rows) < needed and attempts < _MAX_SOLVE_ATTEMPTS:
        attempts += 1
        assignment_values = [session.rng.choice(pool) for pool in value_pools]
        basis_row = [
            float(np.prod([assignment_values[i] for i in subset])) if subset else 1.0
            for subset in subsets
        ]
        candidate = rows + [basis_row]
        if np.linalg.matrix_rank(np.array(candidate)) < len(candidate):
            continue
        assignment: dict[ColumnNode, object] = {}
        for unit, value in zip(deps, assignment_values):
            for column in unit.columns:
                assignment[column] = value
        result = _run_with(session, assignment)
        if result.row_count != 1:
            continue
        output_value = result.first_row()[output_index]
        if not isinstance(output_value, (int, float)):
            raise UnsupportedQueryError(
                f"output {output_index} mixes numeric dependencies with a "
                "non-numeric value"
            )
        rows.append(basis_row)
        rhs.append(float(output_value))

    if len(rows) < needed:
        raise ExtractionError(
            f"could not assemble {needed} independent probes for output "
            f"{output_index} (dependencies: {[u.representative for u in deps]})"
        )

    solution = np.linalg.solve(np.array(rows), np.array(rhs))
    coeffs = {subset: float(c) for subset, c in zip(subsets, solution)}
    representatives = [unit.representative for unit in deps]
    return ScalarFunction.from_solution(representatives, coeffs)
