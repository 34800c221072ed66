"""From-clause identification (paper §4.1).

For each base table ``t`` of the database: temporarily rename it, run the
application, and watch for an immediate "relation does not exist" error — if
one surfaces, ``t`` is referenced by the hidden query.

The engine raises that error at plan time, before any row is read, so the
per-table probes run on an *emptied* silo: each costs a plan, not a scan of
D_I.  The tables whose probe did not raise are then confirmed with a single
run on D_I that renames all of them at once; only if that run does hit a
missing table (an application whose table reads depend on the data, e.g.
"scan B only if A returned rows") are they probed one by one on D_I.  Runs
that do not error are cut short by a small timeout, which together keeps the
schema-scaling experiment (§6.2, +1000 tables) below ten seconds.

An application that fails on the empty instance for another reason (an
engine error, or an exception of its own such as ``IndexError``) gives no
answer for that table; the table goes to the D_I confirmation.  Errors of
this package that are not engine errors — budgets, pauses, quarantine,
storage, exhausted retries — propagate unchanged.

For imperative applications, whose host language may swallow errors, an
alternative *trace* strategy observes the DB-side access log instead (the
engine-side analogue of the technical report's instrumentation approach).
"""

from __future__ import annotations

from repro.core.session import ExtractionSession
from repro.errors import (
    DatabaseError,
    ExecutableTimeoutError,
    ExtractionError,
    ReproError,
    UndefinedTableError,
)

_PROBE_NAME = "unmasque_probe_temp"


def extract_tables(session: ExtractionSession) -> list[str]:
    """Identify ``T_E`` and record it on the session's query."""
    with session.module("from_clause"):
        strategy = session.config.from_clause_strategy
        if strategy == "rename":
            tables = _extract_by_rename(session)
        elif strategy == "trace":
            tables = _extract_by_trace(session)
        else:
            raise ExtractionError(f"unknown from-clause strategy {strategy!r}")
        if not tables:
            raise ExtractionError("no tables identified — application may not query this database")
        session.query.tables = tables
        return tables


#: provenance detail of an emptied-silo probe, by its verdict
_EMPTY_DETAILS = {
    True: "rename probe raised UndefinedTableError",
    False: "rename probe on the emptied silo ran without referencing the table",
    None: "rename probe on the emptied silo gave no answer (the application failed)",
}


def _rename_probe(session: ExtractionSession, names: list[str], tolerant=False):
    """Run the application with ``names`` renamed away.

    True: the run hit a missing table.  False: it ran, or ran past the
    timeout, without one.  None (``tolerant`` only): it failed otherwise —
    an engine error or an exception of the application's own — and so gave
    no answer.  Other errors of this package always propagate.
    """
    silo = session.silo
    aliases = [f"{_PROBE_NAME}_{index}" for index in range(len(names))]
    for name, alias in zip(names, aliases):
        silo.rename_table(name, alias)
    try:
        session.run(timeout=session.config.from_clause_timeout)
    except UndefinedTableError:
        return True
    except ExecutableTimeoutError:
        return False  # ran past the deadline without erroring
    except Exception as error:
        if tolerant and (
            isinstance(error, DatabaseError) or not isinstance(error, ReproError)
        ):
            return None
        raise
    finally:
        for name, alias in zip(names, aliases):
            silo.rename_table(alias, name)
    return False


def _record(session, name: str, referenced, detail: str, evidence=()) -> None:
    provenance = session.provenance
    if provenance.enabled:
        decide = provenance.accept if referenced else provenance.reject
        decide(
            "from", name, "from_clause",
            detail=detail, key=name, extra_evidence=evidence,
        )


def _extract_by_rename(session: ExtractionSession) -> list[str]:
    silo = session.silo
    tables: list[str] = []
    rejected: list[str] = []
    with silo.sandbox():
        names = [name.lower() for name in silo.table_names]
        for name in names:
            silo.install_rows(name, [])
        for name in names:
            verdict = _rename_probe(session, [name], tolerant=True)
            (tables if verdict else rejected).append(name)
            _record(session, name, verdict, _EMPTY_DETAILS[verdict])
    if not rejected:
        return sorted(tables)

    # One D_I run with every rejected table renamed away confirms them all.
    seen = len(session.provenance.module_probes("from_clause"))
    confirmed = _rename_probe(session, rejected, tolerant=True) is False
    confirmation = session.provenance.module_probes("from_clause")[seen:]
    for name in rejected:
        if confirmed:
            detail = (
                f"confirmed on D_I with all {len(rejected)} rejected tables "
                "renamed at once"
            )
            _record(session, name, False, detail, confirmation)
            continue
        # Data-dependent table reads: one D_I probe per table.
        referenced = _rename_probe(session, [name])
        if referenced:
            tables.append(name)
        detail = (
            "D_I rename probe raised UndefinedTableError"
            if referenced
            else "D_I rename probe ran without referencing the table"
        )
        _record(session, name, referenced, detail, confirmation)
    return sorted(tables)


def _extract_by_trace(session: ExtractionSession) -> list[str]:
    session.silo.access_log.clear()
    session.silo.trace_access = True
    try:
        session.run()
    finally:
        session.silo.trace_access = False
    tables = sorted(set(session.silo.access_log))
    provenance = session.provenance
    if provenance.enabled:
        for table in tables:
            provenance.accept(
                "from",
                table,
                "from_clause",
                detail="table appeared in the traced access log",
                claim=False,
                include_module_probes=True,
            )
    return tables
