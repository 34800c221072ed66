"""Self-tests for the benchmark's own arithmetic and its oracle.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import threading

import pytest

import oracle
import spans
import summary


class FakeClock:
    """Returns the queued readings in order, one per call."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


# -- percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert summary.percentile(list(range(99)), 0.9) is None
    assert summary.samples_beyond(100, 0.9) == 10
    assert summary.percentile([float(i) for i in range(1, 101)], 0.9) == 90.0


def test_median_is_reportable_from_twenty_samples():
    assert summary.percentile([1.0] * 19, 0.5) is None
    assert summary.percentile([float(i) for i in range(1, 21)], 0.5) == 10.0


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    recorder = spans.Recorder(clock=FakeClock(0.0, 2.0, 5.0, 6.0, 7.0, 10.0))
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    totals = recorder.totals()
    assert totals["outer"] == {"calls": 1, "s": 10.0, "self_s": 6.0, "rows": 0}
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["s"] == pytest.approx(4.0)
    assert totals["inner"]["self_s"] == pytest.approx(4.0)


def test_self_time_ignores_spans_of_other_threads():
    # readings: main enters 0, worker enters 1, grandchild 2..4, worker exits
    # 9, main exits 10; the worker overlaps main but is not its child
    recorder = spans.Recorder(clock=FakeClock(0.0, 1.0, 2.0, 4.0, 9.0, 10.0))

    def worker():
        with recorder.span("worker"):
            with recorder.span("leaf"):
                pass

    with recorder.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    totals = recorder.totals()
    assert totals["main"]["self_s"] == 10.0
    assert totals["worker"]["self_s"] == 6.0
    assert totals["leaf"]["self_s"] == 2.0


def test_traced_wrappers_are_removed_afterwards():
    from repro.engine.database import Database
    from workloads import BenchApp

    originals = {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _ in spans._targets(BenchApp)
    }
    recorder = spans.Recorder()
    with spans.traced(recorder, BenchApp):
        assert Database.__dict__["execute"] is not originals[(Database, "execute")]
        db = Database()
        db.execute("create table t (a int)")
        db.replace_rows("t", iter([(1,), (2,)]))
        Database.from_snapshot(db.snapshot())
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original
    totals = recorder.totals()
    assert totals["engine.replace_rows"]["rows"] == 2
    assert totals["engine.from_snapshot"]["calls"] == 1
    # from_snapshot restores into the replica: a nested restore span
    assert totals["engine.restore"]["calls"] == 1


# -- native ratio --------------------------------------------------------------


def test_native_ratio_is_geometric_mean_of_median_ratios():
    extract = {"Q1": [2.0, 9.0, 4.0], "Q2": [16.0]}
    native = {"Q1": [1.0, 2.0, 3.0], "Q2": [1.0]}
    # medians: Q1 4/2 = 2, Q2 16/1 = 16; geometric mean sqrt(32)
    assert summary.native_ratio(extract, native) == pytest.approx(32 ** 0.5)


def test_normalisation_rescales_cpu_time_only():
    import run
    import speed

    # a factor whose effect on CPU time is exactly one half
    half = 0.5 ** (1 / speed.SENSITIVITY)
    # 5 s wall of which 1 s CPU: the 4 s blocked on the simulated round-trip
    # stay, the CPU second halves
    assert speed.normalized(5.0, 1.0, half) == pytest.approx(4.5)
    records = [
        {"query": "Q1", "seconds": 2.0, "cpu": 2.0, "factor": half},
        {"query": "Q1", "seconds": 4.0, "cpu": 4.0, "factor": half},
        {"query": "Q2", "seconds": 8.0, "cpu": 8.0, "factor": half},
    ]
    # medians 3 and 8, halved: geometric mean of 1.5 and 4
    assert summary.extract_norm_s(run.by_query(records, run.normalized)) == (
        pytest.approx(6 ** 0.5)
    )


def test_peak_rss_is_reset_before_the_measured_loop():
    import run

    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"x" * len(ballast[::4096])  # make every page resident
    del ballast
    high = run.peak_rss_mb()
    if not run.reset_peak_rss():
        pytest.skip("the resident-set high-water mark cannot be reset here")
    assert 0 < run.peak_rss_mb() < high - 32


def test_end_to_end_weighs_each_query_once():
    import run

    def record(query, seconds, native, invocations, physical):
        return {"query": query, "seconds": seconds, "cpu": seconds, "factor": 1.0,
                "native": native, "error": None, "invocations": invocations,
                "physical": physical}

    records = [
        record("Q1", 2.0, [0.5, 0.5], 10, 8),
        record("Q1", 2.0, [0.5], 10, 8),
        record("Q2", 8.0, [1.0], 30, 20),
    ]
    values = run.end_to_end(records, correct_n=3, attempted=3, setup_s=1.0, peak_mb=50.0)
    assert values["extract_norm_s"] == pytest.approx(4.0)
    assert values["native_ratio"] == pytest.approx(32 ** 0.5)
    assert values["invocations_per_extraction"] == 20.0
    assert values["physical_execs_per_extraction"] == 14.0
    assert values["correct_frac"] == 1.0


# -- oracle ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def conns():
    from repro.datagen import tpch

    opened = [
        oracle.load(tpch.build_database(scale=0.001, seed=seed)) for seed in (3, 4)
    ]
    yield opened
    for conn in opened:
        conn.close()


Q6 = (
    "select sum(l_extendedprice * l_discount) as revenue from lineitem "
    "where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01' "
    "and l_quantity < 24"
)
Q3_HEAD = (
    "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as revenue "
    "from orders, lineitem where l_orderkey = o_orderkey "
    "and o_orderdate < date '1995-03-15' group by l_orderkey "
    "order by revenue desc"
)


def test_oracle_accepts_an_equivalent_rewrite(conns):
    rewritten = Q6.replace("l_quantity < 24", "l_quantity <= 23.99").replace(
        "l_extendedprice * l_discount", "l_discount * l_extendedprice"
    )
    assert oracle.check(Q6, Q6, conns) is None
    assert oracle.check(Q6, rewritten, conns) is None


def test_oracle_rejects_a_flipped_predicate(conns):
    flipped = Q6.replace("l_quantity < 24", "l_quantity >= 24")
    assert "differs" in oracle.check(Q6, flipped, conns)


def test_oracle_compares_limit_values_separately(conns):
    assert oracle.check(Q3_HEAD + " limit 10", Q3_HEAD + " limit 10", conns) is None
    assert "LIMIT" in oracle.check(Q3_HEAD + " limit 10", Q3_HEAD + " limit 5", conns)
    assert "LIMIT" in oracle.check(Q3_HEAD + " limit 10", Q3_HEAD, conns)


def test_oracle_reports_sql_sqlite_cannot_run(conns):
    assert "fails in sqlite3" in oracle.check(Q6, "select nope from lineitem", conns)
