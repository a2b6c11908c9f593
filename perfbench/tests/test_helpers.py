"""Tests of the benchmark's own helpers: percentiles and their tail sample
rule, failed_share, the oracles, span self time, the reference job and
the metric list.

    python3 -m pytest perfbench/tests -q
"""

import json
import os

import numpy as np
import pyarrow as pa
import pytest

from perfbench import host, metrics, oracles
from perfbench.inputs import content_hash
from perfbench.layers import SHOULD_MOVE
from perfbench.tracing import Tracer, busy_minus_s, busy_union_s

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_percentile_is_nearest_rank():
    v = list(range(1, 101))
    assert metrics.percentile(v, 50) == 50
    assert metrics.percentile(v, 99) == 99
    assert metrics.percentile(v, 100) == 100
    assert metrics.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile(v, 0)


@pytest.mark.parametrize("n, ok", [(999, False), (1000, True), (2000, True)])
def test_p99_needs_ten_samples_above(n, ok):
    values = list(np.random.default_rng(0).permutation(n).astype(float))
    p99, above, valid = metrics.tail(values, 99)
    assert above == sum(1 for x in values if x > p99)
    assert valid is ok
    assert (above >= metrics.MIN_TAIL_SAMPLES) is ok


def test_median_of_nothing_is_zero():
    assert metrics.median([]) == 0.0
    assert metrics.median([3, 1, 2]) == 2.0


def test_failed_share():
    assert metrics.failed_share(0, 10) == 0.0
    assert metrics.failed_share(3, 12) == 0.25
    for failed, attempted in [(0, 0), (5, 4), (-1, 4)]:
        with pytest.raises(ValueError):
            metrics.failed_share(failed, attempted)


def test_values_match():
    assert oracles.values_match(None, None)
    assert oracles.values_match(float("nan"), None)
    assert not oracles.values_match(0.0, None)
    assert not oracles.values_match(None, 1)
    assert oracles.values_match(1.0 + 1e-12, 1.0)
    assert not oracles.values_match(1.001, 1.0)
    assert oracles.values_match([1.0, 2.0], (1.0, 2.0))
    assert not oracles.values_match([1.0], [1.0, 2.0])
    assert oracles.values_match(3, 3) and not oracles.values_match(3, 4)


def test_compare_keyed_finds_wrong_missing_and_extra_rows():
    exp = pa.table({"k": [1, 2, 3], "ts": [10, 20, 30], "v": [1.0, 2.0, None]})
    assert oracles.compare_keyed(exp, exp, ["k", "ts"]) == []
    got = pa.table({"k": [1, 3, 4], "ts": [10, 30, 40], "v": [1.5, None, 0.0]})
    bad = dict(oracles.compare_keyed(got, exp, ["k", "ts"]))
    assert bad == {(1, 10): ["v"], (2, 20): ["v"], (4, 40): ["unexpected row"]}


def test_tables_match_ignores_order_not_values():
    a = pa.table({"k": [1, 2], "v": [0.5, None], "l": [[1.0], [2.0, 3.0]]})
    b = pa.table({"k": [2, 1], "v": [None, 0.5], "l": [[2.0, 3.0], [1.0]]})
    assert oracles.tables_match(a, b, ["k"])
    c = b.set_column(1, "v", pa.array([None, 0.6]))
    assert not oracles.tables_match(a, c, ["k"])
    d = b.set_column(2, "l", pa.array([[2.0], [1.0]]))
    assert not oracles.tables_match(a, d, ["k"])
    assert not oracles.tables_match(a, a.slice(0, 1), ["k"])


def test_tail_hop_rule():
    assert oracles.tail_hop(30 * oracles.DAY) == oracles.DAY
    assert oracles.tail_hop(oracles.DAY) == oracles.HOUR
    assert oracles.tail_hop(6 * oracles.HOUR) == oracles.MIN5


def test_numeric_fold_agrees_with_duckdb_oracle(tmp_path):
    """The two independent restatements of the window rule agree."""
    duckdb = pytest.importorskip("duckdb")
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    n, day = 3000, oracles.DAY
    ev = pa.table({
        "user_id": rng.integers(0, 6, n),
        "ts": rng.integers(0, 10 * day, n),
        "amount": np.round(rng.normal(50, 20, n), 2),
        "clicks": rng.integers(0, 20, n),
    })
    q = pa.table({"user_id": rng.integers(0, 7, 200), "ts": rng.integers(day, 10 * day, 200)})
    pq.write_table(ev, tmp_path / "e.parquet")
    pq.write_table(q, tmp_path / "q.parquet")
    with duckdb.connect() as con:
        exp = oracles.numeric_oracle(con, str(tmp_path / "e.parquet"), str(tmp_path / "q.parquet"),
                                     range(7), 0, 10 * day)
    fold = oracles.NumericFold(ev)
    cols = [p[0] for p in oracles.NUMERIC_PARTS]
    assert exp.num_rows == len({(u, t) for u, t in zip(q["user_id"].to_pylist(),
                                                        q["ts"].to_pylist())})
    for row in exp.to_pylist():
        got = fold.features(row["user_id"], row["ts"])
        assert oracles.rows_mismatch(got, row, cols) == [], row
    # a key with no events gives all-null features
    assert all(v is None for v in fold.features(99, 5 * day).values())


def test_self_time_subtracts_children():
    t = Tracer()
    t.spans = [
        {"id": 0, "name": "outer", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "inner", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "inner", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert t.self_times() == {"outer": 6.0, "inner": 4.0}
    with t.span("live") as rec:
        pass
    assert rec["end"] >= rec["start"] and rec["parent"] is None


def test_busy_union_merges_overlaps():
    ops = [{"start": 0.0, "end": 2.0}, {"start": 1.0, "end": 3.0},
           {"start": 5.0, "end": 6.0}, {"start": 0, "end": 0}]
    assert busy_union_s(ops) == 4.0
    assert busy_union_s([]) == 0.0


def test_content_hash_sees_content_changes(tmp_path):
    (tmp_path / "a").write_bytes(b"one")
    h = content_hash(str(tmp_path))
    (tmp_path / "CONTENT_SHA256").write_text(h)
    assert content_hash(str(tmp_path)) == h  # the hash file itself is excluded
    (tmp_path / "a").write_bytes(b"two")
    assert content_hash(str(tmp_path)) != h


def test_busy_minus_takes_out_the_overlap():
    exch = [{"start": 0.0, "end": 4.0}, {"start": 6.0, "end": 8.0}]
    kern = [{"start": 3.0, "end": 7.0}]
    assert busy_minus_s(exch, kern) == 4.0
    assert busy_minus_s(exch, []) == 6.0


def test_exchange_window_spans_the_barrier():
    from perfbench.workloads import exchange_windows, ray_layers

    def op(name, start, end):
        return {"name": name, "start": start, "end": end, "wall_s": 0.0, "cpu_s": 0.0,
                "udf_s": 0.0, "rows": 10, "bytes": 0, "tasks": 1,
                "block_rows_max": 5.0, "block_rows_mean": 5.0}

    # Ray Data reports 0 for an operator it kept no times for
    ops = [op("ReadParquet", 10.0, 11.0), op("Union", 0, 0), op("SortMap", 11.2, 11.3),
           op("SortReduce", 11.4, 11.5), op("MapBatches(PartitionKernel)->Write", 11.7, 12.0)]
    assert exchange_windows(ops) == [{"start": 11.0, "end": 11.7}]
    assert exchange_windows(ops[:4]) == [{"start": 11.0, "end": 11.5}]
    assert exchange_windows(ops[:1]) == []
    two_steps = ray_layers([ops, [{**o, "start": o["start"] and o["start"] + 5,
                                   "end": o["end"] and o["end"] + 5} for o in ops]])
    assert two_steps["stages.shuffle.exchange_s"] == pytest.approx(1.4)
    assert two_steps["stages.shuffle.tasks"] == 4


def test_every_layer_metric_says_what_it_should_move():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["per_layer"]] == list(SHOULD_MOVE)


def test_reference_job_reads_cpu_time_and_restores_the_mask():
    mask = os.sched_getaffinity(0)
    t = host.reference_s(sorted(mask))
    assert 0 < t < 50 * host.REFERENCE_NOMINAL_S
    assert os.sched_getaffinity(0) == mask
