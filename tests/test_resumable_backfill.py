"""Resumable backfill: skip completed partitions, archive on config change,
and produce byte-identical results to a single-shot run."""

import os
import shutil

import numpy as np
import pandas as pd
import pytest

from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window
from raywin.pipelines.backfill import backfill_temporal
from raywin.state import manifest as mf

DAY = 86400000


@pytest.fixture(scope="module")
def ev_table(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    n = 5000
    base = pd.Timestamp("2024-02-01").value // 1_000_000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n).astype(str).astype(object)),
            "ts": pa.array(base + np.sort(rng.integers(0, 6 * DAY, n))),
            "v": pa.array(rng.normal(10, 3, n)),
        }
    )
    path = tmp_path_factory.mktemp("bf") / "events.parquet"
    pq.write_table(t, str(path))
    return str(path)


def _gb(path, windows=None):
    return GroupBy(
        sources=[EventSource(table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=windows or [Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "v"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="bf_gb",
    )


def test_resumable_backfill(ray_session, exchange_block_rows, ev_table, tmp_path):
    import ray.data

    exchange_block_rows(2048)
    out_dir = str(tmp_path / "out")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    done = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert len(done) == 3  # 6 days / 2-day steps
    labels = [d[0] for d in done]
    total_rows = sum(d[1]["rows"] for d in done)

    # restart: nothing to do
    done2 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert done2 == []

    # delete one partition -> only that one recomputed
    shutil.rmtree(mf.partition_dir(out_dir, labels[1]))
    done3 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert [d[0] for d in done3] == [labels[1]]

    # output equals a single-shot full-range computation
    full = mf.load_output(out_dir).to_pandas()
    assert len(full) == total_rows
    from raywin.pipelines.group_by import features_for_queries

    single = features_for_queries(
        _gb(ev_table), left_fn(), dedupe_queries=True
    ).to_pandas()
    key = ["k", "ts"]
    a = full.sort_values(key).reset_index(drop=True)
    b = single.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    for col in ["v_sum_2d", "v_count"]:
        x, y = a[col].astype(float), b[col].astype(float)
        assert ((x.isna() & y.isna()) | np.isclose(x, y, rtol=1e-9, equal_nan=True)).all(), col

    # config change -> all partitions recomputed, stale archived
    done4 = backfill_temporal(
        _gb(ev_table, windows=[Window(1, TimeUnit.DAYS)]), left_fn, out_dir,
        "2024-02-01", "2024-02-06", step_days=2,
    )
    assert len(done4) == 3
    stale = [d for d in os.listdir(out_dir) if d.startswith("_stale_")]
    assert stale, "stale outputs must be archived on semantic change"


def test_empty_partition_records_zero_row_manifest(
    ray_session, exchange_block_rows, ev_table, tmp_path
):
    """A day range with no events must complete with a rows=0 manifest (so
    resume skips it), not crash on the missing data directory."""
    import ray.data

    exchange_block_rows(1024)
    out_dir = str(tmp_path / "empty_out")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])
    # ev_table covers 2024-02-01..07; this range is far in the future
    done = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2025-06-01", "2025-06-02",
        step_days=2,
    )
    assert len(done) == 1
    label, m = done[0]
    assert m["rows"] == 0
    # resume: nothing left to do
    done2 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2025-06-01", "2025-06-02",
        step_days=2,
    )
    assert done2 == []


def test_truncated_step_recomputed_on_extended_range(
    ray_session, exchange_block_rows, ev_table, tmp_path
):
    """A backfill first launched with an end date that TRUNCATES its final
    step must not poison a later full-range resume: the truncated step's
    manifest records its actual ts_range, and the resume recomputes it
    instead of silently skipping the missing tail days."""
    import ray.data

    exchange_block_rows(2048)
    out_dir = str(tmp_path / "trunc")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    # 2-day steps, but the first launch ends mid-step (02-01..02-03 covers
    # one full step + a 1-day truncated second step with the same label)
    first = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-03", step_days=2
    )
    assert [d[0] for d in first] == ["ds=2024-02-01", "ds=2024-02-03"]

    # full range: the truncated ds=2024-02-03 step must be recomputed
    resumed = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert "ds=2024-02-03" in [d[0] for d in resumed]
    assert [d for d in os.listdir(out_dir) if "truncated" in d], "truncated step archived"

    full = mf.load_output(out_dir).to_pandas()
    from raywin.pipelines.group_by import features_for_queries

    single = features_for_queries(
        _gb(ev_table), left_fn(), dedupe_queries=True
    ).to_pandas()
    assert len(full) == len(single), "resume after truncation must lose no rows"
