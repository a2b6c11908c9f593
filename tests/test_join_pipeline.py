"""Join backfill vs DuckDB oracle: multi-part, key mapping, prefixes,
left-row-count preservation (reference JoinTest.scala:389-433)."""

import duckdb
import numpy as np
import pytest

from raywin.api import (
    Accuracy,
    Aggregation,
    Derivation,
    EventSource,
    GroupBy,
    Join,
    JoinPart,
    Operation,
    Query,
    TimeUnit,
    Window,
)
from raywin.pipelines.join import backfill_join

SF_DIR = "/root/testdata/sf0.001"


def _user_gb():
    return GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(
                    selects={"user_id": "user_id", "value": "value"},
                    time_column="epoch_ms(ts)",
                ),
            )
        ],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="user_stats",
    )


def _type_gb():
    return GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(
                    selects={"etype": "event_type", "value": "value"},
                    time_column="epoch_ms(ts)",
                ),
            )
        ],
        key_columns=["etype"],
        aggregations=[Aggregation(Operation.AVERAGE, "value", windows=[Window(1, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="type_stats",
    )


def test_join_backfill(ray_session, exchange_block_rows):
    exchange_block_rows(256)
    join = Join(
        left=EventSource(
            table=f"{SF_DIR}/events.parquet",
            query=Query(
                selects={
                    "event_id": "event_id",
                    "user_id": "user_id",
                    "event_type": "event_type",
                },
                time_column="epoch_ms(ts)",
            ),
        ),
        join_parts=[
            JoinPart(group_by=_user_gb()),
            JoinPart(group_by=_type_gb(), key_mapping={"event_type": "etype"}, prefix="t"),
        ],
        derivations=[
            Derivation("*", "*"),
            Derivation("sum_per_count", "user_stats_value_sum_7d / user_stats_value_count"),
        ],
        name="enriched_events",
    )
    out = backfill_join(join).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
    oracle = con.execute(
        """
        WITH e AS (SELECT event_id, user_id, event_type, epoch_ms(ts) AS ts, value FROM events)
        SELECT l.event_id, l.user_id, l.event_type, l.ts,
          (SELECT sum(r.value) FROM e r WHERE r.user_id = l.user_id
             AND r.ts < l.ts AND r.ts >= (l.ts - 7*86400000) // 3600000 * 3600000)
             AS user_stats_value_sum_7d,
          (SELECT nullif(count(r.value), 0) FROM e r WHERE r.user_id = l.user_id AND r.ts < l.ts)
             AS user_stats_value_count,
          (SELECT avg(r.value) FROM e r WHERE r.event_type = l.event_type
             AND r.ts < l.ts AND r.ts >= (l.ts - 86400000) // 3600000 * 3600000)
             AS t_type_stats_value_average_1d
        FROM e l
        """
    ).df()
    oracle["sum_per_count"] = oracle["user_stats_value_sum_7d"] / oracle["user_stats_value_count"]

    assert len(out) == len(oracle)  # left row count preserved
    merged = oracle.merge(out, on=["event_id"], suffixes=("_o", "_k"), how="inner")
    assert len(merged) == len(oracle)
    for col in [
        "user_stats_value_sum_7d",
        "user_stats_value_count",
        "t_type_stats_value_average_1d",
        "sum_per_count",
    ]:
        a = merged[f"{col}_o"].astype(float)
        b = merged[f"{col}_k"].astype(float)
        ok = (a.isna() & b.isna()) | np.isclose(a, b, rtol=1e-9, atol=1e-12)
        assert ok.all(), f"{col}:\n{merged[~ok][['event_id', col + '_o', col + '_k']].head()}"


def test_hashed_semi_filter_prunes_right(ray_session, exchange_block_rows, tmp_path):
    """Mid-size pruning tier (the reference's bloom band, Join.scala:306-341):
    a >100k-key left prunes the right scan through a sorted uint64 hash set
    — real row reduction, zero result change vs the unpruned kernel."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.pipelines.group_by import features_for_queries
    from raywin.pipelines.join import SMALL_MODE_CUTOFF, _semi_filtered_right

    exchange_block_rows(8192)
    n_left = SMALL_MODE_CUTOFF + 20_000
    rng = np.random.default_rng(5)
    left_keys = np.arange(n_left, dtype=np.int64) * 2  # evens only
    left = pd.DataFrame(
        {
            "uid": left_keys,
            "ts": 1_600_000_000_000 + rng.integers(0, 10**9, n_left),
        }
    )
    right_n = 300_000
    right = pd.DataFrame(
        {
            # evens AND odds: about half the right rows must be pruned
            "uid": rng.integers(0, 2 * n_left, right_n).astype(np.int64),
            "ts": 1_590_000_000_000 + rng.integers(0, 10**10, right_n),
            "value": rng.normal(10, 3, right_n).round(3),
        }
    )
    rp = str(tmp_path / "right.parquet")
    pq.write_table(pa.Table.from_pandas(right, preserve_index=False), rp)
    gb = GroupBy(
        sources=[EventSource(table=rp, query=Query())],
        key_columns=["uid"],
        aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(365, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="mid_left",
    )
    queries = ray.data.from_pandas(left)
    filtered = _semi_filtered_right(gb, queries, n_left=n_left)
    assert filtered is not None, "hash tier must engage above the exact cutoff"
    kept = filtered.count()
    exp_kept = int(np.isin(right["uid"].to_numpy(), left_keys).sum())
    assert kept == exp_kept  # no false negatives; hash-exact positives
    assert kept < right_n * 0.6  # the scan really was reduced

    a = (
        features_for_queries(gb, queries, right_ds=filtered)
        .to_pandas().sort_values(["uid", "ts"]).reset_index(drop=True)
    )
    b = (
        features_for_queries(gb, queries)
        .to_pandas().sort_values(["uid", "ts"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
