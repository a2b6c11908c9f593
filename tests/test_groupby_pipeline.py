"""End-to-end temporal GroupBy pipeline vs a DuckDB SQL oracle over the
driver's events.parquet (mirrors the reference's JoinTest SQL-oracle strategy,
spark/src/test/scala/ai/chronon/spark/test/JoinTest.scala:402-433: strict
``query.ts > event.ts`` predicate, tail rounded to the tail hop)."""

import duckdb
import numpy as np
import pandas as pd
import pytest

from raywin.api import (
    Accuracy,
    Aggregation,
    EventSource,
    GroupBy,
    Operation,
    Query,
    TimeUnit,
    Window,
)
from raywin.pipelines.group_by import features_for_queries

SF_DIR = "/root/testdata/sf0.001"

HOUR_MS = 3600 * 1000


@pytest.fixture(scope="module")
def events_gb():
    return GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(
                    selects={"user_id": "user_id", "value": "value", "event_type": "event_type"},
                    time_column="epoch_ms(ts)",
                ),
            )
        ],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "value"),
            Aggregation(Operation.MAX, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.LAST, "value"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="user_features",
    )


def test_temporal_vs_duckdb(ray_session, exchange_block_rows, events_gb):
    import ray.data

    exchange_block_rows(256)
    left = ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["user_id", "ts"]).map_batches(
        lambda df: df.assign(ts=df["ts"].astype("int64") // 1000).drop_duplicates(),
        batch_format="pandas",
    )
    out = features_for_queries(events_gb, left).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
    oracle = con.execute(
        """
        WITH q AS (SELECT DISTINCT user_id, epoch_ms(ts) AS ts FROM events),
             e AS (SELECT user_id, epoch_ms(ts) AS ts, value FROM events)
        SELECT q.user_id, q.ts,
          (SELECT sum(e.value) FROM e WHERE e.user_id = q.user_id
             AND e.ts < q.ts AND e.ts >= (q.ts - 86400000) // 3600000 * 3600000) AS value_sum_1d,
          (SELECT sum(e.value) FROM e WHERE e.user_id = q.user_id AND e.ts < q.ts) AS value_sum,
          (SELECT nullif(count(e.value), 0) FROM e WHERE e.user_id = q.user_id
             AND e.ts < q.ts AND e.ts >= (q.ts - 86400000) // 3600000 * 3600000) AS value_count_1d,
          (SELECT avg(e.value) FROM e WHERE e.user_id = q.user_id AND e.ts < q.ts) AS value_average,
          (SELECT max(e.value) FROM e WHERE e.user_id = q.user_id
             AND e.ts < q.ts AND e.ts >= (q.ts - 7*86400000) // 3600000 * 3600000) AS value_max_7d,
          (SELECT e.value FROM e WHERE e.user_id = q.user_id AND e.ts < q.ts
             ORDER BY e.ts DESC LIMIT 1) AS value_last
        FROM q
        """
    ).df()

    merged = oracle.merge(out, on=["user_id", "ts"], suffixes=("_o", "_k"), how="outer", indicator=True)
    assert (merged["_merge"] == "both").all()
    assert len(out) == len(oracle)
    for col in ["value_sum_1d", "value_sum", "value_count_1d", "value_average", "value_max_7d", "value_last"]:
        a = merged[f"{col}_o"].astype(float)
        b = merged[f"{col}_k"].astype(float)
        both_nan = a.isna() & b.isna()
        close = np.isclose(a, b, rtol=1e-9, atol=1e-9)
        bad = ~(both_nan | close)
        assert not bad.any(), f"{col}: {merged[bad][['user_id', 'ts', col + '_o', col + '_k']].head()}"


def test_snapshot_backfill(ray_session, exchange_block_rows, events_gb):
    from raywin.pipelines.group_by import snapshot_backfill

    exchange_block_rows(256)
    gb = GroupBy(
        sources=events_gb.sources,
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value"),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap",
    )
    dates = ["2024-01-10", "2024-01-15"]
    out = snapshot_backfill(gb, dates).to_pandas()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
    oracle = con.execute(
        """
        WITH keys AS (SELECT DISTINCT user_id FROM events),
             d AS (SELECT unnest(['2024-01-10','2024-01-15']) AS ds),
             e AS (SELECT user_id, epoch_ms(ts) AS ts, value FROM events)
        SELECT k.user_id, d.ds,
          (SELECT sum(e.value) FROM e WHERE e.user_id = k.user_id
             AND e.ts < epoch_ms(CAST(d.ds AS DATE) + 1)
             AND e.ts >= epoch_ms(CAST(d.ds AS DATE) + 1) - 7*86400000) AS value_sum_7d,
          (SELECT nullif(count(e.value),0) FROM e WHERE e.user_id = k.user_id
             AND e.ts < epoch_ms(CAST(d.ds AS DATE) + 1)) AS value_count
        FROM keys k CROSS JOIN d
        """
    ).df()
    merged = oracle.merge(out, on=["user_id", "ds"], suffixes=("_o", "_k"), how="outer", indicator=True)
    assert (merged["_merge"] == "both").all()
    for col in ["value_sum_7d", "value_count"]:
        a, b = merged[f"{col}_o"].astype(float), merged[f"{col}_k"].astype(float)
        assert ((a.isna() & b.isna()) | np.isclose(a, b, rtol=1e-9)).all(), col
