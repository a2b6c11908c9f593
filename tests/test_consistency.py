"""Consistency job + compare metrics (reference stats/ConsistencyJob.scala,
CompareMetrics.scala, EditDistance.scala)."""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raywin.functions.compare import edit_distance

SF = "/root/testdata/sf0.001"


def test_edit_distance_reference_semantics():
    # (insert, delete) into RIGHT to make it equal LEFT; no replacement
    assert edit_distance([], []) == (0, 0)
    assert edit_distance(None, None) == (0, 0)
    assert edit_distance([1, 2, 3], None) == (3, 0)
    assert edit_distance(None, [1]) == (0, 1)
    assert edit_distance([1, 2, 3], [1, 2, 3]) == (0, 0)
    assert edit_distance([1, 2, 3], [2, 3, 4]) == (1, 1)  # LCS = [2,3]
    assert edit_distance("abc", "axc") == (1, 1)  # LCS = "ac"
    assert edit_distance([5], [1, 2, 3]) == (1, 3)  # no common element
    # brute check vs total-distance identity: total = n + m - 2*LCS
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.integers(0, 4, rng.integers(0, 8)).tolist()
        b = rng.integers(0, 4, rng.integers(0, 8)).tolist()
        ins, dele = edit_distance(a, b)
        assert ins <= len(a) and dele <= len(b)
        assert (len(a) - ins) == (len(b) - dele)  # both equal the LCS length


def _mk_join():
    from raywin.api import (
        Accuracy, Aggregation, EventSource, GroupBy, Join, JoinPart,
        Operation, Query, TimeUnit, Window,
    )

    gb = GroupBy(
        sources=[
            EventSource(
                table=f"{SF}/events.parquet",
                query=Query(
                    selects={"user_id": "user_id", "value": "value"},
                    time_column="epoch_ms(ts)",
                ),
            )
        ],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)])
        ],
        accuracy=Accuracy.TEMPORAL,
        name="usersum",
    )
    return Join(
        left=EventSource(
            table=f"{SF}/events.parquet",
            query=Query(
                selects={"event_id": "event_id", "user_id": "user_id"},
                time_column="epoch_ms(ts)",
            ),
        ),
        join_parts=[JoinPart(group_by=gb, prefix="p1")],
        row_ids=["event_id"],
        name="consistency_demo",
    )


def test_consistency_job_end_to_end(ray_session, exchange_block_rows, tmp_path):
    """Serve logs = offline backfill with 5 rows perturbed; the consistency
    job must recompute offline values and localize exactly 5 mismatches."""
    from raywin.pipelines.consistency import consistency_metrics
    from raywin.pipelines.join import backfill_join

    exchange_block_rows(512)
    join = _mk_join()
    feat = "p1_usersum_value_sum_7d"
    offline = backfill_join(join).to_pandas()
    assert feat in offline.columns and len(offline) == 1000

    logged = offline.copy()
    perturbed = logged.loc[logged[feat].notna()].head(5).index
    logged.loc[perturbed, feat] = logged.loc[perturbed, feat] + 1.0

    def enc(row):
        v = row[feat]
        return json.dumps({feat: None if pd.isna(v) else float(v)})

    log_tbl = pd.DataFrame(
        {
            "join_name": join.name,
            "schema_hash": "v1",
            "key_json": [
                json.dumps({"event_id": int(e), "user_id": int(u)})
                for e, u in zip(logged["event_id"], logged["user_id"])
            ],
            "value_json": [enc(r) for _, r in logged.iterrows()],
            "ts": logged["ts"].astype("int64"),
            "ds": pd.to_datetime(logged["ts"], unit="ms").dt.strftime("%Y-%m-%d"),
        }
    )
    log_path = str(tmp_path / "logs.parquet")
    schema_path = str(tmp_path / "schemas.parquet")
    pq.write_table(pa.Table.from_pandas(log_tbl, preserve_index=False), log_path)
    reg = {
        "keys": [["event_id", "long"], ["user_id", "long"]],
        "values": [[feat, "double"]],
    }
    pq.write_table(
        pa.table({"schema_hash": ["v1"], "schema_json": [json.dumps(reg)]}),
        schema_path,
    )

    metrics = consistency_metrics(
        join,
        log_path,
        schema_path,
        bucket_minutes=10**7,  # one giant bucket: totals over the whole table
        tmp_dir=str(tmp_path / "consistency"),
    ).to_pandas()
    assert len(metrics) == 1
    m = metrics.iloc[0]
    assert m[f"{feat}_total"] == 1000
    assert m[f"{feat}_mismatch"] == 5
    assert m[f"{feat}_left_null"] == 0 and m[f"{feat}_right_null"] == 0
    # the five perturbations are all +1.0 → diff percentiles pin at 0 and 1
    assert m[f"{feat}_left_minus_right_p0"] == 0.0
    assert m[f"{feat}_left_minus_right_p100"] == 1.0
    assert m[f"{feat}_smape"] > 0
