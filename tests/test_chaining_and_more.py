"""Join chaining, label joins, partition-count invariance, sketch behavior,
zero-leakage assertions."""

import math

import numpy as np
import pandas as pd
import pytest

from raywin.api import (
    Accuracy,
    Aggregation,
    EventSource,
    GroupBy,
    Join,
    JoinPart,
    JoinSource,
    Operation,
    Query,
    TimeUnit,
    Window,
)

SF_DIR = "/root/testdata/sf0.001"
DAY = 86400000


def _user_gb():
    return GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(selects={"user_id": "user_id", "value": "value"},
                            time_column="epoch_ms(ts)"),
            )
        ],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="u",
    )


def test_join_source_chaining(ray_session, exchange_block_rows):
    """GroupBy over the OUTPUT of a join: count of enriched rows per user."""
    import ray.data

    from raywin.pipelines.chaining import chained_features

    exchange_block_rows(512)
    parent = Join(
        left=EventSource(
            table=f"{SF_DIR}/events.parquet",
            query=Query(selects={"event_id": "event_id", "user_id": "user_id"},
                        time_column="epoch_ms(ts)"),
        ),
        join_parts=[JoinPart(group_by=_user_gb())],
        name="parent",
    )
    child = GroupBy(
        sources=[JoinSource(join=parent, query=Query())],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.AVERAGE, "u_value_sum_7d")],
        accuracy=Accuracy.TEMPORAL,
        name="child",
    )
    left = ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["user_id", "ts"]).map_batches(
        lambda df: df.assign(ts=df["ts"].astype("int64") // 1000), batch_format="pandas"
    )
    out = chained_features(child, left, dedupe_queries=True).to_pandas()
    assert len(out) > 0
    assert "u_value_sum_7d_average" in out.columns


def test_label_join(ray_session, exchange_block_rows):
    """Labels computed at ts + offset; verify one row against brute force."""
    import duckdb
    import ray.data

    from raywin.pipelines.chaining import label_join
    from raywin.pipelines.group_by import features_for_queries

    exchange_block_rows(512)
    feats = features_for_queries(
        _user_gb(),
        ray.data.read_parquet(f"{SF_DIR}/events.parquet", columns=["user_id", "ts"]).map_batches(
            lambda df: df.assign(ts=df["ts"].astype("int64") // 1000), batch_format="pandas"
        ),
        dedupe_queries=True,
    )
    label_gb = GroupBy(
        sources=[
            EventSource(
                table=f"{SF_DIR}/events.parquet",
                query=Query(selects={"user_id": "user_id", "value": "value"},
                            time_column="epoch_ms(ts)"),
            )
        ],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.COUNT, "value", windows=[Window(1, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="lbl",
    )
    out = label_join(feats, label_gb, label_offset_ms=DAY, key_cols=["user_id"]).to_pandas()
    assert "label_value_count_1d" in out.columns
    assert len(out) == feats.count()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'")
    sample = out.dropna(subset=["label_value_count_1d"]).iloc[0]
    q_ts = int(sample["ts"]) + DAY
    expected = con.execute(
        f"""SELECT count(value) FROM events
            WHERE user_id = {int(sample['user_id'])}
              AND epoch_ms(ts) < {q_ts}
              AND epoch_ms(ts) >= ({q_ts} - 86400000) // 3600000 * 3600000"""
    ).fetchone()[0]
    assert int(sample["label_value_count_1d"]) == expected


def test_partition_count_invariance(ray_session, exchange_block_rows):
    """Features must not depend on the shuffle partitioning (the analogue of
    the reference's IR merge-associativity-under-splits invariant,
    SawtoothAggregatorTest.scala:77-96): one exchange partition vs many."""
    import ray.data

    from raywin.pipelines.group_by import features_for_queries

    left = lambda: ray.data.read_parquet(
        f"{SF_DIR}/events.parquet", columns=["user_id", "ts"]
    ).map_batches(
        lambda df: df.assign(ts=df["ts"].astype("int64") // 1000), batch_format="pandas"
    )
    exchange_block_rows(1 << 30)
    a = features_for_queries(_user_gb(), left(), dedupe_queries=True).to_pandas()
    exchange_block_rows(256)
    b = features_for_queries(_user_gb(), left(), dedupe_queries=True).to_pandas()
    key = ["user_id", "ts"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    x, y = a["value_sum_7d"].astype(float), b["value_sum_7d"].astype(float)
    assert ((x.isna() & y.isna()) | np.isclose(x, y, rtol=1e-9, equal_nan=True)).all()


def test_sketches():
    from raywin.aggregator.sketches import HllSketch, QuantileSketch, hash64

    rng = np.random.default_rng(0)
    # HLL accuracy + merge + serde
    true_n = 5000
    vals = rng.integers(0, 1 << 50, true_n)
    a, b = HllSketch(10), HllSketch(10)
    a.add_hashed(hash64(vals[: true_n // 2]))
    b.add_hashed(hash64(vals[true_n // 2 :]))
    a.merge_in(HllSketch.from_bytes(b.to_bytes()))
    est = a.estimate()
    assert abs(est - len(np.unique(vals))) / true_n < 0.1
    # quantile sketch merge associativity-ish + serde
    data = rng.normal(0, 1, 20000)
    s1, s2 = QuantileSketch(128), QuantileSketch(128)
    s1.add_many(data[:10000])
    s2.add_many(data[10000:])
    s1.merge_in(QuantileSketch.from_bytes(s2.to_bytes()))
    for p in (0.25, 0.5, 0.9):
        est_q = s1.quantile(p)
        rank = (data <= est_q).mean()
        assert abs(rank - p) < 0.05, (p, rank)


def test_zero_leakage_image_pipeline(ray_session, exchange_block_rows, tmp_path):
    """Every backfill query at an event's exact ts must EXCLUDE that event:
    count feature at the first event of an entity is null, and at the k-th
    exact event ts equals k-1 within the window."""
    from raywin.pipelines.images import image_feature_backfill
    from raywin.stages.images import generate_image_events

    exchange_block_rows(512)
    path = str(tmp_path / "img")
    generate_image_events(path, 1500, 100, files=2)
    out = image_feature_backfill(path).to_pandas()
    import duckdb

    con = duckdb.connect()
    con.execute(f"CREATE VIEW ev AS SELECT image_id, ts FROM '{path}/*.parquet'")
    oracle = con.execute(
        """SELECT l.image_id, l.ts,
             nullif(count(r.ts), 0) AS cnt
           FROM (SELECT DISTINCT image_id, ts FROM ev) l
           LEFT JOIN ev r ON r.image_id = l.image_id AND r.ts < l.ts
             AND r.ts >= (l.ts - 7*86400000) // 3600000 * 3600000
           GROUP BY l.image_id, l.ts"""
    ).df()
    m = oracle.merge(out, on=["image_id", "ts"], how="inner")
    assert len(m) == len(oracle) == len(out)
    x, y = m["cnt"].astype(float), m["views_count_7d"].astype(float)
    assert ((x.isna() & y.isna()) | (x == y)).all()


def test_parquet_reads_drop_pandas_metadata(ray_session, tmp_path):
    """Two reads of a pandas-written file, unioned and sorted, give blocks
    without schema metadata, and Ray logs no "Failed to hash the schemas"
    (it cannot hash a schema with metadata when it unifies blocks).  A
    hive-partitioned directory keeps its partition column."""
    import logging

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from raywin.sources.io import read_parquet

    path = str(tmp_path / "f.parquet")
    pd.DataFrame({"a": [3, 1, 2], "b": ["x", "y", "z"]}).to_parquet(path)
    assert pq.read_schema(path).metadata
    logged = []
    handler = logging.Handler()
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    logger.addHandler(handler)
    try:
        ds = read_parquet(path).union(read_parquet(path, columns=["a", "b"])).sort("a")
        blocks = ray.get(ds.to_arrow_refs())
    finally:
        logger.removeHandler(handler)
    assert [b.schema.metadata for b in blocks] == [None] * len(blocks)
    # the sort may also hand back a zero-row block with no schema
    assert pa.concat_tables([b for b in blocks if b.num_rows])["a"].to_pylist() == [1, 1, 2, 2, 3, 3]
    assert not [m for m in logged if "Failed to hash the schemas" in m]

    hive = str(tmp_path / "hive")
    pq.write_to_dataset(pa.table({"a": [1, 2], "ds": ["d1", "d2"]}), hive, partition_cols=["ds"])
    for cols in (None, ["a", "ds"]):
        rows = read_parquet(hive, columns=cols).take_all()
        assert sorted((r["a"], r["ds"]) for r in rows) == [(1, "d1"), (2, "d2")]


def test_lance_path_detection():
    """Lance tables are detected and route to read_lance (gated on the wheel
    being present; this container has none, so the error must be clear)."""
    from raywin.sources.io import _is_lance, _lance, read_table

    assert _is_lance("/data/images.lance")
    assert not _is_lance(f"{SF_DIR}/events.parquet")
    if _lance is None:
        import pytest as _pytest

        with _pytest.raises(ImportError, match="lance"):
            read_table("/data/images.lance")
