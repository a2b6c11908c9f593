"""Hot-key time-chunk replication must be semantically invisible: features
computed with chunking ON equal features with chunking OFF, row for row."""

import numpy as np
import pandas as pd
import pytest

from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window
from raywin.pipelines.group_by import features_for_queries
from raywin.stages.shuffle import HotKeyConfig

BASE = 1_700_000_000_000
DAY = 86400000


@pytest.fixture(scope="module")
def hot_table(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(3)
    n = 20000
    # one huge key + many small ones
    keys = np.where(rng.random(n) < 0.5, "hot", rng.integers(0, 50, n).astype(str))
    t = pa.table(
        {
            "k": pa.array(keys.astype(object)),
            "ts": pa.array(BASE + np.sort(rng.integers(0, 30 * DAY, n))),
            "v": pa.array(rng.normal(0, 1, n)),
        }
    )
    path = tmp_path_factory.mktemp("hot") / "events.parquet"
    pq.write_table(t, str(path))
    return str(path)


def _gb(path):
    return GroupBy(
        sources=[EventSource(table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(7, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "v", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.LAST_K, "v", windows=[Window(7, TimeUnit.DAYS)], arg_map={"k": 3}),
            Aggregation(Operation.MAX, "v", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(
                Operation.APPROX_PERCENTILE, "v", windows=[Window(7, TimeUnit.DAYS)],
                arg_map={"k": 128, "percentiles": "[0.5]"},
            ),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="hot_gb",
        tie_breaker=None,
    )


def test_hot_chunking_invisible(ray_session, exchange_block_rows, hot_table):
    import ray.data

    exchange_block_rows(4096)
    left = ray.data.read_parquet(hot_table, columns=["k", "ts"])
    base = features_for_queries(
        _gb(hot_table), left, dedupe_queries=True
    ).to_pandas()
    hot_cfg = HotKeyConfig({"hot"}, chunk_ms=5 * DAY, ts_max=BASE + 31 * DAY)
    left2 = ray.data.read_parquet(hot_table, columns=["k", "ts"])
    chunked = features_for_queries(
        _gb(hot_table), left2, dedupe_queries=True, hot_config=hot_cfg
    ).to_pandas()

    assert len(base) == len(chunked)
    key = ["k", "ts"]
    b = base.sort_values(key).reset_index(drop=True)
    c = chunked.sort_values(key).reset_index(drop=True)
    assert (b["k"] == c["k"]).all() and (b["ts"] == c["ts"]).all()
    for col in b.columns:
        if col in key:
            continue
        # the offline percentile is exact: a chunk's window gives the same
        # answers as the whole key's; other approx ops keep a loose tolerance
        atol = 0.06 if "approx" in col else 1e-12
        if b[col].dtype == object:
            for x, y in zip(b[col], c[col]):
                if x is None or (isinstance(x, float) and np.isnan(x)):
                    assert y is None or (isinstance(y, float) and np.isnan(y)), (col, x, y)
                elif "approx_percentile" in col:
                    assert list(x) == list(y), (col, x, y)
                else:
                    assert np.allclose(
                        np.asarray(x, dtype=float), np.asarray(y, dtype=float), atol=atol
                    ), (col, x, y)
        else:
            a1, a2 = b[col].astype(float), c[col].astype(float)
            assert ((a1.isna() & a2.isna()) | np.isclose(a1, a2, rtol=1e-9, atol=max(atol, 1e-12), equal_nan=True)).all(), col


def test_split_unbounded_backfill_invisible(ray_session, exchange_block_rows, tmp_path):
    """handle_skew with an unbounded part auto-splits: bounded parts ride the
    hot-chunk pass, unbounded parts a second chained co-partition — must be
    row-for-row invisible vs the single-pass unsplit run."""
    from raywin.pipelines.images import image_feature_backfill
    from raywin.stages.images import generate_image_events

    exchange_block_rows(4096)
    path = str(tmp_path / "img")
    # 90d span >> 30d max window so chunks engage; Zipf over few entities so
    # detect_hot_keys fires
    generate_image_events(path, n_rows=20000, n_entities=400, files=4,
                          skew=1.2, span_days=90)
    base = image_feature_backfill(path, handle_skew=False).to_pandas()
    split = image_feature_backfill(path, handle_skew=True).to_pandas()
    assert len(base) == len(split)
    key = ["image_id", "ts"]
    b = base.sort_values(key).reset_index(drop=True)
    s = split.sort_values(key).reset_index(drop=True)
    assert set(b.columns) == set(s.columns)
    for col in b.columns:
        if col in key:
            continue
        bv, sv = b[col], s[col]
        if bv.dtype == object:  # list-valued (last_k, percentiles)
            for x, y in zip(bv, sv):
                if x is None or (isinstance(x, float) and pd.isna(x)):
                    assert y is None or (isinstance(y, float) and pd.isna(y))
                elif "approx_percentile" in col:  # exact offline percentiles
                    assert list(x) == list(y), (col, x, y)
                else:
                    np.testing.assert_allclose(
                        np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                        rtol=0.02 if "approx" in col else 1e-9,
                    )
        else:
            rtol = 0.02 if "approx" in col else 1e-9
            pd.testing.assert_series_equal(bv, sv, rtol=rtol, atol=1e-12, check_exact=False)


def test_distributed_detector_agrees_with_sampled(ray_session, hot_table):
    """The distributed (exact, per-block partial count) detector must find
    the same hot set and chunk geometry as the retired driver-sample one."""
    import ray.data

    from raywin.stages.shuffle import _detect_hot_keys_sampled, detect_hot_keys

    ds = ray.data.read_parquet(hot_table, columns=["k", "ts"])
    dist = detect_hot_keys(ds, "k")
    samp = _detect_hot_keys_sampled(ds, "k")
    assert dist.keys == samp.keys == {"hot"}
    assert dist.chunk_ms == samp.chunk_ms
    assert dist.max_chunk == samp.max_chunk


def test_distributed_detector_no_hot_keys(ray_session, tmp_path):
    """Uniform keys → empty HotKeyConfig (and no crash on the empty path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.stages.shuffle import detect_hot_keys

    rng = np.random.default_rng(11)
    n = 5000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 1000, n).astype(str).astype(object)),
            "ts": pa.array(BASE + rng.integers(0, DAY, n)),
        }
    )
    path = str(tmp_path / "uniform.parquet")
    pq.write_table(t, path)
    cfg = detect_hot_keys(ray.data.read_parquet(path), "k")
    assert not cfg and cfg.keys == set()


def test_hot_chunking_invisible_with_bucket_collisions(ray_session, exchange_block_rows, hot_table):
    """REGRESSION (round 5): when two chunks of one hot key reach the SAME
    kernel call, the kernel must keep them separate partitions (CHUNK_COL
    joins the entity factorization) or replicated events double-count.  A
    single exchange input block puts every chunk in one call; unaligned
    chunk_ms yields 10+ distinct chunk ids over the 31d span."""
    import ray.data

    exchange_block_rows(1 << 30)
    left = ray.data.read_parquet(hot_table, columns=["k", "ts"])
    base = features_for_queries(
        _gb(hot_table), left, dedupe_queries=True
    ).to_pandas()
    hot_cfg = HotKeyConfig({"hot"}, chunk_ms=3 * DAY, ts_max=BASE + 31 * DAY)
    left2 = ray.data.read_parquet(hot_table, columns=["k", "ts"])
    chunked = features_for_queries(
        _gb(hot_table), left2, dedupe_queries=True, hot_config=hot_cfg
    ).to_pandas()
    assert len(base) == len(chunked)
    key = ["k", "ts"]
    b = base.sort_values(key).reset_index(drop=True)
    c = chunked.sort_values(key).reset_index(drop=True)
    for col in ("v_sum_7d", "v_sum", "v_count_1d", "v_max_7d"):
        a1, a2 = b[col].astype(float), c[col].astype(float)
        assert ((a1.isna() & a2.isna()) | np.isclose(a1, a2, rtol=1e-9, equal_nan=True)).all(), col
