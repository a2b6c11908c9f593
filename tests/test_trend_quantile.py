"""Trend aggregates and exact counting-quantile vs local numpy recomputes."""

import math

import numpy as np
import pandas as pd
import pytest


def test_exact_quantile_by_counting(ray_session):
    import ray.data

    from raywin.functions.stats import exact_quantile_by_counting

    rng = np.random.default_rng(3)
    vals = rng.integers(0, 50, 997)
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(7)
    srt = np.sort(vals)
    for q in (0.1, 0.5, 0.9, 1.0):
        got = exact_quantile_by_counting(ds, "v", q)
        # smallest value whose cumulative count reaches ceil(q*N)
        want = srt[math.ceil(q * len(vals)) - 1]
        assert got == want, (q, got, want)


def test_user_trend_matches_polyfit(ray_session, tmp_path):
    """Distributed partial+merge slope/intercept/corr == numpy lstsq/corrcoef
    on the same (days-since-base, value) pairs."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.pipelines.catalog import _TREND_BASE_MS, user_trend

    rng = np.random.default_rng(5)
    n = 600
    users = rng.integers(0, 8, n)
    ts_ms = _TREND_BASE_MS + rng.integers(0, 400 * 86400000, n)
    vals = rng.normal(10, 3, n) + users * 0.01 * (ts_ms - _TREND_BASE_MS) / 86400000.0
    tbl = pa.table(
        {
            "user_id": pa.array(users, pa.int64()),
            "ts": pa.array(ts_ms * 1000, pa.timestamp("us")),
            "value": pa.array(vals, pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    out = user_trend(str(tmp_path)).to_pandas().set_index("user_id").sort_index()
    x_all = (ts_ms - _TREND_BASE_MS) / 86400000.0
    for u in range(8):
        m = users == u
        x, y = x_all[m], vals[m]
        slope, intercept = np.polyfit(x, y, 1)
        corr = np.corrcoef(x, y)[0, 1]
        row = out.loc[u]
        assert row["n_events"] == m.sum()
        assert row["value_slope_per_day"] == pytest.approx(slope, rel=1e-9)
        assert row["value_intercept"] == pytest.approx(intercept, rel=1e-9)
        assert row["corr_ts_value"] == pytest.approx(corr, rel=1e-9)


def test_user_trend_degenerate_single_event(ray_session, tmp_path):
    """A single-event user has zero x-variance: slope/intercept/corr NULL."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from raywin.pipelines.catalog import _TREND_BASE_MS, user_trend

    tbl = pa.table(
        {
            "user_id": pa.array([1], pa.int64()),
            "ts": pa.array([(_TREND_BASE_MS + 1000) * 1000], pa.timestamp("us")),
            "value": pa.array([5.0], pa.float64()),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    out = user_trend(str(tmp_path)).to_pandas()
    assert out["n_events"].tolist() == [1]
    assert out["value_slope_per_day"].isna().all()
    assert out["corr_ts_value"].isna().all()


def test_percentile_rank_column(ray_session):
    """pct_rank equals the cume_dist definition (#values <= v / N) exactly,
    ties included."""
    import ray.data

    from raywin.functions.stats import percentile_rank_column

    rng = np.random.default_rng(9)
    vals = rng.integers(0, 10, 200)
    ds = ray.data.from_pandas(
        pd.DataFrame({"id": np.arange(200), "v": vals})
    ).repartition(5)
    out = (
        percentile_rank_column(ds, "v", keep_cols=["id", "v"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = np.array([(vals <= v).sum() for v in vals]) / len(vals)
    assert np.array_equal(out["pct_rank"].to_numpy(), want)


def test_percentile_rank_column_nulls_and_below_minimum(ray_session):
    """A null value ranks null (not 1.0); non-null ranks still count every
    corpus row in N.  A value below the corpus minimum ranks 0.0."""
    import pyarrow as pa
    import ray.data

    from raywin.functions.stats import _cume_dist, percentile_rank_column

    df = pd.DataFrame({"id": range(5), "v": pd.array([1, 2, 2, None, 5], dtype="Int64")})
    out = (
        percentile_rank_column(ray.data.from_pandas(df), "v", keep_cols=["id"])
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert pd.isna(out["pct_rank"].iloc[3])
    assert out["pct_rank"].drop(index=3).tolist() == [1 / 5, 3 / 5, 3 / 5, 4 / 5]

    values, cum = np.array([3, 5, 7]), np.array([1, 3, 4])
    x = pa.chunked_array([pa.array([-10, 2, 3, 6, 7, 99, None])])
    assert _cume_dist(values, cum, 4, x).to_pylist() == [0.0, 0.0, 0.25, 0.75, 1.0, 1.0, None]


def test_chunk_documents_edges(ray_session):
    """Window rule k*stride < n_tokens: boundary, short, and empty docs."""
    import ray.data

    from raywin.stages.text import chunk_documents

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                " ".join(f"w{i}" for i in range(7)),  # n=7, chunk 3 stride 2 -> 4 chunks
                "a b",                                 # one short chunk
                "x",                                   # single token
                "",                                    # no chunks
            ],
        }
    )
    out = (
        chunk_documents(ray.data.from_pandas(docs), "text", "doc_id",
                        chunk=3, stride=2)
        .to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 1, 1, 1, 2, 3]
    assert out["chunk_idx"].tolist() == [0, 1, 2, 3, 0, 0]
    assert out["n_chunk_tokens"].tolist() == [3, 3, 3, 1, 2, 1]
    assert out.loc[3, "chunk_text"] == "w6"
    assert out.loc[0, "chunk_text"] == "w0 w1 w2"
    assert out.loc[4, "chunk_text"] == "a b"


def test_token_pack_matches_serial(ray_session, exchange_block_rows):
    """Distributed two-level prefix sum == serial cumsum, across range and
    block boundaries, with zero-token docs dropped."""
    import ray.data

    from raywin.stages.splits import token_pack

    exchange_block_rows(64)
    rng = np.random.default_rng(13)
    n = 237
    ntok = rng.integers(0, 9, n)  # includes zeros
    ids = np.arange(n, dtype=np.int64)
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": ids, "n_tok": ntok})
    ).repartition(9)
    block, width = 16, 10  # small range width: many cross-range carries
    out = (
        token_pack(ds, "doc_id", "n_tok", block=block, range_width=width)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    start_all = np.concatenate([[0], np.cumsum(ntok[:-1])])
    keep = ntok > 0
    assert out["doc_id"].tolist() == ids[keep].tolist()
    assert out["start_tok"].tolist() == start_all[keep].tolist()
    assert out["block_first"].tolist() == (start_all[keep] // block).tolist()
    assert out["block_last"].tolist() == (
        (start_all[keep] + ntok[keep] - 1) // block
    ).tolist()


def test_robust_outlier_flags(ray_session, exchange_block_rows):
    """median/MAD flags vs a per-group brute force; constant groups (MAD=0)
    and singletons flag nothing."""
    import ray.data

    from raywin.functions.stats import robust_outlier_flags

    exchange_block_rows(32)
    rng = np.random.default_rng(17)
    base = rng.normal(0, 1, 120)
    base[::17] += 40  # planted spikes
    df = pd.DataFrame(
        {
            "rid": np.arange(126),
            "grp": np.r_[np.repeat([1, 2, 3], 40), [4, 4, 4, 5, 6, 7]],
            "v": np.r_[base, [9.0, 9.0, 9.0], [2.0], [3.0], [4.0]],
        }
    )
    out = (
        robust_outlier_flags(
            ray.data.from_pandas(df).repartition(5), "grp", "v", k=3.0,
        )
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    for g, sub in df.groupby("grp"):
        vs = np.sort(sub["v"].to_numpy())
        med = vs[(len(vs) - 1) // 2]
        dev = np.sort(np.abs(sub["v"].to_numpy() - med))
        mad = dev[(len(dev) - 1) // 2]
        rows = out[out["grp"] == g].set_index("rid")
        assert (rows["med"] == med).all() and (rows["mad"] == mad).all()
        want = np.abs(sub.set_index("rid")["v"] - med) > 3 * mad
        assert rows["is_outlier"].equals(want)
    # constant + singleton groups flag nothing
    assert not out[out["grp"] >= 4]["is_outlier"].any()
    # the planted spikes are caught
    assert out[out["grp"] <= 3]["is_outlier"].sum() >= 6


def test_robust_outlier_flags_zero_mad_flags_every_deviation(ray_session):
    """MAD = 0 (most of the group equals the median): every value that
    differs from the median is flagged, however small the difference."""
    import ray.data

    from raywin.functions.stats import robust_outlier_flags

    df = pd.DataFrame({"rid": range(6), "grp": [1] * 6,
                       "v": [5.0, 5.0, 5.0, 5.0, 5.001, 9.0]})
    out = (
        robust_outlier_flags(ray.data.from_pandas(df), "grp", "v")
        .to_pandas().sort_values("rid").reset_index(drop=True)
    )
    assert (out["med"] == 5.0).all() and (out["mad"] == 0.0).all()
    assert out["is_outlier"].tolist() == [False] * 4 + [True, True]
