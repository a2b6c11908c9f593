"""The co_partition fns that rank or reduce per key: ANN top-k, stratified
sample, compare bucket metrics and the k-means combine.  With every key in
one exchange call (a huge ``exchange_block_rows``), each must still equal a
per-group pandas reference: a fn that assumed one group per call would mix
the keys it holds.  Plus: a null group key is a group of its own in
``min_by_group`` and ``stratified_sample``, as in SQL ``GROUP BY``."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

ONE_CALL = 1 << 30


def _corpus(n=240, dim=6, seed=11):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    vecs[n // 2 :] = vecs[: n - n // 2]  # exact duplicates: equal-sim ties broken by id
    return pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
        "label": pa.array([None if i % 7 == 0 else f"c{i % 3}" for i in range(n)], pa.string()),
    })


def _ds(t: pa.Table):
    import ray.data

    return ray.data.from_arrow([t.slice(0, len(t) // 2), t.slice(len(t) // 2)])


@pytest.mark.parametrize("method", ["brute", "lsh", "ivf"])
def test_ann_topk_in_one_call_matches_per_query_reference(ray_session, exchange_block_rows, method):
    """Every query's candidates in one call; LSH probing every signature and
    IVF probing every cell are exact, so all three equal the reference."""
    from raywin.stages.ann import brute_force_topk, ivf_bucketed_topk, lsh_bucketed_topk

    exchange_block_rows(ONE_CALL)
    t = _corpus()
    vecs = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    qvecs, qids, k = vecs[[3, 50, 200, 7, 121]], [30, 10, 20, 40, 50], 4
    run = {
        "brute": lambda ds: brute_force_topk(ds, qvecs, qids, "embedding", "vec_id", k),
        "lsh": lambda ds: lsh_bucketed_topk(ds, qvecs, qids, "embedding", "vec_id", k, n_planes=3, multiprobe=3),
        "ivf": lambda ds: ivf_bucketed_topk(ds, qvecs, qids, "embedding", "vec_id", k, n_centroids=4, nprobe=4),
    }[method]
    got = run(_ds(t)).to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)

    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    rows = []
    for qid, q in zip(qids, qvecs):
        g = pd.DataFrame({"query_id": qid, "vec_id": np.arange(len(vecs)), "sim": unit @ (q / np.linalg.norm(q))})
        g = g.sort_values(["sim", "vec_id"], ascending=[False, True]).head(k)
        rows.append(g.assign(rank=np.arange(1, k + 1)))
    want = pd.concat(rows).sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert got[["query_id", "vec_id", "rank"]].values.tolist() == want[["query_id", "vec_id", "rank"]].values.tolist()
    np.testing.assert_allclose(got["sim"], want["sim"], rtol=1e-12)


def _stratified_reference(t: pa.Table, n: int) -> pd.DataFrame:
    from raywin.stages.splits import hash_ids

    df = t.select(["vec_id", "label"]).to_pandas()
    df["__h"] = hash_ids(df["vec_id"].to_numpy())
    df = df.sort_values(["__h", "vec_id"])
    df["rank"] = df.groupby("label", dropna=False).cumcount() + 1
    return df[df["rank"] <= n].drop(columns="__h")


def _by_stratum(df: pd.DataFrame) -> list:
    return sorted(df[["label", "vec_id", "rank"]].astype(object).where(df.notna(), None).values.tolist(),
                  key=lambda r: (str(r[0]), r[2]))


def test_stratified_sample_in_one_call_matches_per_stratum_reference(ray_session, exchange_block_rows):
    from raywin.stages.splits import stratified_sample

    exchange_block_rows(ONE_CALL)
    t = _corpus()
    got = stratified_sample(_ds(t), "label", "vec_id", 6).to_pandas()
    assert got["label"].nunique(dropna=False) == 4
    assert _by_stratum(got) == _by_stratum(_stratified_reference(t, 6))


def test_stratified_sample_samples_the_null_stratum(ray_session):
    """REGRESSION: the per-block prune grouped strata with pandas, whose
    groupby drops null keys, so the null stratum was never sampled."""
    from raywin.stages.splits import stratified_sample

    t = _corpus()
    got = stratified_sample(_ds(t), "label", "vec_id", 3).to_pandas()
    want = _stratified_reference(t, 3)
    assert _by_stratum(got[got["label"].isna()]) == _by_stratum(want[want["label"].isna()])
    assert got["label"].isna().sum() == 3


def test_min_by_group_keeps_the_null_group(ray_session):
    """REGRESSION: min_by_group picked rows with pandas' groupby, which
    drops null keys, so every row whose group key is null was lost."""
    import ray.data

    from raywin.functions.relational import min_by_group

    t = pa.table({
        "g": pa.array(["a", None, "a", None, "b", None], pa.string()),
        "n": pa.array([1, None, 1, None, 2, 3], pa.int64()),
        "o": pa.array([5, 4, 2, 1, 9, 0], pa.int64()),
        "rid": pa.array(range(6), pa.int64()),
    })
    got = min_by_group(ray.data.from_arrow(t), ["g", "n"], "o").to_pandas()
    assert sorted(got["rid"]) == [2, 3, 4, 5]


def _joined(n=400, seed=4):
    rng = np.random.default_rng(seed)
    score = rng.normal(0, 1, n)
    right = np.where(rng.random(n) < 0.2, score + 0.5, score)
    nulls_l, nulls_r = rng.random(n) < 0.1, rng.random(n) < 0.15
    etype = rng.choice(["x", "y", "z"], n)
    return pa.table({
        "ts": pa.array(rng.integers(0, 12 * 3_600_000, n), pa.int64()),
        "score_left": pa.array(score, mask=nulls_l),
        "score_right": pa.array(right, mask=nulls_r),
        "etype_left": pa.array(etype, mask=nulls_r & ~nulls_l),
        "etype_right": pa.array(np.where(rng.random(n) < 0.1, "w", etype)),
    })


def _compare_reference(t: pa.Table) -> pd.DataFrame:
    df = t.to_pandas()
    df["ts_bucket"] = df["ts"] // 3_600_000 * 3_600_000
    rows = []
    for b, g in df.groupby("ts_bucket"):
        row = {"ts_bucket": b}
        for f in ("score", "etype"):
            ln, rn = g[f + "_left"].isna(), g[f + "_right"].isna()
            row.update({f"{f}_both_null": (ln & rn).sum(), f"{f}_left_null": (ln & ~rn).sum(),
                        f"{f}_right_null": (~ln & rn).sum(), f"{f}_total": len(g),
                        f"{f}_mismatch": (~ln & ~rn & (g[f + "_left"] != g[f + "_right"])).sum()})
        l, r = g["score_left"], g["score_right"]
        both = l.notna() & r.notna()
        denom = l.abs() + r.abs()
        row["score_smape"] = np.where(both & (denom != 0), 2 * (l - r).abs() / denom, 0.0).mean()
        d = (l - r)[both].to_numpy()
        for p, v in zip((0, 50, 100), np.quantile(d, [0, 0.5, 1]) if len(d) else [np.nan] * 3):
            row[f"score_left_minus_right_p{p}"] = v
        rows.append(row)
    return pd.DataFrame(rows)


def test_compare_joined_in_one_call_matches_per_bucket_reference(ray_session, exchange_block_rows):
    import ray.data

    from raywin.functions.compare import compare_joined

    exchange_block_rows(ONE_CALL)
    t = _joined()
    got = compare_joined(ray.data.from_arrow(t), [("score", pa.float64()), ("etype", pa.string())]).to_pandas()
    want = _compare_reference(t)
    assert len(got) == 12
    got = got.sort_values("ts_bucket").reset_index(drop=True)[list(want.columns)]
    pd.testing.assert_frame_equal(got, want, check_dtype=False, rtol=1e-12)


def test_kmeans_fit_in_one_call_matches_per_cluster_reference(ray_session, exchange_block_rows):
    """Several blocks' partials of every cluster meet in one combine call."""
    import ray.data

    from raywin.stages.kmeans import kmeans_fit

    exchange_block_rows(ONE_CALL)
    t = _corpus()
    vecs = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    ds = ray.data.from_arrow([t.slice(i, 40) for i in range(0, len(t), 40)])
    cids, cents = kmeans_fit(ds, "embedding", "vec_id", k=5, iters=3)

    want = vecs[:5].copy()
    want_ids = np.arange(5)
    for _ in range(3):
        a = np.argmin(((vecs[:, None, :] - want[None, :, :]) ** 2).sum(axis=2), axis=1)
        df = pd.DataFrame(vecs).assign(c=a)
        means = df.groupby("c").mean()
        want, want_ids = means.to_numpy(), want_ids[means.index.to_numpy()]
    assert cids.tolist() == want_ids.tolist()
    np.testing.assert_allclose(cents, want, rtol=1e-12, atol=1e-12)
