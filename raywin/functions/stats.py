"""Analyzer / data-quality statistics over Datasets.

Mirrors the reference's StatsGenerator / Analyzer surface
(aggregator/.../row/StatsGenerator.scala:66-187, spark/.../Analyzer.scala:116-190):
per-column null counts + moments + percentile series via mergeable sketches,
heavy-hitter detection (stages/shuffle.detect_hot_keys), and distribution
drift between two datasets (PSI / Hellinger, StatsGenerator.scala:134-174).

All computed with map-side partials: one tiny row per (batch, column) rides
the shuffle, never the data.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..aggregator.sketches import QuantileSketch


def summary_stats(ds, columns: list[str], percentiles=(0.25, 0.5, 0.75, 0.95)):
    """Per-column summary: rows, nulls, mean, std(population), min, max +
    approx percentiles.  Returns a small pandas DataFrame (one row/column)."""

    def partial(batch: pa.Table) -> pa.Table:
        rows = []
        for col in columns:
            arr = batch[col].to_numpy(zero_copy_only=False)
            if arr.dtype.kind in "if":
                valid = arr[~pd.isna(arr)]
            else:
                valid = arr[pd.notna(arr)]
            n = len(arr)
            nn = len(valid)
            numeric = valid.astype(np.float64) if nn and str(valid.dtype) != "object" else None
            if numeric is None and nn:
                try:
                    numeric = valid.astype(np.float64)
                except (ValueError, TypeError):
                    numeric = None
            sk = QuantileSketch(128)
            if numeric is not None and nn:
                sk.add_many(numeric)
                s, s2 = float(numeric.sum()), float((numeric**2).sum())
                mn, mx = float(numeric.min()), float(numeric.max())
            else:
                s = s2 = 0.0
                mn, mx = np.inf, -np.inf
            rows.append(
                {
                    "column": col,
                    "rows": n,
                    "nulls": n - nn,
                    "sum": s,
                    "sum_sq": s2,
                    "min": mn,
                    "max": mx,
                    "sketch": sk.to_bytes(),
                }
            )
        return pa.Table.from_pylist(rows)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    out = []
    for col, g in parts.groupby("column"):
        rows = int(g["rows"].sum())
        nulls = int(g["nulls"].sum())
        nn = rows - nulls
        sk = QuantileSketch(128)
        for blob in g["sketch"]:
            sk.merge_in(QuantileSketch.from_bytes(blob))
        s, s2 = g["sum"].sum(), g["sum_sq"].sum()
        mean = s / nn if nn else np.nan
        var = s2 / nn - mean * mean if nn else np.nan
        rec = {
            "column": col,
            "rows": rows,
            "nulls": nulls,
            "null_rate": nulls / rows if rows else np.nan,
            "mean": mean,
            "std": np.sqrt(max(var, 0.0)) if nn else np.nan,
            "min": g["min"].min() if nn else np.nan,
            "max": g["max"].max() if nn else np.nan,
        }
        for p in percentiles:
            rec[f"p{int(p * 100)}"] = sk.quantile(p)
        out.append(rec)
    return pd.DataFrame(out).sort_values("column").reset_index(drop=True)


def _histogram(ds, column: str, edges: np.ndarray) -> np.ndarray:
    def partial(batch: pa.Table) -> pa.Table:
        arr = batch[column].to_numpy(zero_copy_only=False).astype(np.float64)
        arr = arr[~np.isnan(arr)]
        counts, _ = np.histogram(arr, bins=edges)
        return pa.table({"bin": np.arange(len(counts)), "cnt": counts})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return parts.groupby("bin")["cnt"].sum().reindex(range(len(edges) - 1), fill_value=0).to_numpy()


def drift(ds_a, ds_b, column: str, bins: int = 20) -> dict:
    """Distribution drift between two datasets on a numeric column:
    PSI (population stability index) and Hellinger distance
    (StatsGenerator.scala:134-174 equivalents)."""
    probe = summary_stats(ds_a, [column], percentiles=(0.01, 0.99)).iloc[0]
    lo, hi = probe["p1"], probe["p99"]
    if not np.isfinite(lo) or not np.isfinite(hi) or lo == hi:
        lo, hi = probe["min"], probe["max"] + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    edges[0], edges[-1] = -np.inf, np.inf
    ha = _histogram(ds_a, column, edges).astype(np.float64)
    hb = _histogram(ds_b, column, edges).astype(np.float64)
    pa_ = np.maximum(ha / max(ha.sum(), 1), 1e-6)
    pb_ = np.maximum(hb / max(hb.sum(), 1), 1e-6)
    psi = float(np.sum((pa_ - pb_) * np.log(pa_ / pb_)))
    hellinger = float(np.sqrt(0.5 * np.sum((np.sqrt(pa_) - np.sqrt(pb_)) ** 2)))
    return {"psi": psi, "hellinger": hellinger, "bins": bins}


def exact_quantile_by_counting(ds, col: str, q: float):
    """EXACT corpus quantile of an integer-valued (or low-cardinality) column
    by distributed counting: per-batch (value, count) partials ride one
    value-keyed exchange; the threshold is the smallest v whose cumulative
    count reaches ceil(q * N) — the classic rank-by-histogram trick.

    Scale shape: the exchange and the driver merge are bounded by the
    column's CARDINALITY (an int score: thousands of distinct values), never
    the row count, so this stays exact at 10^12 rows.  For continuous
    unbounded scores use the mergeable QuantileSketch (summary_stats)
    instead."""
    import math

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[col])
        return pa.table(
            {"v": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded by cardinality, not rows
        .sort_values("v")
    )
    n = int(counts["cnt"].sum())
    k = math.ceil(q * n)
    return counts.loc[counts["cnt"].cumsum() >= k, "v"].iloc[0]


def percentile_rank_column(ds, col: str, out_col: str = "pct_rank",
                           keep_cols: list | None = None):
    """Percentile-rank normalization of an integer-valued (or
    low-cardinality) column against the FULL corpus distribution:
    out = #rows with value <= v / N (SQL cume_dist).  Pass 1 builds the
    (value, cumulative-count) table by the same distributed counting as
    exact_quantile_by_counting — bounded by cardinality, never rows; pass 2
    broadcasts that small table into a map_batches searchsorted, so the
    scoring pass is shuffle-free.  Exact across engines: both sides divide
    the identical integer cum by the identical integer N."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch[col])
        return pa.table(
            {"v": vc.field("values"), "cnt": vc.field("counts").cast(pa.int64())}
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # bounded by cardinality, not rows
        .sort_values("v")
    )
    values = counts["v"].to_numpy()
    cum = counts["cnt"].cumsum().to_numpy(dtype=np.int64)
    n_total = int(cum[-1]) if len(cum) else 0
    cols = keep_cols if keep_cols is not None else [c for c in ds.schema().names]

    def score(batch: pa.Table) -> pa.Table:
        ranks = _cume_dist(values, cum, n_total, batch[col])
        return batch.select(cols).append_column(out_col, ranks)

    return ds.map_batches(score, batch_format="pyarrow")


def _cume_dist(values, cum, n_total: int, x: pa.ChunkedArray) -> pa.Array:
    """#corpus rows with value <= x / n_total, from the corpus' sorted
    distinct values and their cumulative counts: 0.0 below the corpus
    minimum, null for a null x."""
    pos = np.searchsorted(values, x.to_numpy(), side="right") - 1
    ranks = np.where(pos >= 0, cum[np.maximum(pos, 0)], 0) / n_total
    return pa.array(ranks, pa.float64(), mask=x.is_null().to_numpy())


def robust_outlier_flags(ds, key_col: str, value_col: str, k: float = 3.0):
    """Per-group robust outlier flags (median / MAD, the data-quality
    screen that doesn't let the outliers move their own threshold the way
    mean/std do): a row is flagged when |v - median| > k * MAD, both
    statistics the EXACT lower-median element of the group's own data
    (quantile_disc semantics), so every emitted number is an element or an
    exact arithmetic combination of input doubles — bit-exact cross-engine.

    Scale shape: ONE hash-bucket exchange keyed by the group column; both
    medians come from two vectorized lexsorts per partition (no per-group
    Python).  A group with MAD = 0 (more than half its values equal the
    median) flags every value that differs from the median at all, since
    |v - med| > 0; constant groups and singletons flag nothing.  Returns
    the input columns + (med, mad, is_outlier)."""
    from ..stages.shuffle import co_partition, sort_by_key

    def flag(t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, [key_col])
        n = len(t)
        cnts = np.diff(np.r_[starts, n])
        gidx = np.repeat(np.arange(len(starts)), cnts)
        vals = t[value_col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.lexsort((vals, gidx))
        vs = vals[order]
        med_idx = starts + (cnts - 1) // 2
        med_sorted = vs[med_idx][gidx]
        dev_sorted = np.abs(vs - med_sorted)
        # second per-group sort on deviations: same boundaries (groups lead)
        order2 = np.lexsort((dev_sorted, gidx))
        mad_sorted = dev_sorted[order2][med_idx][gidx]
        med = np.empty(n)
        mad = np.empty(n)
        med[order] = med_sorted
        mad[order] = mad_sorted
        return t.append_column("med", pa.array(med)).append_column("mad", pa.array(mad)) \
            .append_column("is_outlier", pa.array(np.abs(vals - med) > k * mad))

    return co_partition(ds, [key_col], flag)
