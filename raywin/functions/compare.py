"""Table comparison metrics — the offline half of online/offline consistency.

Re-expresses the reference's CompareMetrics (spark/.../stats/CompareMetrics.
scala:35-218) and EditDistance (stats/EditDistance.scala:16-112) on Ray Data:

- two tables joined on row ids (or keys + ts) into ``{field}_left`` /
  ``{field}_right`` column pairs,
- per-row metric columns computed vectorized in ``map_batches``,
- per-time-bucket aggregation (hourly by default) via one ``co_partition``
  exchange on the bucket — parallelism is by bucket, one vectorized numpy
  pass over every bucket of a call.

Metric families per value field (CompareMetrics.scala:52-130):

==========  =====================================================
universal   both_null / left_null / right_null (SUM), total (COUNT)
non-map     mismatch (SUM of ``l is not null and r is not null and l != r``)
numeric     smape (AVERAGE, 0.0 when either side null or |l|+|r| == 0),
            left_minus_right percentiles (p0 / p50 / p100 here — the
            reference uses a 41-bin APPROX_PERCENTILE sketch; exact
            quantiles per hourly bucket are the dev profile, the binned
            kernel op is the 100-TB path)
list/str    edit_distance insert+delete sums (LCS-based: replacement
            disallowed, inserts/deletes into RIGHT to make it match LEFT,
            EditDistance.scala:46-52)
==========  =====================================================

Scale note: consistency runs over SAMPLED serving logs (the reference gates
on metaData.consistencySamplePercent, ConsistencyJob.scala:57-62), so one
hourly bucket fits a worker; buckets fan out across the cluster.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..stages.shuffle import _arrow_schema, co_partition, declare_schema, sort_by_key

LEFT_SUFFIX = "_left"
RIGHT_SUFFIX = "_right"
HOUR_MS = 3600 * 1000


def edit_distance(left, right) -> tuple[int, int]:
    """(insert, delete) counts into RIGHT to make it equal LEFT.

    Replacement is not allowed, so the distance decomposes over the longest
    common subsequence: insert = len(left) - lcs, delete = len(right) - lcs
    (equivalent to the reference's two-row DP, EditDistance.scala:53-110).
    Works on lists and strings; None counts as empty."""
    l = [] if left is None else list(left)
    r = [] if right is None else list(right)
    if not l or not r:
        return (len(l), len(r))
    # classic LCS DP, one row at a time
    prev = np.zeros(len(l) + 1, dtype=np.int32)
    cur = np.zeros(len(l) + 1, dtype=np.int32)
    for i in range(1, len(r) + 1):
        ri = r[i - 1]
        for j in range(1, len(l) + 1):
            if ri == l[j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev, cur = cur, prev
    lcs = int(prev[len(l)])
    return (len(l) - lcs, len(r) - lcs)


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t)


def _is_sequence(t: pa.DataType) -> bool:
    return pa.types.is_list(t) or pa.types.is_large_list(t)


class RowMetrics:
    """map_batches stage: per-row metric columns for every value field.

    Output: __bucket (time bucket start, ms) + one column per (field,
    metric).  Null-count / mismatch columns are int8 indicator columns the
    bucket aggregation sums; smape / diff are float columns it averages /
    quantiles."""

    def __init__(self, value_fields: list[tuple[str, pa.DataType]],
                 time_column: str = "ts", bucket_minutes: int = 60):
        self.fields = value_fields
        self.time_column = time_column
        self.bucket_ms = bucket_minutes * 60 * 1000

    def schema(self) -> pa.Schema:
        """The output schema: this stage over an empty joined table."""
        cols = {self.time_column: pa.array([], pa.int64())}
        for name, typ in self.fields:
            cols[name + LEFT_SUFFIX] = cols[name + RIGHT_SUFFIX] = pa.array([], typ)
        return self(pa.table(cols)).schema

    def __call__(self, batch: pa.Table) -> pa.Table:
        ts = batch[self.time_column].to_numpy(zero_copy_only=False).astype(np.int64)
        out: dict[str, pa.Array] = {
            "__bucket": pa.array(ts // self.bucket_ms * self.bucket_ms, pa.int64())
        }
        for name, typ in self.fields:
            lcol = batch[name + LEFT_SUFFIX]
            rcol = batch[name + RIGHT_SUFFIX]
            lnull = pa.compute.is_null(lcol).to_numpy(zero_copy_only=False)
            rnull = pa.compute.is_null(rcol).to_numpy(zero_copy_only=False)
            out[f"{name}_both_null"] = pa.array((lnull & rnull).astype(np.int64))
            out[f"{name}_left_null"] = pa.array((lnull & ~rnull).astype(np.int64))
            out[f"{name}_right_null"] = pa.array((~lnull & rnull).astype(np.int64))
            if _is_numeric(typ):
                l = lcol.to_numpy(zero_copy_only=False).astype(np.float64)
                r = rcol.to_numpy(zero_copy_only=False).astype(np.float64)
                both = ~lnull & ~rnull
                denom = np.abs(l) + np.abs(r)
                smape = np.zeros(len(batch))
                ok = both & (denom != 0)
                smape[ok] = 2.0 * np.abs(l[ok] - r[ok]) / denom[ok]
                out[f"{name}_smape"] = pa.array(smape)
                diff = np.where(both, l - r, np.nan)
                out[f"{name}_left_minus_right"] = pa.array(diff)
                out[f"{name}_mismatch"] = pa.array(
                    (both & (l != r)).astype(np.int64)
                )
            elif _is_sequence(typ):
                lv = lcol.to_pylist()
                rv = rcol.to_pylist()
                ins = np.zeros(len(batch), dtype=np.int64)
                dele = np.zeros(len(batch), dtype=np.int64)
                mism = np.zeros(len(batch), dtype=np.int64)
                for i, (a, b) in enumerate(zip(lv, rv)):
                    if a is None or b is None:
                        continue
                    i_, d_ = edit_distance(a, b)
                    ins[i], dele[i] = i_, d_
                    mism[i] = int(list(a) != list(b))
                out[f"{name}_edit_insert"] = pa.array(ins)
                out[f"{name}_edit_delete"] = pa.array(dele)
                out[f"{name}_mismatch"] = pa.array(mism)
            elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
                import pyarrow.compute as pc

                both = ~lnull & ~rnull
                neq = pc.not_equal(
                    pc.fill_null(lcol, ""), pc.fill_null(rcol, "")
                ).to_numpy(zero_copy_only=False)
                out[f"{name}_mismatch"] = pa.array(
                    (both & neq).astype(np.int64)
                )
            else:  # map and other exotic types: stringified equality only
                lv = lcol.to_pylist()
                rv = rcol.to_pylist()
                mism = np.array(
                    [
                        0 if (a is None or b is None) else int(str(a) != str(b))
                        for a, b in zip(lv, rv)
                    ],
                    dtype=np.int64,
                )
                out[f"{name}_mismatch"] = pa.array(mism)
        return pa.Table.from_pydict(out)


def _quantiles(gid: np.ndarray, vals: np.ndarray, n_groups: int, qs) -> list[np.ndarray]:
    """np.quantile (linear, NaN skipped) of ``vals`` per group id in one
    sort: one array per q, NaN for a group without values."""
    ok = ~np.isnan(vals)
    order = np.lexsort((vals[ok], gid[ok]))
    v = vals[ok][order]
    cnt = np.bincount(gid[ok], minlength=n_groups)
    has = cnt > 0
    first = (np.cumsum(cnt) - cnt)[has]
    out = []
    for q in qs:
        pos = (cnt[has] - 1) * q
        lo, t = np.floor(pos).astype(np.int64), pos % 1
        a, b = v[first + lo], v[first + np.ceil(pos).astype(np.int64)]
        r = np.full(n_groups, np.nan)
        r[has] = a + (b - a) * t
        out.append(r)
    return out


class BucketFinalize:
    """co_partition fn: one row per time bucket of the call — sums,
    averages and exact quantiles, each one vectorized pass over the
    call's buckets."""

    def __init__(self, value_fields: list[tuple[str, pa.DataType]]):
        self.fields = value_fields

    def __call__(self, t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, ["__bucket"])
        n = np.diff(np.append(starts, len(t)))

        def sums(col):
            return np.add.reduceat(t[col].to_numpy(zero_copy_only=False), starts)

        row: dict[str, np.ndarray] = {"ts_bucket": t["__bucket"].to_numpy()[starts]}
        for name, typ in self.fields:
            for m in ("both_null", "left_null", "right_null"):
                row[f"{name}_{m}"] = sums(f"{name}_{m}")
            row[f"{name}_total"] = n
            if f"{name}_mismatch" in t.column_names:
                row[f"{name}_mismatch"] = sums(f"{name}_mismatch")
            if _is_numeric(typ):
                row[f"{name}_smape"] = sums(f"{name}_smape") / n
                d = t[f"{name}_left_minus_right"].to_numpy(zero_copy_only=False)
                gid = np.repeat(np.arange(len(n)), n)
                for p, col in zip((0, 50, 100), _quantiles(gid, d, len(n), (0.0, 0.5, 1.0))):
                    row[f"{name}_left_minus_right_p{p}"] = col
            elif _is_sequence(typ):
                row[f"{name}_edit_insert"] = sums(f"{name}_edit_insert")
                row[f"{name}_edit_delete"] = sums(f"{name}_edit_delete")
        return pa.table(row)


def compare_joined(joined_ds, value_fields: list[tuple[str, pa.DataType]],
                   time_column: str = "ts", bucket_minutes: int = 60):
    """Metrics over an already-joined table with _left/_right column pairs."""
    metrics, fin = RowMetrics(value_fields, time_column, bucket_minutes), BucketFinalize(value_fields)
    schema = metrics.schema()
    rows = declare_schema(joined_ds.map_batches(metrics, batch_format="pyarrow"), schema)
    return declare_schema(co_partition(rows, ["__bucket"], fin), fin(schema.empty_table()).schema)


def compare_tables(left_ds, right_ds, keys: list[str],
                   value_fields: list[tuple[str, pa.DataType]],
                   time_column: str = "ts", bucket_minutes: int = 60):
    """CompareJob equivalent (stats/CompareJob.scala): join two tables on
    row keys, compute per-field consistency metrics per time bucket.

    The time column rides from the LEFT side.  Row keys must uniquely
    identify rows on each side (the reference asserts keys coverage,
    CompareBaseJob.scala:60-105)."""
    from ..functions.relational import bucketed_left_join

    def renamed(ds, suffix):
        """ds with its value columns suffixed, declared (rename_columns
        does not carry a declared schema)."""
        ren = {c: c + suffix for c, _ in value_fields}
        schema = pa.schema([f.with_name(ren.get(f.name, f.name)) for f in _arrow_schema(ds)])
        return declare_schema(ds.rename_columns(ren), schema), schema

    l, _ = renamed(left_ds, LEFT_SUFFIX)
    r, r_schema = renamed(right_ds, RIGHT_SUFFIX)
    keep_r = [c for c in keys + [c + RIGHT_SUFFIX for c, _ in value_fields] if c != time_column]
    r = declare_schema(r.select_columns(keep_r), pa.schema([r_schema.field(c) for c in keep_r]))
    joined = bucketed_left_join(
        l, r, [k for k in keys if k != time_column]
    )
    return compare_joined(joined, value_fields, time_column, bucket_minutes)
