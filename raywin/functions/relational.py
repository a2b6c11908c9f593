"""Relational helpers on Ray Datasets: scalable grouped aggregation with
map-side partial aggregation, equi-joins, top-k.

The partial+merge pattern mirrors the reference's
``aggregateByKey(seqOp, combOp)`` everywhere (spark/.../GroupBy.scala:129-134):
aggregate inside each batch first (DuckDB over Arrow, zero-copy), shuffle only
the tiny per-batch partials, merge with ``groupby().aggregate``, then apply a
finalize projection.  This keeps the all-to-all exchange proportional to
(#groups x #batches), not #rows.
"""

from __future__ import annotations

import pyarrow as pa

from ray.data.aggregate import Max, Min, Sum

from ..stages.query import map_sql
from ..stages.shuffle import CHUNK_COL, SIDE_COL, _arrow_schema, co_partition, declare_schema, sort_by_key

_MERGE_FNS = {"sum": Sum, "min": Min, "max": Max}


def sql_group_agg(
    ds,
    keys: list[str],
    partials: dict[str, str],
    merge: dict[str, str],
    finals: dict[str, str] | None = None,
    where: str | None = None,
):
    """Grouped aggregation with map-side combine.

    partials: {col: sql_expr} aggregate exprs evaluated per batch (GROUP BY keys)
    merge:    {col: 'sum'|'min'|'max'} how partials combine across batches
    finals:   {out_col: sql_expr over keys+merged cols}; None = passthrough
    """
    where_sql = f" WHERE {where}" if where else ""
    partial_sql = (
        f"SELECT {', '.join(keys)}, "
        + ", ".join(f"({e}) AS {c}" for c, e in partials.items())
        + f" FROM batch{where_sql} GROUP BY {', '.join(keys)}"
    )
    partial = map_sql(ds, partial_sql)
    aggs = [_MERGE_FNS[m](c, alias_name=c) for c, m in merge.items()]
    merged = partial.groupby(keys).aggregate(*aggs)
    if finals is None:
        return merged
    final_sql = (
        f"SELECT {', '.join(keys)}, "
        + ", ".join(f"({e}) AS {c}" for c, e in finals.items())
        + " FROM batch"
    )
    return map_sql(merged, final_sql)


def distinct(ds, cols: list[str]):
    """DISTINCT rows over `cols`: ONE hash-bucket shuffle, then a vectorized
    per-partition first row per distinct `cols` (never one Python call per
    group — the reference's uniqSort analogue, GroupBy.scala:311)."""

    def dd(t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, cols)
        return t.take(pa.array(starts))

    return co_partition(ds, cols, dd)


def min_by_group(ds, group_cols: list[str], order_col: str):
    """Keep the row with min(order_col) per group — vectorized per
    partition; the first such row on ties, and a null group key is a group
    of its own, as in SQL ``GROUP BY``."""

    def pick(t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, group_cols, [(order_col, "ascending")])
        return t.take(pa.array(starts))

    return co_partition(ds, group_cols, pick)


_ARROW_HOW = {"left": "left outer", "right": "right outer", "outer": "full outer"}


class _BucketJoinKernel:
    """co_partition fn: split a call's rows by side tag and hash-join them."""

    def __init__(self, on, how, left_names, right_names):
        self.on = list(on)
        self.how = how
        self.left_names = left_names
        self.right_names = right_names

    def __call__(self, group):
        import pyarrow as pa_

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        return self.join(
            group.filter(pa_.array(side == 0)).select(self.left_names),
            group.filter(pa_.array(side == 1)).select(self.right_names),
        )

    def join(self, lt, rt):
        # Arrow-native hash join: string keys never box (the pandas merge
        # round-trip boxed every key per group).  Single-threaded inside the
        # task — the task already owns exactly one CPU slot.
        return lt.join(
            rt, keys=self.on, join_type=_ARROW_HOW.get(self.how, self.how),
            use_threads=False,
        )


def bucketed_left_join(left_ds, right_ds, on: list[str], how: str = "left"):
    """Partitioned hash join: ONE hash(on) co_partition exchange of both
    sides, then a single-threaded Arrow hash join per partition.  Cheaper
    than spawning per-join aggregator actor pools when the join is one stage
    of a larger pipeline."""
    l_schema, r_schema = _arrow_schema(left_ds), _arrow_schema(right_ds)
    kernel = _BucketJoinKernel(on, how, l_schema.names, r_schema.names)
    out = co_partition([left_ds, right_ds], list(on), kernel)
    # the join of the two empty sides has the output's schema
    return declare_schema(out, kernel.join(l_schema.empty_table(), r_schema.empty_table()).schema)


class _MultiBucketJoinKernel:
    """co_partition fn: split a call's rows by side tag and left-join the
    left side with EVERY right side sequentially (all sides share the join
    key, so one exchange co-locates them all)."""

    def __init__(self, on, left_names, right_names_list):
        self.on = list(on)
        self.left_names = left_names
        self.right_names_list = right_names_list

    def __call__(self, group):
        import pyarrow as pa_

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        return self.join(
            group.filter(pa_.array(side == 0)).select(self.left_names),
            [group.filter(pa_.array(side == i + 1)).select(rn)
             for i, rn in enumerate(self.right_names_list)],
        )

    def join(self, out, rights):
        for rt in rights:
            out = out.join(rt, keys=self.on, join_type="left outer", use_threads=False)
        return out


def bucketed_multi_left_join(left_ds, rights, on: list[str]):
    """left ⟕ SEVERAL right tables that all join on the same key, in ONE
    hash(on) co-partitioning shuffle (instead of one shuffle per right).
    ``rights`` is a list of Datasets; their non-key column names must be
    disjoint from the left's and each other's (prefix them first)."""
    l_schema, r_schemas = _arrow_schema(left_ds), [_arrow_schema(r) for r in rights]
    kernel = _MultiBucketJoinKernel(on, l_schema.names, [r.names for r in r_schemas])
    out = co_partition([left_ds, *rights], list(on), kernel)
    # the join of the empty sides has the output's schema
    return declare_schema(
        out, kernel.join(l_schema.empty_table(), [r.empty_table() for r in r_schemas]).schema
    )


class _RangeJoinKernel:
    """co_partition fn: Arrow equi-join on key+chunk, then a vectorized
    range filter start <= ts < end."""

    def __init__(self, on, left_names, right_names, left_ts, right_start, right_end):
        self.on = list(on)
        self.left_names = left_names
        self.right_names = right_names
        self.left_ts = left_ts
        self.right_start = right_start
        self.right_end = right_end

    def __call__(self, group):
        import pyarrow as pa_
        import pyarrow.compute as pc_

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        lt = group.filter(pa_.array(side == 0)).select(self.left_names + [CHUNK_COL])
        rt = group.filter(pa_.array(side == 1)).select(self.right_names + [CHUNK_COL])
        j = lt.join(
            rt, keys=self.on + [CHUNK_COL], join_type="inner", use_threads=False
        )
        mask = pc_.and_(
            pc_.greater_equal(j[self.left_ts], j[self.right_start]),
            pc_.less(j[self.left_ts], j[self.right_end]),
        )
        return j.filter(mask).drop_columns([CHUNK_COL])


def bucketed_range_join(
    left_ds,
    right_ds,
    on: list[str],
    left_ts: str,
    right_start: str,
    right_end: str,
    chunk_ms: int,
):
    """Keyed interval (range) join: left point rows x right interval rows,
    matching on equi-keys AND ``start <= ts < end`` (end exclusive).

    Scale design — ONE hash(key, time-chunk) co-partitioning exchange:
    each left row lands in exactly ONE chunk (``ts // chunk_ms``); each
    right interval is REPLICATED into every chunk it overlaps
    (``ceil(len/chunk_ms)+1`` copies — bounded when ``chunk_ms`` is sized
    to the typical interval length, ~2x at chunk_ms = max interval).
    Because a left row exists in one chunk only, every match is found
    group-locally and found exactly once — no post-dedup pass.  Per group:
    an Arrow hash join on key+chunk (string keys never box), then a
    vectorized range filter.  No global sort, no driver state; skewed keys
    spread across chunks the same way the hot-key chunking path does.

    Precondition: timestamps/interval bounds are non-negative int64 (epoch
    ms) — co_partition mixes the chunk into the shuffle hash only for
    chunk >= 0.  Non-key column names of the two sides must be disjoint.

    Reference analogue: Chronon expresses interval enrichment as a
    range-filtered scan + join inside Spark
    (spark/src/main/scala/ai/chronon/spark/GroupBy.scala window scan
    ranges); here it is a first-class co-partitioned Ray Data operator.
    """
    import numpy as np_
    import pyarrow as pa_

    l_schema = _arrow_schema(left_ds)
    r_schema = _arrow_schema(right_ds)

    def chunk_left(batch: pa_.Table) -> pa_.Table:
        ts = batch[left_ts].to_numpy(zero_copy_only=False).astype(np_.int64)
        return batch.append_column(
            CHUNK_COL, pa_.array(ts // chunk_ms, type=pa_.int64())
        )

    def replicate_right(batch: pa_.Table) -> pa_.Table:
        s = batch[right_start].to_numpy(zero_copy_only=False).astype(np_.int64)
        e = batch[right_end].to_numpy(zero_copy_only=False).astype(np_.int64)
        c0 = s // chunk_ms
        # end is exclusive; degenerate (empty) intervals still get one copy
        # and are dropped by the range filter
        c1 = np_.maximum((e - 1) // chunk_ms, c0)
        reps = c1 - c0 + 1
        idx = np_.repeat(np_.arange(len(batch), dtype=np_.int64), reps)
        base = np_.cumsum(reps) - reps
        offs = np_.arange(int(reps.sum()), dtype=np_.int64) - np_.repeat(base, reps)
        chunks = c0[idx] + offs
        return batch.take(idx).append_column(CHUNK_COL, pa_.array(chunks, type=pa_.int64()))

    chunk = pa_.field(CHUNK_COL, pa_.int64())
    left = declare_schema(left_ds.map_batches(chunk_left, batch_format="pyarrow"), l_schema.append(chunk))
    right = declare_schema(
        right_ds.map_batches(replicate_right, batch_format="pyarrow"), r_schema.append(chunk)
    )
    kernel = _RangeJoinKernel(
        on, list(l_schema.names), list(r_schema.names), left_ts, right_start, right_end
    )
    return co_partition([left, right], list(on), kernel)


def broadcast_lookup_join(ds, small_df, on: list[str], how: str = "inner"):
    """Join a Dataset against a SMALL pandas table without a shuffle: the
    small side is put in the object store once (ray.put) as Arrow and
    hash-joined per batch (the reference's small-mode key-injection
    analogue, JoinUtils.scala:296-359)."""
    import ray

    small = pa.Table.from_pandas(small_df, preserve_index=False)
    ref = ray.put(small)
    join_type = _ARROW_HOW.get(how, how)

    def merge(batch: pa.Table) -> pa.Table:
        return batch.join(ray.get(ref), keys=on, join_type=join_type, use_threads=False)

    out = ds.map_batches(merge, batch_format="pyarrow")
    # the join of the empty sides has the output's schema
    return declare_schema(out, _arrow_schema(ds).empty_table().join(small, keys=on, join_type=join_type).schema)


def top_k(ds, sort_col: str, k: int, descending: bool = True):
    """Global top-k: per-batch prune to k, then a tiny sort+limit."""
    def prune(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        order = "descending" if descending else "ascending"
        idx = pc.select_k_unstable(batch, k, [(sort_col, order)])
        return batch.take(idx)

    pruned = ds.map_batches(prune, batch_format="pyarrow")
    return pruned.sort(sort_col, descending=descending).limit(k)
