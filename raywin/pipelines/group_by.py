"""GroupBy backfill pipelines — Ray-Data-native temporal & snapshot modes.

Dataflow for TEMPORAL accuracy (the reference's temporalEvents,
spark/.../GroupBy.scala:279-358, re-expressed Ray-Data-first):

    right = scan sources (projection pushdown, Query layer)      [stateless]
    left  = query rows (keys..., ts)                             [stateless]
    both  -> co_partition(keys, PartitionKernel): pad to one
             schema, tag __side, union, sort on hash(keys),
             one kernel call per sort partition                  [the shuffle]
          -> Arrow feature rows, one per left (keys, ts)

One all-to-all exchange total: both sides co-partition in a single
``co_partition`` (stages/shuffle.py), which hands PartitionKernel each
partition as an Arrow table with the padded side schema's types, and the
vectorized kernel (aggregator/kernel.py) does the per-partition sort +
sawtooth window evaluation.  The kernel answers each aggregation part with
one Arrow array of its declared type (``kernel.output_type``), which
PartitionKernel appends to the reordered query rows as is.  This replaces the
reference's three-way leftOuterJoin topology (GroupBy.scala:340-355) with an
equivalent single-shuffle union join.

SNAPSHOT accuracy (reference snapshotEvents, GroupBy.scala:144-169): queries
are synthesized at day-end boundaries per (key, ds) and the same kernel runs
with DailyResolution.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import MILLIS_DAY, Accuracy, AggregationPart, GroupBy
from ..aggregator.kernel import PartitionAggregator, output_type
from ..aggregator.windowing import DailyResolution, FiveMinuteResolution
from ..sources.io import scan_source, union_sources
from ..stages.query import apply_derivations
from ..stages.shuffle import SIDE_COL, _arrow_schema, co_partition, declare_schema


class PartitionKernel:
    """co_partition fn: split a co-partitioned block into (events,
    queries), run the vectorized PartitionAggregator, and append its
    answer arrays to the reordered queries."""

    def __init__(
        self,
        key_cols: list[str],
        parts: list[AggregationPart],
        left_schema: pa.Schema,
        input_types: dict[str, pa.DataType],
        resolution=FiveMinuteResolution,
        head_rounding: int = 1,
        tie_breaker: str | None = None,
        dedupe_queries: bool = False,
    ):
        self.key_cols = key_cols
        self.parts = parts
        self.left_schema = left_schema
        self.resolution = resolution
        self.head_rounding = head_rounding
        self.tie_breaker = tie_breaker
        self.out_fields = [
            pa.field(p.output_column, output_type(p, input_types[p.input_column]))
            for p in parts
        ]
        self.agg = PartitionAggregator(
            key_cols, parts, resolution, head_rounding, tie_breaker, dedupe_queries
        )

    def __call__(self, group: pa.Table) -> pa.Table:
        from ..stages.shuffle import CHUNK_COL

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        left_names = [n for n in self.left_schema.names]
        is_left = side == 0
        # hot-key time chunking: the chunk id joins the entity key on BOTH
        # sides, so two chunks of one key that share this sort partition
        # (it holds a range of hashes) stay separate kernel groups
        chunked = CHUNK_COL in group.column_names
        lt_names = left_names + ([CHUNK_COL] if chunked else [])
        lt = group.filter(pa.array(is_left)).select(lt_names)
        rt_names = [
            n for n in group.column_names if n != SIDE_COL and n not in left_names
        ] + self.key_cols + ["ts"]
        rt = group.filter(pa.array(~is_left)).select(list(dict.fromkeys(rt_names)))
        out_schema = pa.schema(list(self.left_schema) + self.out_fields)
        if lt.num_rows == 0:
            return out_schema.empty_table()
        # Arrow-native kernel ingestion: only the columns the kernel actually
        # touches (keys, ts, aggregation inputs) convert to numpy — map
        # columns via per-column maps_as_pydicts — and the query passthrough
        # payload is reordered with Table.take, never boxed through pandas.
        q_order, results = self.agg.aggregate_tables(
            rt, lt, extra_key_cols=(CHUNK_COL,) if chunked else ()
        )
        # co_partition hands the partition over with the declared types, so
        # the kernel's answers already have the declared output types
        cols = list(lt.select(left_names).take(q_order).columns)
        cols += [results[part.output_column] for part in self.parts]
        return pa.table(cols, schema=out_schema)


def events_dataset(group_by: GroupBy):
    """Scan + union all sources of a GroupBy (reference GroupBy.from,
    GroupBy.scala:459-565)."""
    return union_sources([scan_source(s) for s in group_by.sources])


def features_for_queries(
    group_by: GroupBy,
    left_ds,
    resolution=None,
    head_rounding: int | None = None,
    right_ds=None,
    dedupe_queries: bool = False,
    hot_config=None,
):
    """Point-in-time features for every left (keys..., ts) row.

    left_ds columns: group_by.key_columns + ts (+ any passthrough columns —
    they ride through the kernel untouched).  Returns one output row per left
    row with one column per aggregation part.  With dedupe_queries, duplicate
    (keys, ts) left rows are deduplicated inside the co-partition shuffle
    (left must then carry only keys+ts).
    """
    if not group_by.aggregations:
        raise ValueError(
            f"GroupBy '{group_by.name}' has no aggregations: the keyed "
            "passthrough form is only valid over entity snapshots "
            "(snapshot_entity_features; reference GroupBy.scala:137-141), "
            "not the point-in-time query path"
        )
    if resolution is None:
        resolution = (
            FiveMinuteResolution if group_by.inferred_accuracy is Accuracy.TEMPORAL else DailyResolution
        )
    if head_rounding is None:
        # SNAPSHOT accuracy = features "as of last midnight before the query"
        # (reference Extensions.scala snapshot semantics): round the window
        # head down to the day; TEMPORAL keeps the exact-millisecond head.
        head_rounding = 1 if group_by.inferred_accuracy is Accuracy.TEMPORAL else MILLIS_DAY
    if right_ds is None:
        right_ds = events_dataset(group_by)
    parts = group_by.agg_parts()

    # project the right side to exactly what the kernel reads BEFORE the
    # shuffle — nothing else should ride the exchange
    needed = list(
        dict.fromkeys(
            group_by.key_columns
            + ["ts"]
            + [p.input_column for p in parts]
            + [p.bucket for p in parts if p.bucket]
            + ([group_by.tie_breaker] if group_by.tie_breaker else [])
        )
    )
    r_arrow = _arrow_schema(right_ds)
    if set(needed) != set(r_arrow.names):
        keep = [c for c in needed if c in r_arrow.names]
        r_arrow = pa.schema([r_arrow.field(c) for c in keep])
        right_ds = declare_schema(right_ds.select_columns(keep), r_arrow)
    l_arrow = _arrow_schema(left_ds)
    input_types = {
        p.input_column: r_arrow.field(p.input_column).type for p in parts
    }

    if hot_config and len(group_by.key_columns) == 1:
        from ..stages.shuffle import CHUNK_COL, HotChunkReplicate, HotChunkTag

        bounded = [p.window.millis for p in parts if not p.window.unbounded]
        has_unbounded = any(p.window.unbounded for p in parts)
        hops = [resolution.tail_hop(p.window) for p in parts if not p.window.unbounded]
        lookback = (max(bounded) + max(hops)) if bounded else 0
        key_col = group_by.key_columns[0]
        chunk = pa.field(CHUNK_COL, pa.int64())
        left_ds = declare_schema(
            left_ds.map_batches(
                HotChunkTag(key_col, hot_config.keys, hot_config.chunk_ms, hot_config.max_chunk),
                batch_format="pyarrow",
            ),
            l_arrow.append(chunk),
        )
        right_ds = declare_schema(
            right_ds.map_batches(
                HotChunkReplicate(
                    key_col, hot_config.keys, hot_config.chunk_ms, lookback,
                    hot_config.max_chunk, has_unbounded,
                ),
                batch_format="pyarrow",
            ),
            r_arrow.append(chunk),
        )
    kernel = PartitionKernel(
        group_by.key_columns,
        parts,
        l_arrow,
        input_types,
        resolution,
        head_rounding,
        group_by.tie_breaker,
        dedupe_queries,
    )
    out = co_partition([left_ds, right_ds], group_by.key_columns, kernel)
    out_cols = list(l_arrow.names) + [p.output_column for p in parts]
    out = out.select_columns(out_cols)
    # static output schema, so neither callers nor to_arrow_refs() execute
    # the lazy kernel pipeline again just to learn it (an all-to-all sort
    # can't stop at one block)
    declare_schema(out, pa.schema(list(l_arrow) + kernel.out_fields))
    return apply_derivations(out, group_by.derivations, out_cols)


def snapshot_backfill(group_by: GroupBy, ds_dates: list[str]):
    """Daily-partitioned snapshot backfill: features as of each date's end
    (reference snapshotEvents, GroupBy.scala:144-169; window membership
    ts < ds_epoch + 1d, GroupByTest.scala:124-137).

    Returns one row per (key, ds) for every distinct key in the sources.
    """
    right_ds = events_dataset(group_by)
    keys = right_ds.groupby(group_by.key_columns).count().drop_columns(["count()"])

    ds_ends = {d: (pd.Timestamp(d).value // 1_000_000) + MILLIS_DAY for d in ds_dates}

    def explode(batch: pa.Table) -> pa.Table:
        n = len(batch)
        tables = []
        for d, end in ds_ends.items():
            t = batch.append_column("ts", pa.array(np.full(n, end, dtype=np.int64)))
            t = t.append_column("ds", pa.array([d] * n, type=pa.string()))
            tables.append(t)
        return pa.concat_tables(tables)

    r_arrow = _arrow_schema(right_ds)
    left = declare_schema(
        keys.map_batches(explode, batch_format="pyarrow"),
        pa.schema([r_arrow.field(k) for k in group_by.key_columns]
                  + [pa.field("ts", pa.int64()), pa.field("ds", pa.string())]),
    )
    return features_for_queries(
        # queries are synthesized at exact midnights, so SNAPSHOT head
        # rounding (ts < round_down(q, DAY) = q) matches strict ts < q
        group_by, left, resolution=DailyResolution
    )
