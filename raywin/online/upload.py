"""GroupByUpload — the batch half of the serving lambda.

Computes, per entity key, the *batch IR* a serving fetcher needs to answer
point-in-time queries for query_ts in [batch_end_ts, batch_end_ts +
tail_buffer): re-expresses the reference's GroupByUpload
(spark/.../GroupByUpload.scala:39-118) + the FinalBatchIr layout of
SawtoothOnlineAggregator (aggregator/.../windowing/
SawtoothOnlineAggregator.scala:29-170: collapsed IR + tail hop tiles).

Per windowed aggregation part (window w, tail hop h) the serving-time lower
bound lo = round(query_ts - w, h) sweeps over

    lo_min = round(batch_end_ts - w, h)              (query at batch_end_ts)
    lo_max = min(round(batch_end_ts + tail_buffer - w, h), batch_end_ts)

so batch events split three ways:

    ts <  lo_min            -> outside every servable window: dropped
    lo_min <= ts < lo_max   -> *tail hop tiles* at resolution h (the window
                               tail sweeps through here; whole tiles expire)
    lo_max <= ts < batch_end-> *collapsed* single IR (inside every window)

Unbounded windows collapse everything.  Queries beyond batch_end_ts +
tail_buffer are stale-batch territory: the collapsed IR over-includes (the
reference behaves the same way — uploads are expected to refresh daily).

Dataflow (Ray-Data-first): scan sources filtered to ts < batch_end_ts ->
project to keys+ts+inputs -> co_partition(keys, UploadKernel), one
hash(keys) sort shuffle with one kernel call per bucket -> one row per key
with a pickled IR blob (the reference ships Avro-encoded IRs to a KV store;
a binary column in a parquet/Lance table is the warehouse-native
equivalent).
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..api import GroupBy
from ..aggregator.scalar_ops import make_scalar_op
from ..aggregator.windowing import FiveMinuteResolution, round_down
from ..sources.io import scan_source, union_sources
from ..stages.shuffle import _arrow_schema, co_partition, declare_schema

IR_COL = "__batch_ir"


def part_boundaries(part, batch_end_ts: int, tail_buffer_ms: int,
                    resolution=FiveMinuteResolution):
    """(lo_min, lo_max, hop) for a part; (None, None, None) when unbounded."""
    if part.window.unbounded:
        return None, None, None
    w = part.window.millis
    hop = resolution.tail_hop(part.window)
    lo_min = round_down(batch_end_ts - w, hop)
    lo_max = min(round_down(batch_end_ts + tail_buffer_ms - w, hop), batch_end_ts)
    return lo_min, max(lo_max, lo_min), hop


class UploadKernel:
    """co_partition fn: one call's co-partitioned rows -> one IR row per key."""

    def __init__(self, key_cols, parts, batch_end_ts: int, tail_buffer_ms: int,
                 key_fields: list[pa.Field], resolution=FiveMinuteResolution):
        self.key_cols = key_cols
        self.parts = parts
        self.batch_end_ts = batch_end_ts
        self.tail_buffer_ms = tail_buffer_ms
        self.resolution = resolution
        self.key_fields = key_fields
        for p in parts:
            if p.bucket is not None or p.element_wise:
                raise NotImplementedError(
                    "online upload: bucketed/element-wise parts are offline-only"
                )

    def __call__(self, group: pa.Table) -> pa.Table:
        """Vectorized per-bucket kernel (no pandas round-trip, no per-key
        Python loop over events):

        1. keys factorized via Arrow ``dictionary_encode`` (strings never
           box) + the offline kernel's radix mix for composite keys;
        2. one ``lexsort((ts, key))`` orders the bucket into contiguous
           per-key, ts-ascending segments;
        3. per part, the collapsed IRs and the tail-hop tiles are each one
           ``ScalarOp.fold_segments`` call over the part's non-null rows:
           segmented ``ufunc.reduceat`` for the arithmetic ops, the
           sequential prepare/update fold per segment for object IRs
           (moments, K-ops, sketches).

        Outside that object-IR fold, Python touches each KEY once (dict
        assembly + pickle), never each event."""
        ops = [make_scalar_op(p) for p in self.parts]
        bounds = [
            part_boundaries(p, self.batch_end_ts, self.tail_buffer_ms, self.resolution)
            for p in self.parts
        ]
        in_cols = list(dict.fromkeys(p.input_column for p in self.parts))
        n = group.num_rows
        ts = group["ts"].to_numpy(zero_copy_only=False)
        key_valid = np.ones(n, dtype=bool)
        key_dicts: list[pa.Array] = []
        code_cols: list[np.ndarray] = []
        for k in self.key_cols:
            col = group[k]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if col.null_count:
                key_valid &= pc.is_valid(col).to_numpy(zero_copy_only=False)
            enc = pc.dictionary_encode(col)
            codes = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False).astype(np.int64)
            key_dicts.append(enc.dictionary)
            code_cols.append(codes)
        raw_vals = {c: group[c].to_numpy(zero_copy_only=False) for c in in_cols}
        if not key_valid.all():  # pandas-groupby parity: null keys dropped
            ridx = np.flatnonzero(key_valid)
            ts = ts[ridx]
            code_cols = [c[ridx] for c in code_cols]
            raw_vals = {c: v[ridx] for c, v in raw_vals.items()}
        if len(code_cols) == 1:
            joint = code_cols[0]
        else:
            from ..aggregator.kernel import _mix_codes

            joint = _mix_codes(code_cols).astype(np.int64)
        order = np.lexsort((ts, joint))
        ts = ts[order]
        joint = joint[order]
        code_cols = [c[order] for c in code_cols]
        raw_vals = {c: v[order] for c, v in raw_vals.items()}
        n_rows = len(ts)
        if n_rows == 0:
            seg_starts = np.zeros(0, dtype=np.int64)
        else:
            seg_starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(joint)) + 1)
            )
        n_keys = len(seg_starts)

        # per part: collapsed IR per key (object array) + tiles list per key
        collapsed_parts: list[np.ndarray] = []
        tiles_parts: list[list] = []
        key_heads = joint[seg_starts]
        for part, op, (lo_min, lo_max, hop) in zip(self.parts, ops, bounds):
            vals = raw_vals[part.input_column]
            valid = pd.notna(vals)
            body = valid if lo_min is None else valid & (ts >= lo_max)
            collapsed = np.full(n_keys, None, dtype=object)
            ki, _, irs = _fold_runs(op, vals, ts, joint, key_heads, np.flatnonzero(body))
            packed = np.empty(len(irs), dtype=object)
            packed[:] = irs
            collapsed[ki] = packed
            tiles: list = [[] for _ in range(n_keys)]
            if lo_min is not None:
                t_idx = np.flatnonzero(valid & (ts >= lo_min) & (ts < lo_max))
                for k, t0, ir in zip(*_fold_runs(op, vals, ts, joint, key_heads, t_idx, hop)):
                    tiles[k].append((int(round_down(t0, hop)), ir))
            collapsed_parts.append(collapsed)
            tiles_parts.append(tiles)

        out_cols = [p.output_column for p in self.parts]
        out_blobs: list[bytes] = []
        for ki in range(n_keys):
            ir_row = {
                c: {"c": collapsed_parts[pi][ki], "t": tiles_parts[pi][ki]}
                for pi, c in enumerate(out_cols)
            }
            out_blobs.append(pickle.dumps(ir_row, protocol=pickle.HIGHEST_PROTOCOL))

        cols = []
        for i, f in enumerate(self.key_fields):
            rep = code_cols[i][seg_starts] if n_keys else np.zeros(0, np.int64)
            arr = key_dicts[i].take(pa.array(rep, pa.int64()))  # unbox only representatives
            if arr.type != f.type:
                arr = arr.cast(f.type)
            cols.append(arr)
        cols.append(pa.array(out_blobs, type=pa.binary()))
        cols.append(pa.array(np.full(n_keys, self.batch_end_ts, dtype=np.int64)))
        return pa.Table.from_arrays(
            cols,
            schema=pa.schema(
                list(self.key_fields)
                + [pa.field(IR_COL, pa.binary()), pa.field("batch_end_ts", pa.int64())]
            ),
        )


def _fold_runs(op, vals, ts, joint, key_heads, idx, hop=None):
    """One ``fold_segments`` call over rows idx, cut into runs of one key
    (and, given hop, one hop tile).  Rows are (key, ts)-sorted, so each run
    is contiguous.  Returns (key index, first ts, IR) per run."""
    if not len(idx):
        return [], [], []
    sub_ts, sub_key = ts[idx], joint[idx]
    cut = np.diff(sub_key) != 0
    if hop is not None:
        cut |= np.diff(sub_ts // hop) != 0
    st = np.concatenate(([0], np.flatnonzero(cut) + 1))
    ki = np.searchsorted(key_heads, sub_key[st], side="left")
    return ki, sub_ts[st], op.fold_segments(vals[idx], sub_ts, st)


def group_by_upload(
    group_by: GroupBy,
    batch_end_ts: int,
    tail_buffer_ms: int = 2 * 24 * 3600 * 1000,
    resolution=FiveMinuteResolution,
):
    """Batch IR table for a GroupBy as of batch_end_ts (one row per key:
    key columns + pickled IR blob + batch_end_ts).  Returns a lazy Dataset —
    write_parquet it for the daily upload artifact."""
    parts = group_by.agg_parts()
    key_cols = group_by.key_columns
    ds = union_sources([scan_source(s) for s in group_by.sources])
    schema = _arrow_schema(ds)  # static when possible — no pipeline probe
    needed = list(dict.fromkeys(key_cols + ["ts"] + [p.input_column for p in parts]))
    if set(needed) != set(schema.names):
        keep = [c for c in needed if c in set(schema.names)]
        ds = ds.select_columns(keep)
        schema = pa.schema([schema.field(c) for c in keep])
    # the seam: batch strictly owns ts < batch_end_ts (streaming owns the
    # rest; SawtoothOnlineAggregator.scala:105-123 filters the same way)
    ds = ds.filter(expr=f"ts < {batch_end_ts}")
    # events older than every part's lo_min can never be served: prune before
    # the shuffle (unbounded parts keep everything)
    lo_mins = [
        part_boundaries(p, batch_end_ts, tail_buffer_ms, resolution)[0] for p in parts
    ]
    if all(lo is not None for lo in lo_mins):
        ds = ds.filter(expr=f"ts >= {min(lo_mins)}")
    declare_schema(ds, schema)  # the filters keep it; co_partition never probes
    key_fields = [pa.field(k, schema.field(k).type) for k in key_cols]
    kernel = UploadKernel(key_cols, parts, batch_end_ts, tail_buffer_ms, key_fields, resolution)
    out = co_partition(ds, key_cols, kernel)
    out = out.select_columns(key_cols + [IR_COL, "batch_end_ts"])
    return declare_schema(out, pa.schema(
        key_fields + [pa.field(IR_COL, pa.binary()), pa.field("batch_end_ts", pa.int64())]
    ))


def load_upload(upload_ds, key_cols: list[str], max_rows: int = 1_000_000) -> dict:
    """Materialize an upload table into the serving map {key_tuple: blob}.

    The per-key IR table is exactly what the reference ships to its KV store
    (GroupByUpload -> Api.put); a real deployment loads this into the store
    and the Fetcher reads per-key.  For in-process serving we hold the dict;
    offline enrichment at scale keeps the table distributed instead
    (serving.online_enrich_distributed).

    COUNT-GATED (like the q3 dimension broadcast): broadcasting is only
    correct while the whole IR table fits one node, so a table above
    ``max_rows`` raises and points at online_enrich_distributed — the
    co-partitioned path with zero driver materialization.  Raise the limit
    explicitly only when the deployment's nodes are known to hold it.

    A Dataset is executed once: its blocks stay in the object store until
    the gate has passed on their metadata row counts."""
    blocks = None
    if isinstance(upload_ds, pd.DataFrame):
        n = len(upload_ds)
    else:
        blocks = [
            (ref, meta.num_rows)
            for bundle in upload_ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks
        ]
        n = sum(rows for _, rows in blocks)
    if n > max_rows:
        raise ValueError(
            f"upload table has {n} keys > max_rows={max_rows}: broadcasting "
            "would hold the whole IR state on every node — use "
            "online.serving.online_enrich_distributed (co-partitioned, no "
            "driver materialization) or raise max_rows deliberately"
        )
    df = upload_ds
    if blocks is not None:
        import ray

        # zero-row blocks (the exchange's empty partitions) carry no schema
        tables = ray.get([ref for ref, rows in blocks if rows])
        if not tables:
            return {}
        df = pa.concat_tables(tables).to_pandas()
    keys = list(zip(*(df[k] for k in key_cols))) if len(df) else []
    return dict(zip(keys, df[IR_COL]))
