"""Serving-time lambda merge + Fetcher — the online half.

SawtoothOnlineAggregator re-expression (reference aggregator/.../windowing/
SawtoothOnlineAggregator.scala:29-170): a feature value at query_ts is

    finalize( collapsed ⊕ tail-hop tiles with start >= lo
              ⊕ streaming events with max(lo, batch_end_ts) <= ts < query_ts )

with lo = round(query_ts - window, tail_hop).  The batch/streaming seam is
exact: batch IRs cover ts < batch_end_ts only (upload.py filters), streaming
events are filtered to ts >= batch_end_ts here — no event is counted twice
and none is dropped ("zero temporal leakage", SURVEY §2.9).

The Fetcher is the reference's online Fetcher collapsed to its offline-
testable core: per-key batch IR map (what the KV store would hold) + per-key
streaming rows or sealed tiles (streaming.TileAggregator), with fetch()
returning the same feature row the offline kernel computes for (key, ts).
Both kinds of streaming state are answered by the same lambda: sealed tiles
join the batch IR's tail tiles, and the unsealed raw head is the stream.

The lambda is columnar.  Per part and hop group, lambda_aggregate_many
builds the merged batch base once and answers all of the group's queries
with one ScalarOp.scan: a running fold over the non-null streamed events
that finalizes at each query's stop (numpy accumulate for sum, count,
average, min and max, bit-identical to the sequential fold; the per-event
prepare/update loop for every other op).  Bases are built from
ScalarOp.clone copies, not deep copies.  The Fetcher ingests micro-batches
with one factorize + lexsort instead of a pandas groupby.

online_enrich_distributed applies the lambda offline at scale: queries,
upload rows and the streaming tail meet in one co-partition exchange, and
each partition answers its keys with the same lambda_aggregate_many calls;
nothing is broadcast or collected into the calling process.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import GroupBy
from ..aggregator.scalar_ops import make_scalar_op
from ..aggregator.windowing import FiveMinuteResolution, round_down
from .upload import IR_COL, load_upload


class SawtoothOnlineAggregator:
    """Stateless lambda merge for one GroupBy's parts."""

    def __init__(self, group_by: GroupBy, batch_end_ts: int,
                 resolution=FiveMinuteResolution):
        self.group_by = group_by
        self.parts = group_by.agg_parts()
        self.ops = [make_scalar_op(p) for p in self.parts]
        self.batch_end_ts = batch_end_ts
        self.resolution = resolution
        # per part: (op, output column, input column, None if unbounded else
        # (window millis, tail hop)) — resolved once, not per fetched key
        self._specs = [
            (op, p.output_column, p.input_column,
             None if p.window.unbounded else (p.window.millis, resolution.tail_hop(p.window)))
            for p, op in zip(self.parts, self.ops)
        ]

    def lambda_aggregate(self, batch_ir: dict | None, stream_ts, stream_rows,
                         query_ts: int) -> dict:
        """The per-row reference lambda for one query: the sequential
        prepare/update fold that the tests compare lambda_aggregate_many
        against bit for bit.  Serving calls lambda_aggregate_many.

        batch_ir: {output_column: {"c": ir, "t": [(start, ir), ...]}} or
        None; stream_ts: ascending int array; stream_rows: {input_column:
        array} aligned with stream_ts (already seam-filtered)."""
        out = {}
        q = int(query_ts)
        for part, op in zip(self.parts, self.ops):
            if part.window.unbounded:
                lo = None
            else:
                hop = self.resolution.tail_hop(part.window)
                lo = round_down(q - part.window.millis, hop)
            acc = None
            if batch_ir is not None:
                entry = batch_ir.get(part.output_column)
                if entry is not None:
                    if entry["c"] is not None:
                        acc = copy.deepcopy(entry["c"])
                    for start, ir in entry["t"]:
                        if ir is None or (lo is not None and start < lo):
                            continue
                        piece = copy.deepcopy(ir)
                        acc = piece if acc is None else op.merge(acc, piece)
            if stream_ts is not None and len(stream_ts):
                s_lo = self.batch_end_ts if lo is None else max(lo, self.batch_end_ts)
                i0 = int(np.searchsorted(stream_ts, s_lo, side="left"))
                i1 = int(np.searchsorted(stream_ts, q, side="left"))
                vals = stream_rows.get(part.input_column)
                if vals is not None:
                    for i in range(i0, i1):
                        v = vals[i]
                        if v is None or (isinstance(v, float) and v != v):
                            continue
                        t = int(stream_ts[i])
                        acc = op.prepare(v, t) if acc is None else op.update(acc, v, t)
            out[part.output_column] = None if acc is None else op.finalize(acc)
        return out

    def _merged_base(self, op, entry, lo):
        """collapsed ⊕ in-window tiles for one part at one lo hop, built from
        clones so the batch IR it reads is never mutated."""
        if entry is None:
            return None
        acc = op.clone(entry["c"]) if entry["c"] is not None else None
        for start, ir in entry["t"]:
            if ir is None or (lo is not None and start < lo):
                continue
            piece = op.clone(ir)
            acc = piece if acc is None else op.merge(acc, piece)
        return acc

    def lambda_aggregate_many(self, batch_ir: dict | None, stream_ts, stream_rows,
                              query_ts) -> dict:
        """Vectorized lambda_aggregate over MANY query timestamps of one key.

        Bitwise-identical to calling lambda_aggregate per row, but: window
        bounds are searchsorted in one shot per part; the collapsed+tiles
        base is built once per distinct lo hop (queries quantize to few
        hops); and each hop group's queries, sorted by ts, are answered by
        ONE ScalarOp.scan over the group's non-null events — a running fold
        that finalizes at each query's stop (numpy accumulate for the
        arithmetic ops).  Returns {output_column: list aligned with query_ts
        order}."""
        qts = np.asarray(query_ts, dtype=np.int64)
        n = len(qts)
        out: dict = {}
        for op, out_col, in_col, win in self._specs:
            if win is None:
                lo_arr = None
                order = np.argsort(qts, kind="stable")
                bounds = [0, n]
                s_lo = np.full(n, self.batch_end_ts)
            else:
                lo_arr = round_down(qts - win[0], win[1])
                # one group per lo (one merged base), ts-ascending within it
                # so each query's stop is a prefix of the group's events
                order = np.lexsort((qts, lo_arr))
                lo_sorted = lo_arr[order]
                bounds = [0] + (np.flatnonzero(lo_sorted[1:] != lo_sorted[:-1]) + 1).tolist() + [n]
                s_lo = np.maximum(lo_arr, self.batch_end_ts)
            vals = stream_rows.get(in_col) if stream_ts is not None and len(stream_ts) else None
            if vals is None:
                ev_ts = ev_vals = np.zeros(0, dtype=np.int64)
                i0 = i1 = np.zeros(n, dtype=np.int64)
            else:
                # only the events some query's window covers: [first i0, last
                # i1) of the stream; nulls leave it, and each bound becomes
                # the count of non-null events before it
                i0 = np.searchsorted(stream_ts, s_lo, side="left")
                i1 = np.searchsorted(stream_ts, qts, side="left")
                first = int(i0.min())
                last = max(int(i1.max()), first)
                ev_ts, ev_vals = stream_ts[first:last], vals[first:last]
                i0, i1 = i0 - first, np.maximum(i1, first) - first
                ok = _non_null(ev_vals)
                if ok is not None:
                    ev_ts, ev_vals = ev_ts[ok], ev_vals[ok]
                    before = np.concatenate(([0], np.cumsum(ok)))
                    i0, i1 = before[i0], before[i1]
            entry = None if batch_ir is None else batch_ir.get(out_col)
            res: list = [None] * n
            for a, b in zip(bounds[:-1], bounds[1:]):
                if a == b:
                    continue
                idx = order[a:b]
                lo = None if lo_arr is None else int(lo_arr[idx[0]])
                base = self._merged_base(op, entry, lo)
                j = int(i0[idx[0]])
                stops = np.maximum(i1[idx] - j, 0)
                for oi, r in zip(idx.tolist(), op.scan(base, ev_vals[j:], ev_ts[j:], stops)):
                    res[oi] = r
            out[out_col] = res
        return out


def _non_null(vals):
    """Mask of the values the fold takes — lambda_aggregate's rule: None and
    Python-float NaN are nulls — or None when every value is taken."""
    if vals.dtype == np.float64:
        ok = ~np.isnan(vals)
    elif vals.dtype.kind in "iub":
        return None
    else:
        ok = np.fromiter(
            (not (v is None or (isinstance(v, float) and v != v)) for v in vals),
            dtype=bool, count=len(vals),
        )
    return None if ok.all() else ok


def _scatter_features(feat_cols: dict, idx: np.ndarray, feats: dict, out_cols):
    """Scatter one key-group's feature lists into per-column object arrays
    with numpy fancy indexing — two C-level assignments per column instead
    of a Python loop over queries x parts."""
    n = len(idx)
    for c in out_cols:
        vals = np.empty(n, dtype=object)
        vals[:] = feats[c]  # object target: safe for ragged list values
        feat_cols[c][idx] = vals


def _key_groups(df: pd.DataFrame, key_cols, ts, keep=None):
    """df's rows grouped by key, ts-ascending (stable) within a key, with one
    factorize per key column and one lexsort.  Rows outside ``keep`` or with
    a null key are left out, as a pandas groupby drops them.  Returns
    (positions into df, [(key tuple, a, b)]): a key's rows are
    positions[a:b]."""
    if keep is None:
        keep = np.ones(len(df), dtype=bool)
    codes, uniques = [], []
    for k in key_cols:
        c, u = pd.factorize(df[k])
        codes.append(c)
        uniques.append(u.tolist())
        keep = keep & (c >= 0)
    pos = np.flatnonzero(keep)
    if not len(pos):
        return pos, []
    pos = pos[np.lexsort([ts[pos]] + [c[pos] for c in reversed(codes)])]
    codes = [c[pos] for c in codes]
    new_key = np.zeros(len(pos), dtype=bool)
    new_key[0] = True
    for c in codes:
        new_key[1:] |= c[1:] != c[:-1]
    bounds = np.flatnonzero(new_key).tolist() + [len(pos)]
    return pos, [
        (tuple(u[c[a]] for u, c in zip(uniques, codes)), a, b)
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _key_streams(df: pd.DataFrame, key_cols, in_cols, keep=None):
    """(key, ts, {input column: values}) for each key of df, ts-ascending,
    as slices of one (key, ts) sort of the frame."""
    ts = df["ts"].to_numpy(dtype=np.int64)
    pos, groups = _key_groups(df, key_cols, ts, keep)
    ts = ts[pos]
    cols = {c: df[c].to_numpy()[pos] for c in in_cols if c in df.columns}
    for key, a, b in groups:
        yield key, ts[a:b], {c: v[a:b] for c, v in cols.items()}


def _merge_append(streams: dict, key: tuple, ts, rows: dict):
    """Merge one key's ts-ascending slice into streams[key] = [ts, {column:
    values}].  Micro-batches may interleave in time; a stable sort of two
    sorted runs is near-linear and keeps earlier-ingested rows first on ts
    ties."""
    cur = streams.get(key)
    if cur is None:
        streams[key] = [ts, rows]
        return
    all_ts = np.concatenate([cur[0], ts])
    order = np.argsort(all_ts, kind="stable")
    merged = {c: np.concatenate([cur[1][c], rows[c]])[order] for c in rows}
    streams[key] = [all_ts[order], merged]


class Fetcher:
    """Per-key batch IRs + streaming state, answering point-in-time fetches.

    Streaming state is either raw rows (put_events) or a TileAggregator
    (attach_tiles) — the two streaming architectures the reference supports
    (raw-row lambda vs Flink tiled IRs).

    Raw rows are held columnar: per key, a ts-sorted int64 array plus one
    array per input column.  put_events sorts each micro-batch once by
    (key, ts) and stable-merges each key's slice into the key's arrays.
    fetch and fetch_batch answer each key with one lambda_aggregate_many
    call, which builds each hop group's merged batch base (collapsed ⊕
    in-window tiles) from clones and folds the events with ScalarOp.scan.
    Tile-backed state takes the same call: the key's sealed tiles extend the
    batch tiles and the unsealed raw head is the stream."""

    def __init__(self, group_by: GroupBy, batch_end_ts: int, upload=None,
                 resolution=FiveMinuteResolution):
        self.group_by = group_by
        self.agg = SawtoothOnlineAggregator(group_by, batch_end_ts, resolution)
        self.batch_end_ts = batch_end_ts
        self.key_cols = group_by.key_columns
        self._in_cols = {p.input_column for p in self.agg.parts}
        self._blobs: dict = {}
        self._cache: dict = {}  # key -> batch IR (None when the key has none)
        if upload is not None:
            self._blobs = (
                upload if isinstance(upload, dict) else load_upload(upload, self.key_cols)
            )
        self._stream: dict[tuple, list] = {}  # key -> [ts_array, {col: arr}], ts-sorted
        self._tiles = None
        self.dropped_pre_seam = 0

    # -- streaming ingestion ------------------------------------------------
    def put_events(self, df: pd.DataFrame):
        """Ingest streaming rows; rows with ts < batch_end_ts are the batch
        half's property and are dropped (counted), preserving the seam.
        Rows with a null key are dropped too (as a pandas groupby would)."""
        keep = df["ts"].to_numpy(dtype=np.int64) >= self.batch_end_ts
        self.dropped_pre_seam += len(keep) - int(np.count_nonzero(keep))
        for key, ts, rows in _key_streams(df, self.key_cols, self._in_cols, keep):
            _merge_append(self._stream, key, ts, rows)

    def attach_tiles(self, tile_aggregator):
        """Serve from a TileAggregator's sealed tiles + unsealed raw rows."""
        self._tiles = tile_aggregator

    # -- fetch --------------------------------------------------------------
    def _batch_ir(self, key: tuple):
        if key in self._cache:
            return self._cache[key]
        blob = self._blobs.get(key)
        ir = None if blob is None else pickle.loads(blob)
        self._cache[key] = ir
        return ir

    def _state(self, key: tuple):
        """(batch IR, stream ts, stream rows) of key, as the lambda takes
        them.  Tile-backed: the key's sealed tiles that start at or after
        the seam follow the batch entry's tail tiles, and the unsealed raw
        head is the stream."""
        ir = self._batch_ir(key)
        if self._tiles is None:
            st = self._stream.get(key)
        else:
            st = self._tiles.raw.get(key)
            key_tiles = self._tiles.tiles.get(key)
            if key_tiles:
                ir = dict(ir or {})  # never touch the cached batch IR
                for col, tl in key_tiles.items():
                    entry = ir.get(col) or {"c": None, "t": []}
                    tail = [(s, t) for s, t in tl if s >= self.batch_end_ts]
                    ir[col] = {"c": entry["c"], "t": entry["t"] + tail}
        return (ir, st[0], st[1]) if st else (ir, None, None)

    def _check_sealed(self, qts):
        """Sealed tiles are whole tile spans: a query behind the sealed
        boundary would count the part of a tile at or after its ts."""
        sealed = None if self._tiles is None else self._tiles.sealed_until
        if sealed is not None and len(qts) and int(qts.min()) < sealed:
            raise ValueError(
                f"query_ts {int(qts.min())} is behind the sealed boundary {sealed}"
            )

    def fetch(self, key, query_ts: int) -> dict:
        key = key if isinstance(key, tuple) else (key,)
        qts = np.array([query_ts], dtype=np.int64)
        self._check_sealed(qts)
        feats = self.agg.lambda_aggregate_many(*self._state(key), qts)
        return {c: v[0] for c, v in feats.items()}

    def fetch_batch(self, batch: pd.DataFrame) -> dict[str, list]:
        """Vectorized fetch for a whole (key cols + ts) frame: one
        ``lambda_aggregate_many`` call per distinct key (searchsorted window
        bounds, one merged base and one scan per hop group) instead of a
        Python dispatch per row — the same engine ServingKernel's
        distributed path uses.  Returns {output_column: values aligned with
        batch's positions}."""
        out_cols = [p.output_column for p in self.agg.parts]
        feat_cols = {
            c: np.full(len(batch), None, dtype=object) for c in out_cols
        }
        qts = batch["ts"].to_numpy(dtype=np.int64)
        self._check_sealed(qts)
        pos, groups = _key_groups(batch, self.key_cols, qts)
        for key, a, b in groups:
            idx = pos[a:b]
            feats = self.agg.lambda_aggregate_many(*self._state(key), qts[idx])
            _scatter_features(feat_cols, idx, feats, out_cols)
        return {c: feat_cols[c].tolist() for c in out_cols}


class ServingKernel:
    """Per-bucket lambda merge over three co-partitioned sides: queries
    (side 0), batch-IR upload rows (side 1), streaming-tail events (side 2).

    The scale path for offline application of the serving lambda: nothing is
    materialized on the driver — upload blobs and tail events ride the same
    hash(key) co-partition shuffle as the queries, so each bucket task sees
    exactly its keys' state (the distributed analogue of a KV-store range
    scan; reference Fetcher reads per-key from the store instead)."""

    def __init__(self, group_by: GroupBy, batch_end_ts: int, left_names,
                 resolution=FiveMinuteResolution):
        from ..pipelines.group_by import events_dataset, output_type
        from ..stages.shuffle import _arrow_schema

        self.agg = SawtoothOnlineAggregator(group_by, batch_end_ts, resolution)
        self.key_cols = group_by.key_columns
        self.left_names = list(left_names)
        self.in_cols = {p.input_column for p in self.agg.parts}
        # the offline kernel's declared output types (the upload folded
        # these same source columns), so every bucket emits one schema
        src = _arrow_schema(events_dataset(group_by))
        self.out_fields = [
            pa.field(p.output_column, output_type(p, src.field(p.input_column).type))
            for p in self.agg.parts
        ]

    def __call__(self, group: pa.Table) -> pa.Table:
        from ..pipelines.group_by import _to_arrow_column
        from ..stages.shuffle import SIDE_COL

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        q_tbl = group.filter(pa.array(side == 0)).select(self.left_names)
        out_schema = pa.schema(list(q_tbl.schema) + self.out_fields)
        if q_tbl.num_rows == 0:
            return out_schema.empty_table()
        upload = group.filter(pa.array(side == 1)).to_pandas()
        stream = group.filter(pa.array(side == 2)).to_pandas()
        blobs: dict = {}
        if len(upload):
            keys = zip(*(upload[k] for k in self.key_cols))
            blobs = dict(zip(keys, upload[IR_COL]))
        tails = {
            key: (ts, rows)
            for key, ts, rows in _key_streams(stream, self.key_cols, self.in_cols)
        }
        out_cols = [f.name for f in self.out_fields]
        feat_cols = {c: np.full(q_tbl.num_rows, None, dtype=object) for c in out_cols}
        qts = q_tbl["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos, groups = _key_groups(q_tbl.select(self.key_cols).to_pandas(), self.key_cols, qts)
        for key, a, b in groups:
            idx = pos[a:b]
            blob = blobs.get(key)
            ir = None if blob is None else pickle.loads(blob)
            ts_arr, rows = tails.get(key, (None, None))
            # all of the key's queries in one vectorized call: searchsorted
            # bounds, one merged IR base per hop, one scan per hop group
            feats = self.agg.lambda_aggregate_many(ir, ts_arr, rows, qts[idx])
            _scatter_features(feat_cols, idx, feats, out_cols)
        feats = [_to_arrow_column(feat_cols[f.name], f.type) for f in self.out_fields]
        return pa.Table.from_arrays(list(q_tbl.columns) + feats, schema=out_schema)


def online_enrich_distributed(left_ds, group_by: GroupBy, batch_end_ts: int,
                              upload_ds, stream_ds=None,
                              resolution=FiveMinuteResolution):
    """Serving lambda applied offline with zero driver materialization.

    left_ds: query rows (key columns + ts [+ passthrough]); upload_ds: the
    GroupByUpload table (key columns + __batch_ir + batch_end_ts), kept as a
    lazy Dataset; stream_ds: the streaming tail (key columns + ts + inputs),
    pre-filtered to ts >= batch_end_ts (rows before the seam are the batch
    half's property and are dropped here to preserve exactness).

    One union co-partition shuffle (the EntityKernel three-side pattern):
    each partition holds only its keys' upload rows and tail, never the
    whole state."""
    from ..stages.shuffle import _arrow_schema, co_partition, declare_schema

    sides = [left_ds, upload_ds]
    if stream_ds is not None:
        s_arrow = _arrow_schema(stream_ds)
        stream_ds = declare_schema(stream_ds.filter(expr=f"ts >= {batch_end_ts}"), s_arrow)
        sides.append(stream_ds)
    l_arrow = _arrow_schema(left_ds)
    kernel = ServingKernel(group_by, batch_end_ts, list(l_arrow.names), resolution)
    out = co_partition(
        sides, group_by.key_columns, kernel, batch_format="pyarrow"
    )
    out = out.select_columns(kernel.left_names + [p.output_column for p in kernel.agg.parts])
    return declare_schema(out, pa.schema(list(l_arrow) + kernel.out_fields))
