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

The lambda is columnar.  Per part and hop group, lambda_aggregate_many
builds the merged batch base once and answers all of the group's queries
with one ScalarOp.scan: a running fold over the non-null streamed events
that finalizes at each query's stop (numpy accumulate for sum, count,
average, min and max, bit-identical to the sequential fold; the per-event
prepare/update loop for every other op).  Bases are built from
ScalarOp.clone copies, not deep copies.  The Fetcher ingests micro-batches
with one factorize + lexsort instead of a pandas groupby.

OnlineEnrich wraps the Fetcher as an actor-pool ``map_batches`` stage: the
batch-IR dict ships once via ray.put and each actor deserializes per-key blobs
lazily — point-lookups over a broadcast map, never a shuffle.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pandas as pd

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
        """batch_ir: {output_column: {"c": ir, "t": [(start, ir), ...]}} or
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


class Fetcher:
    """Per-key batch IRs + streaming state, answering point-in-time fetches.

    Streaming state is either raw rows (put_events) or a TileAggregator
    (attach_tiles) — the two streaming architectures the reference supports
    (raw-row lambda vs Flink tiled IRs).

    Raw rows are held columnar: per key, a ts-sorted int64 array plus one
    array per input column.  put_events sorts each micro-batch once by
    (key, ts) and stable-merges each key's slice into the key's arrays.
    fetch_batch answers a key's rows with one lambda_aggregate_many call,
    which builds each hop group's merged batch base (collapsed ⊕ in-window
    tiles) from clones and folds the events with ScalarOp.scan."""

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
            self._append(key, ts, rows)

    def _append(self, key: tuple, ts, rows: dict):
        cur = self._stream.get(key)
        if cur is None:
            self._stream[key] = [ts, rows]
            return
        # merge-sort append (micro-batches may interleave in time); a stable
        # sort of two sorted runs is near-linear
        all_ts = np.concatenate([cur[0], ts])
        order = np.argsort(all_ts, kind="stable")
        merged = {c: np.concatenate([cur[1][c], rows[c]])[order] for c in rows}
        self._stream[key] = [all_ts[order], merged]

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

    def fetch(self, key, query_ts: int) -> dict:
        key = key if isinstance(key, tuple) else (key,)
        batch_ir = self._batch_ir(key)
        if self._tiles is not None:
            return self._tiles.lambda_query(self.agg, batch_ir, key, query_ts)
        st = self._stream.get(key)
        ts, rows = (st[0], st[1]) if st else (None, None)
        return self.agg.lambda_aggregate(batch_ir, ts, rows, query_ts)

    def fetch_batch(self, batch: pd.DataFrame) -> dict[str, list]:
        """Vectorized fetch for a whole (key cols + ts) frame: one
        ``lambda_aggregate_many`` call per distinct key (searchsorted window
        bounds, one merged base and one scan per hop group) instead of a
        Python dispatch per row — the same engine ServingKernel's
        distributed path uses.  Tile-backed serving stays per-row (TileAggregator holds mutable state).
        Returns {output_column: values aligned with batch's positions}."""
        out_cols = [p.output_column for p in self.agg.parts]
        feat_cols = {
            c: np.full(len(batch), None, dtype=object) for c in out_cols
        }
        if self._tiles is not None:
            for pos, (key, ts) in enumerate(
                zip(zip(*(batch[k] for k in self.key_cols)), batch["ts"])
            ):
                row = self.fetch(key, int(ts))
                for c in out_cols:
                    feat_cols[c][pos] = row[c]
            return {c: feat_cols[c].tolist() for c in out_cols}
        qts = batch["ts"].to_numpy(dtype=np.int64)
        pos, groups = _key_groups(batch, self.key_cols, qts)
        for key, a, b in groups:
            idx = pos[a:b]
            st = self._stream.get(key)
            ts_arr, rows = (st[0], st[1]) if st else (None, None)
            feats = self.agg.lambda_aggregate_many(
                self._batch_ir(key), ts_arr, rows, qts[idx]
            )
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
        self.__name__ = "ServingKernel"
        self.agg = SawtoothOnlineAggregator(group_by, batch_end_ts, resolution)
        self.key_cols = group_by.key_columns
        self.left_names = list(left_names)
        self.in_cols = {p.input_column for p in self.agg.parts}

    def __call__(self, group):
        import pyarrow as pa

        from ..stages.shuffle import SIDE_COL

        if isinstance(group, pa.Table):
            side = group[SIDE_COL].to_numpy(zero_copy_only=False)
            queries = group.filter(pa.array(side == 0)).select(self.left_names).to_pandas()
            upload = group.filter(pa.array(side == 1)).to_pandas()
            stream = group.filter(pa.array(side == 2)).to_pandas()
        else:
            side = group[SIDE_COL].to_numpy()
            queries = group.loc[side == 0, self.left_names].reset_index(drop=True)
            upload = group.loc[side == 1].reset_index(drop=True)
            stream = group.loc[side == 2].reset_index(drop=True)
        out_cols = [p.output_column for p in self.agg.parts]
        if len(queries) == 0:
            cols = {c: [] for c in self.left_names}
            cols.update({c: [] for c in out_cols})
            return pd.DataFrame(cols)
        blobs: dict = {}
        if len(upload):
            keys = zip(*(upload[k] for k in self.key_cols))
            blobs = dict(zip(keys, upload[IR_COL]))
        tails = {
            key: (ts, rows)
            for key, ts, rows in _key_streams(stream, self.key_cols, self.in_cols)
        }
        out = queries.copy()
        feat_cols = {
            c: np.full(len(queries), None, dtype=object) for c in out_cols
        }
        qts = queries["ts"].to_numpy(dtype=np.int64)
        pos, groups = _key_groups(queries, self.key_cols, qts)
        for key, a, b in groups:
            idx = pos[a:b]
            blob = blobs.get(key)
            ir = None if blob is None else pickle.loads(blob)
            ts_arr, rows = tails.get(key, (None, None))
            # all of the key's queries in one vectorized call: searchsorted
            # bounds, one merged IR base per hop, one scan per hop group
            feats = self.agg.lambda_aggregate_many(ir, ts_arr, rows, qts[idx])
            _scatter_features(feat_cols, idx, feats, out_cols)
        for c in out_cols:
            # .tolist() keeps pandas' dtype inference identical to the old
            # list-of-values writeback (float64 columns stay float64)
            out[c] = feat_cols[c].tolist()
        return out


def online_enrich_distributed(left_ds, group_by: GroupBy, batch_end_ts: int,
                              upload_ds, stream_ds=None, num_buckets: int = 32,
                              resolution=FiveMinuteResolution):
    """Serving lambda applied offline with zero driver materialization.

    left_ds: query rows (key columns + ts [+ passthrough]); upload_ds: the
    GroupByUpload table (key columns + __batch_ir + batch_end_ts), kept as a
    lazy Dataset; stream_ds: the streaming tail (key columns + ts + inputs),
    pre-filtered to ts >= batch_end_ts (rows before the seam are the batch
    half's property and are dropped here to preserve exactness).

    One union co-partition shuffle (the EntityKernel three-side pattern) —
    the scale-safe replacement for broadcasting the tail + upload dict via
    ray.put (OnlineEnrich), which holds the whole state per node."""
    import pyarrow as pa

    from ..pipelines.group_by import _arrow_schema
    from ..stages.shuffle import BUCKET_COL, SIDE_COL, AddBucket, pad_to_schema, unify_schemas

    key_cols = group_by.key_columns
    l_arrow = _arrow_schema(left_ds)
    u_arrow = _arrow_schema(upload_ds)
    unified = unify_schemas(l_arrow, u_arrow, {})
    if stream_ds is not None:
        stream_ds = stream_ds.filter(expr=f"ts >= {batch_end_ts}")
        unified = unify_schemas(unified, _arrow_schema(stream_ds), {SIDE_COL: pa.int8()})
    else:
        unified = unify_schemas(unified, pa.schema([]), {SIDE_COL: pa.int8()})

    def tag(side_val):
        def fn(batch: pa.Table) -> pa.Table:
            batch = batch.append_column(
                SIDE_COL, pa.array(np.full(len(batch), side_val, dtype=np.int8))
            )
            return pad_to_schema(batch, unified)

        return fn

    unioned = left_ds.map_batches(tag(0), batch_format="pyarrow").union(
        upload_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    if stream_ds is not None:
        unioned = unioned.union(stream_ds.map_batches(tag(2), batch_format="pyarrow"))
    bucketed = unioned.map_batches(AddBucket(key_cols, num_buckets), batch_format="pyarrow")
    kernel = ServingKernel(group_by, batch_end_ts, list(l_arrow.names), resolution)
    out = bucketed.groupby(BUCKET_COL).map_groups(kernel, batch_format="pyarrow")
    return out.select_columns(list(l_arrow.names) + [p.output_column for p in kernel.agg.parts])


class OnlineEnrich:
    """Actor-pool enrichment stage: ``map_batches(OnlineEnrich, fn_constructor_args=
    (upload_ref, events_ref, group_by, batch_end_ts), concurrency=N,
    batch_format="pandas")`` — the serving lambda applied offline at scale.

    upload_ref: ray.ObjectRef of the {key: blob} dict (ray.put once — every
    actor reads the same plasma copy, zero re-shipping per batch).
    events_ref: ObjectRef of a streaming-rows DataFrame or None.

    Broadcast trades state size for shuffle-free lookups: right when the
    upload+tail fit one node comfortably.  For large state use
    online_enrich_distributed (co-partition, no driver materialization)."""

    def __init__(self, upload_ref, events_ref, group_by: GroupBy, batch_end_ts: int):
        import ray

        upload = ray.get(upload_ref) if upload_ref is not None else {}
        self.fetcher = Fetcher(group_by, batch_end_ts, upload=upload)
        if events_ref is not None:
            self.fetcher.put_events(ray.get(events_ref))
        self.key_cols = group_by.key_columns

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feat_cols = self.fetcher.fetch_batch(batch)
        out = batch.copy()
        for col in self.fetcher.agg.parts:
            out[col.output_column] = feat_cols[col.output_column]
        return out
