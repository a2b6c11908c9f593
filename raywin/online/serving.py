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
Both kinds of streaming state are answered by the same lambda.  Sealed
tiles are held in the batch IRs' flat layout (an upload.IRTable of their
own), and a key's sealed tiles, which start at or after the seam, follow
its batch tiles in one ascending run; the unsealed raw head is the stream.

The lambda answers a whole request in one call, as the reference's
FetcherBase.fetchGroupBys runs it once over every key's state.  A request
is the queries of some keys, the keys' decoded batch IRs and their streams
one after another.  lambda_aggregate_many works on all of them at once:

  * for every window at once: each query's lo, the (key, lo) groups and
    each group's first stream event, one searchsorted over every key's
    stream;
  * per input column: the non-null events and the remap of the bounds;
  * for every part at once: each group's heads, the key's collapsed IR
    and then its tiles that start at or after lo, one searchsorted over
    every key's tile starts;
  * per fold channel, one pass over the groups of every part in it
    (scalar_ops.scan_parts).  Sum, count, average, min and max declare
    their folds as (ufunc, dtype) channels: add for a sum, min or max for
    an extremum, add on the sums plus an int64 add on the counts for an
    average, an int64 add for a count.  The rows of every part of a
    channel, whatever its window or input column, are stacked into one
    row-wise numpy accumulate, bit-identical to the sequential fold; an
    int64 add (associative) is one pass of prefix sums instead.  Every
    other op, and a part whose channel fails its dtype or signed-zero
    check, merges clones of its heads and runs the prepare/update loop.

A key's batch IR blob is decoded once (upload.IRTable, cached by the
Fetcher): the cache misses of a request are decoded together, with one
np.frombuffer over their joined blobs, into flat arrays (every key's
words, and per key and part the collapsed flag, tile count and kind).  A
request's heads, collapsed and tile indices and tile counts are then
fancy-indexed from those arrays (and from the sealed-tile table's, joined
run by run) and one searchsorted over the keys' tile starts, with no
Python loop over keys; the heads of the numeric ops come out as one array
per part.  Request and micro-batch rows are grouped by
key with one lexsort (of the key values when they are integers, else of
their factorize codes) instead of a pandas groupby, and a micro-batch that
continues a key's stream in time is appended without a sort.

online_enrich_distributed applies the lambda offline at scale: queries,
upload rows and the streaming tail meet in one co-partition exchange, and
each partition answers all of its keys with one lambda_aggregate_many call;
nothing is broadcast or collected into the calling process.
"""

from __future__ import annotations

import copy
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import GroupBy
from ..aggregator.kernel import output_type, to_arrow
from ..aggregator.npfast import concat_ranges
from ..aggregator.scalar_ops import Segments, make_scalar_op, scan_parts
from ..aggregator.windowing import FiveMinuteResolution, round_down
from .upload import IR_COL, IRTable, encode_dicts, load_upload


# lo of an unbounded part: below every tile start and event ts
_LO_NONE = np.iinfo(np.int64).min // 2
# seam of a Fetcher or TileAggregator without a batch side: below every ts
_NO_SEAM = np.iinfo(np.int64).min // 4


class KeyIRs(NamedTuple):
    """Some keys' decoded batch IRs as lambda_aggregate_many takes them:
    an upload.IRTable and each key's row in it (0: no batch IR); and, when
    tile-backed, a TileAggregator's table of sealed tiles and each key's
    row in it, whose tiles follow the key's batch tiles."""

    table: IRTable
    rows: np.ndarray
    tiles: IRTable | None = None
    tile_rows: np.ndarray | None = None


class _Groups(NamedTuple):
    """The query groups of every window of a request (queries ts-ascending
    within each key): window w's groups are [bounds[w], bounds[w + 1]);
    each group's key, lo and first stream event in its window; and per
    window, each query's group counted from the window's first."""

    key: np.ndarray
    lo: np.ndarray
    bounds: np.ndarray
    i0: np.ndarray
    q_group: np.ndarray


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
        # the distinct windows, and each part's
        wins = list(dict.fromkeys(w for *_, w in self._specs))
        self._part_win = np.array([wins.index(w) for *_, w in self._specs], dtype=np.int64)
        self._win_ms = np.array([0 if w is None else w[0] for w in wins], dtype=np.int64)
        self._win_hop = np.array([1 if w is None else w[1] for w in wins], dtype=np.int64)
        self._win_unbounded = np.array([w is None for w in wins])
        self.columns = [col for _, col, _, _ in self._specs]

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

    # -- batch IRs as lambda_aggregate_many takes them ------------------------
    def decode(self, batch_irs) -> KeyIRs:
        """Keys' batch IRs in dict form ({output_column: {"c": collapsed IR,
        "t": [(start, IR), ...] ascending by start}}, or None each), as
        lambda_aggregate_many takes them: encoded as upload blobs and
        decoded in one pass."""
        table = IRTable(self.columns)
        return KeyIRs(table, table.add(encode_dicts(self.ops, self.columns, batch_irs)))

    # -- the lambda ---------------------------------------------------------
    def lambda_aggregate_many(self, batch_irs, stream_ts, stream_rows, query_ts,
                              stream_bounds=None, query_bounds=None) -> dict:
        """The lambda for one request: every query of every key, bitwise
        equal to lambda_aggregate per query.

        A request of K keys: batch_irs is their KeyIRs (decode(), or a
        Fetcher's tables and the keys' rows in them), key k's at
        batch_irs.rows[k]; stream_ts and stream_rows ({input column:
        values}) hold the keys' streams one after another, key k's at
        [stream_bounds[k], stream_bounds[k + 1]), each ts-ascending;
        query_ts holds their queries the same way, at query_bounds.
        Without bounds the request is one key's, and batch_irs is that
        key's batch IR in dict form (or None).  Returns
        {output column: object array aligned with query_ts}.

        The groups of every window, each input column's non-null events and
        the heads of every part are computed once for all keys; then
        scan_parts folds the groups of all parts, one pass per fold
        channel."""
        qts = np.asarray(query_ts, dtype=np.int64)
        if query_bounds is None:  # one key
            batch_irs = self.decode([batch_irs])
            stream_bounds = [0, 0 if stream_ts is None else len(stream_ts)]
            query_bounds = [0, len(qts)]
        n = len(qts)
        if not n:
            return {col: np.empty(0, dtype=object) for _, col, _, _ in self._specs}
        if stream_ts is None:
            stream_ts = np.zeros(0, dtype=np.int64)
        stream_rows = stream_rows or {}
        qb = np.asarray(query_bounds, dtype=np.int64)
        q_key = np.arange(len(qb) - 1).repeat(qb[1:] - qb[:-1])
        order = np.lexsort((qts, q_key))  # ts-ascending within each key
        if (order == np.arange(n)).all():
            order = None
        else:
            qts = qts[order]
        stream = _Runs(stream_ts, np.asarray(stream_bounds, dtype=np.int64))
        i1 = stream.search(q_key, qts)  # each query's first event at or after it
        grp = self._groups(q_key, qts, stream)
        heads = self._heads(batch_irs, grp)
        columns, parts = {}, []
        for (op, _, in_col, _), w, (h, collapsed, tile, n_tiles) in zip(
                self._specs, self._part_win.tolist(), heads):
            if in_col not in columns:
                ev_vals, ev_ts, before = _events(stream_rows.get(in_col), stream_ts)
                columns[in_col] = ev_vals, ev_ts, before, before[i1]
            ev_vals, ev_ts, before, e1 = columns[in_col]
            e0 = before[grp.i0[grp.bounds[w]:grp.bounds[w + 1]]]
            q_group = grp.q_group[w]
            parts.append((op, h, ev_vals, ev_ts, Segments(collapsed, tile, n_tiles, e0, q_group),
                          np.maximum(e1 - e0[q_group], 0)))
        out = {}
        for (_, out_col, _, _), res in zip(self._specs, scan_parts(parts)):
            res = _objects(res)
            if order is not None:  # back to the caller's query order
                col = np.empty(n, dtype=object)
                col[order] = res
                res = col
            out[out_col] = res
        return out

    def _groups(self, q_key, qts, stream) -> _Groups:
        """The query groups of every window at once: a key's queries with
        one lo (all of them when unbounded).  qts are ts-ascending within
        each key, so a group is a run of them."""
        lo = round_down(qts[None, :] - self._win_ms[:, None], self._win_hop[:, None])
        lo[self._win_unbounded] = _LO_NONE
        new = np.ones(lo.shape, dtype=bool)
        new[:, 1:] = (lo[:, 1:] != lo[:, :-1]) | (q_key[1:] != q_key[:-1])
        flat = new.ravel().nonzero()[0]
        g_win, first = np.divmod(flat, len(qts))
        key, g_lo = q_key[first], lo.ravel()[flat]
        return _Groups(
            key, g_lo, g_win.searchsorted(np.arange(len(lo) + 1)),
            stream.search(key, np.maximum(g_lo, self.batch_end_ts)),
            new.cumsum(axis=1) - 1,
        )

    def _heads(self, batch_irs: KeyIRs, grp: _Groups) -> list:
        """Each part's (heads, collapsed, tile, n_tiles) for Segments: a
        group's heads are its key's collapsed IR, then the key's tiles that
        start at or after the group's lo (all of them when unbounded),
        found by one search over every key's and part's tile starts.  A
        key's sealed tiles start at or after the seam, so they follow its
        batch tiles in one ascending run.  Every index is computed for all
        keys and parts at once."""
        n_parts = len(self._specs)
        has_c, n_tiles, starts, heads = batch_irs.table.gather(
            batch_irs.rows, batch_irs.tiles, batch_irs.tile_rows)
        # rows: every part's groups, one part after another; tile runs are
        # (key, part), key after key as gather lays them out
        per_part = (grp.bounds[1:] - grp.bounds[:-1])[self._part_win]
        rows = concat_ranges(grp.bounds[self._part_win], per_part)
        run = grp.key[rows] * n_parts + np.arange(n_parts).repeat(per_part)
        t_bounds = np.concatenate(([0], n_tiles.ravel().cumsum()))
        first_tile = _Runs(starts, t_bounds).search(run, grp.lo[rows])
        # a key's heads in its part's heads: the collapsed IR, then tiles
        sizes = has_c + n_tiles
        offset = (sizes.cumsum(axis=0) - sizes).ravel()[run]
        hc = has_c.ravel()[run]
        collapsed = np.where(hc > 0, offset, -1)
        tile = offset + hc + first_tile - t_bounds[run]
        count = t_bounds[run + 1] - first_tile
        r = [0] + per_part.cumsum().tolist()
        return [(h, collapsed[a:b], tile[a:b], count[a:b])
                for h, a, b in zip(heads, r[:-1], r[1:])]


class _Runs:
    """Ascending runs vals[bounds[k]:bounds[k + 1]], one per key, searched
    for many (key, value) pairs by one np.searchsorted over the composite
    (key, value) order."""

    def __init__(self, vals, bounds):
        self.vals, self.bounds = vals, bounds
        self.comp = None
        if len(vals):
            self.lo = int(vals.min())
            self.span = int(vals.max()) - self.lo + 2
            if (len(bounds) - 1) * self.span < 2**62:
                keys = np.arange(len(bounds) - 1).repeat(bounds[1:] - bounds[:-1])
                self.comp = keys * self.span + (vals - self.lo)

    def search(self, keys, x):
        """Positions in vals of searchsorted(run of keys[i], x[i], "left")."""
        if not len(self.vals):
            return self.bounds[keys]
        if self.comp is None:  # values too far apart for one int64 order
            return np.array([
                b + np.searchsorted(self.vals[b:e], v)
                for b, e, v in zip(self.bounds[keys], self.bounds[keys + 1], x)
            ], dtype=np.int64)
        x = np.minimum(np.maximum(x, self.lo), self.lo + self.span - 1) - self.lo
        return self.comp.searchsorted(keys * self.span + x)


def _events(vals, ts):
    """A column's non-null stream events: (values, ts, before), where
    before[i] is how many of them the first i stream events hold."""
    if vals is None:
        return np.zeros(0), ts[:0], np.zeros(len(ts) + 1, dtype=np.int64)
    ok = _non_null(vals)
    if ok is None:
        return vals, ts, np.arange(len(ts) + 1)
    return vals[ok], ts[ok], np.concatenate(([0], ok.cumsum()))


def _objects(values) -> np.ndarray:
    """values as a 1-D object array (list and dict values stay whole)."""
    if isinstance(values, np.ndarray):
        return values
    out = np.empty(len(values), dtype=object)
    out[:] = values
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


def _key_groups(key_values, ts, keep=None):
    """Rows grouped by key, ts-ascending (stable) within a key, with one
    lexsort: of the key values themselves when every key column is an
    integer numpy array (no nulls), else of one factorize per key column.
    key_values holds one numpy array per key column.  Rows outside
    ``keep`` or with a null key are left out, as a pandas groupby drops
    them.  Returns (row positions, [(key tuple, a, b)]): a key's rows are
    positions[a:b], and a key is a tuple of Python values either way."""
    codes, uniques = [], []
    for col in key_values:
        if col.dtype.kind in "iu":
            codes.append(col)
            uniques.append(None)
            continue
        c, u = pd.factorize(col)
        codes.append(c)
        uniques.append(pd.Index(u) if u.dtype.kind in "mM" else u)  # datetimes box as a Series'
        keep = c >= 0 if keep is None else keep & (c >= 0)
    pos = np.arange(len(ts)) if keep is None else np.flatnonzero(keep)
    if not len(pos):
        return pos, []
    pos = pos[np.lexsort([ts[pos]] + [c[pos] for c in reversed(codes)])]
    codes = [c[pos] for c in codes]
    new_key = np.zeros(len(pos), dtype=bool)
    new_key[0] = True
    for c in codes:
        new_key[1:] |= c[1:] != c[:-1]
    firsts = np.flatnonzero(new_key)
    keys = zip(*((c[firsts] if u is None else u.take(c[firsts])).tolist()
                 for c, u in zip(codes, uniques)))
    bounds = firsts.tolist() + [len(pos)]
    return pos, list(zip(keys, bounds[:-1], bounds[1:]))


def _put(streams: dict, df: pd.DataFrame, key_cols, in_cols, keep):
    """Merge df's rows in keep into streams (_merge_append), each key's
    (ts, {input column: values}) a slice of one (key, ts) sort of df."""
    ts = df["ts"].to_numpy(dtype=np.int64)
    pos, groups = _key_groups([df[k].to_numpy() for k in key_cols], ts, keep)
    ts = ts[pos]
    cols = {c: df[c].to_numpy()[pos] for c in in_cols if c in df.columns}
    for key, a, b in groups:
        _merge_append(streams, key, ts[a:b], {c: v[a:b] for c, v in cols.items()})


def _merge_append(streams: dict, key: tuple, ts, rows: dict):
    """Merge one key's ts-ascending slice into streams[key] = [ts, {column:
    values}].  A slice that starts at or after the key's last ts is
    appended; micro-batches may also interleave in time, and then a stable
    sort of the two sorted runs (near-linear) keeps earlier-ingested rows
    first on ts ties."""
    cur = streams.get(key)
    if cur is None:
        streams[key] = [ts, rows]
        return
    if not len(cur[0]) or cur[0][-1] <= ts[0]:  # in order: ties stay after
        streams[key] = [np.concatenate([cur[0], ts]),
                        {c: np.concatenate([cur[1][c], rows[c]]) for c in rows}]
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
    (key, ts) and appends each key's slice to the key's arrays, or
    stable-merges it when it starts before the key's last ts.
    fetch_batch answers a request with one lambda_aggregate_many call over
    all of its keys (fetch is a one-row fetch_batch).  Each key's batch IR
    is decoded once into one IRTable, the request's cache misses together
    with one IRTable.add; _cache holds every key looked up, with its row in
    the table (0 when the key has no blob).  Tile-backed state takes the
    same call and the same cached decode: the key's sealed tiles are read
    from the TileAggregator's own IRTable, which the lambda gathers after
    the key's batch tiles, and the unsealed raw head is the stream."""

    def __init__(self, group_by: GroupBy, batch_end_ts: int, upload=None,
                 resolution=FiveMinuteResolution):
        self.group_by = group_by
        self.agg = SawtoothOnlineAggregator(group_by, batch_end_ts, resolution)
        self.batch_end_ts = batch_end_ts
        self.key_cols = group_by.key_columns
        self._in_cols = {p.input_column for p in self.agg.parts}
        self._blobs: dict = {} if upload is None else (
            upload if isinstance(upload, dict) else load_upload(upload, self.key_cols))
        self._cache: dict = {}  # key -> its row in _irs (0 when the key has no blob)
        self._irs = IRTable(self.agg.columns)
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
        _put(self._stream, df, self.key_cols, self._in_cols, keep)

    def attach_tiles(self, tile_aggregator):
        """Serve from a TileAggregator's sealed tiles + unsealed raw rows.
        Its seam must be this Fetcher's (_NO_SEAM without a batch side), so
        that its sealed tiles start at or after the seam, after every batch
        tile, and no event on either side of the seam is lost."""
        if tile_aggregator.batch_end_ts != self.batch_end_ts:
            raise ValueError(f"the TileAggregator's seam {tile_aggregator.batch_end_ts} "
                             f"is not the Fetcher's {self.batch_end_ts}")
        self._tiles = tile_aggregator

    # -- fetch --------------------------------------------------------------
    def _rows(self, keys) -> np.ndarray:
        """The rows of (distinct) keys in _irs: the blobs of the keys not in
        _cache yet are decoded together, by one IRTable.add."""
        new = [k for k in keys if k not in self._cache]
        if new:
            rows = self._irs.add([self._blobs.get(k) for k in new])
            self._cache.update(zip(new, rows.tolist()))
        return np.array([self._cache[k] for k in keys], dtype=np.int64)

    def _stream_of(self, key: tuple):
        """(stream ts, stream rows) of key, (None, None) without a stream:
        the raw rows put, or the TileAggregator's unsealed raw head."""
        st = (self._stream if self._tiles is None else self._tiles.raw).get(key)
        return (st[0], st[1]) if st else (None, None)

    def _state(self, key: tuple):
        """(batch IR in dict form, stream ts, stream rows) of a raw-row key,
        as the per-row reference lambda_aggregate takes them."""
        return (self._irs.ir(int(self._rows([key])[0])), *self._stream_of(key))

    def fetch(self, key, query_ts: int) -> dict:
        """One key at one ts: a one-row fetch_batch."""
        key = key if isinstance(key, tuple) else (key,)
        row = pd.DataFrame({**{c: [v] for c, v in zip(self.key_cols, key)},
                            "ts": [int(query_ts)]})
        return {c: v[0] for c, v in self.fetch_batch(row).items()}

    def fetch_batch(self, batch: pd.DataFrame) -> dict[str, list]:
        """Fetch for a whole (key cols + ts) frame with one
        ``lambda_aggregate_many`` call over all of its keys — the same
        engine ServingKernel's distributed path uses.  Returns
        {output_column: values aligned with batch's positions}."""
        qts = batch["ts"].to_numpy(dtype=np.int64)
        # sealed tiles are whole tile spans: a query behind the sealed
        # boundary would count the part of a tile at or after its ts
        sealed = None if self._tiles is None else self._tiles.sealed_until
        if sealed is not None and len(qts) and int(qts.min()) < sealed:
            raise ValueError(f"query_ts {int(qts.min())} is behind the sealed boundary {sealed}")
        pos, groups = _key_groups([batch[k].to_numpy() for k in self.key_cols], qts)
        keys = [key for key, _, _ in groups]
        tiles = () if self._tiles is None else (self._tiles.table, self._tiles.rows(keys))
        irs = KeyIRs(self._irs, self._rows(keys), *tiles)
        ts, cols, bounds = _concat_streams([self._stream_of(k) for k in keys], self._in_cols)
        feats = self.agg.lambda_aggregate_many(
            irs, ts, cols, qts[pos], bounds, [a for _, a, _ in groups] + [len(pos)],
        )
        return {c: _scatter(len(batch), pos, v).tolist() for c, v in feats.items()}


def _scatter(n: int, pos, values) -> np.ndarray:
    """An object array of n Nones with values at pos."""
    out = np.empty(n, dtype=object)  # all None
    out[pos] = values
    return out


def _concat_streams(streams, in_cols):
    """A request's (ts, rows) streams, one per key (ts None: no stream),
    one after another: (ts or None, {input column: values}, key bounds).
    A column a key never streamed is null for it.  A column whose keys
    hold different dtypes is joined as objects, so each value keeps its
    own arithmetic in the fold."""
    bounds = np.cumsum([0] + [0 if ts is None else len(ts) for ts, _ in streams])
    have = [(ts, rows) for ts, rows in streams if ts is not None and len(ts)]
    if not have:
        return None, None, bounds
    rows = {}
    for c in in_cols:
        cols = [r.get(c) for _, r in have]
        if all(v is None for v in cols):
            continue
        rows[c] = _concat([np.full(len(ts), None, dtype=object) if v is None else v
                           for (ts, _), v in zip(have, cols)])
    return _concat([ts for ts, _ in have]), rows, bounds


def _concat(arrays):
    if len(arrays) == 1:
        return arrays[0]
    if len({a.dtype for a in arrays}) > 1:
        arrays = [a.astype(object) for a in arrays]
    return np.concatenate(arrays)


class ServingKernel:
    """Per-bucket lambda merge over three co-partitioned sides: queries
    (side 0), batch-IR upload rows (side 1), streaming-tail events (side 2).

    The scale path for offline application of the serving lambda: nothing is
    materialized on the driver — upload blobs and tail events ride the same
    hash(key) co-partition shuffle as the queries, so each bucket task sees
    exactly its keys' state (the distributed analogue of a KV-store range
    scan; reference Fetcher reads per-key from the store instead).  A
    bucket's queries are one request: one lambda_aggregate_many call."""

    def __init__(self, group_by: GroupBy, batch_end_ts: int, left_names,
                 resolution=FiveMinuteResolution):
        from ..pipelines.group_by import events_dataset
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
        from ..stages.shuffle import SIDE_COL

        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        q_tbl = group.filter(pa.array(side == 0)).select(self.left_names)
        out_schema = pa.schema(list(q_tbl.schema) + self.out_fields)
        if q_tbl.num_rows == 0:
            return out_schema.empty_table()
        upload = group.filter(pa.array(side == 1))
        stream = group.filter(pa.array(side == 2))
        keys = zip(*(pd.Index(k).tolist() for k in self._keys(upload)))
        blobs = dict(zip(keys, upload[IR_COL].to_pylist()))
        s_ts = stream["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        s_pos, s_groups = _key_groups(self._keys(stream), s_ts)
        runs = {key: (a, b - a) for key, a, b in s_groups}
        qts = q_tbl["ts"].to_numpy(zero_copy_only=False).astype(np.int64)
        pos, groups = _key_groups(self._keys(q_tbl), qts)
        # the bucket's blobs of the queried keys, decoded in one pass
        table = IRTable(self.agg.columns)
        irs = KeyIRs(table, table.add([blobs.get(key) for key, _, _ in groups]))
        # the queried keys' streams, one after another
        starts, lengths = np.array(
            [runs.get(key, (0, 0)) for key, _, _ in groups], dtype=np.int64).reshape(-1, 2).T
        take = s_pos[concat_ranges(starts, lengths)]
        rows = {c: stream[c].to_numpy(zero_copy_only=False)[take]
                for c in self.in_cols if c in stream.column_names}
        feats = self.agg.lambda_aggregate_many(
            irs, s_ts[take], rows, qts[pos],
            np.concatenate(([0], lengths.cumsum())),
            [a for _, a, _ in groups] + [len(pos)],
        )
        cols = [to_arrow(_scatter(q_tbl.num_rows, pos, feats[f.name]), f.type)
                for f in self.out_fields]
        return pa.Table.from_arrays(list(q_tbl.columns) + cols, schema=out_schema)

    def _keys(self, table: pa.Table) -> list:
        """table's key columns as numpy arrays, one conversion for every
        side, so the sides' key tuples compare equal."""
        return [table[k].to_numpy(zero_copy_only=False) for k in self.key_cols]


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
    out = co_partition(sides, group_by.key_columns, kernel)
    out = out.select_columns(kernel.left_names + [p.output_column for p in kernel.agg.parts])
    return declare_schema(out, pa.schema(list(l_arrow) + kernel.out_fields))
