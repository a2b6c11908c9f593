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
with a binary IR blob (the reference ships Avro-encoded IRs, TileCodec, to
a KV store; a binary column in a parquet/Lance table is the
warehouse-native equivalent).

The blob is flat little-endian 8-byte words (encode_irs writes it, IRTable
reads it; nothing else reads the layout):

    one header word per part: n_tiles << 4 | kind << 1 | has_collapsed
    the int64 tile starts, part after part, ascending within a part
    the heads of the numeric parts, part after part: the collapsed IR (when
        there is one), then the tiles, as the op's ir_array (float64 or
        int64, one word per head; two float64 words for AVERAGE's
        [sum, count])
    a pickled section, zero-padded to a whole word, with the heads of the
        parts whose IRs have no ir_array (LAST_K, HISTOGRAM, sketches,
        UNIQUE_COUNT, ints beyond int64) or mix types: {part index:
        [IR, ...]}

kind also records the IRs' Python type (numpy or built-in scalar), so the
dict-form reader (read_ir, IRTable.ir) gives back exactly what the upload
fold produced (an AVERAGE sum always reads back as a float, which is what
the fold makes).  IRTable decodes many blobs with one np.frombuffer over
their concatenation and holds every key's IRs in flat arrays.
"""

from __future__ import annotations

import pickle

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..api import GroupBy
from ..aggregator.npfast import concat_ranges
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

        The blobs of all keys are then written by one encode_irs call
        (Python touches a key only to pickle the heads of parts without
        an ir_array), never each event."""
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

        # per part: each key's collapsed IR, and the (key, start)-ascending tiles
        key_heads = joint[seg_starts]
        folded = []
        for part, op, (lo_min, lo_max, hop) in zip(self.parts, ops, bounds):
            vals = raw_vals[part.input_column]
            valid = pd.notna(vals)
            body = valid if lo_min is None else valid & (ts >= lo_max)
            ki, _, irs = _fold_runs(op, vals, ts, joint, key_heads, np.flatnonzero(body))
            tk, starts, t_irs = _fold_runs(op, vals, ts, joint, key_heads, ki[:0])
            if lo_min is not None:
                t_idx = np.flatnonzero(valid & (ts >= lo_min) & (ts < lo_max))
                tk, t0, t_irs = _fold_runs(op, vals, ts, joint, key_heads, t_idx, hop)
                starts = round_down(t0, hop)
            folded.append((ki, irs, tk, starts, t_irs))

        cols = []
        for i, f in enumerate(self.key_fields):
            rep = code_cols[i][seg_starts] if n_keys else np.zeros(0, np.int64)
            arr = key_dicts[i].take(pa.array(rep, pa.int64()))  # unbox only representatives
            if arr.type != f.type:
                arr = arr.cast(f.type)
            cols.append(arr)
        cols.append(encode_irs(ops, n_keys, folded))
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
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), []
    sub_ts, sub_key = ts[idx], joint[idx]
    cut = np.diff(sub_key) != 0
    if hop is not None:
        cut |= np.diff(sub_ts // hop) != 0
    st = np.concatenate(([0], np.flatnonzero(cut) + 1))
    ki = np.searchsorted(key_heads, sub_key[st], side="left")
    return ki, sub_ts[st], op.fold_segments(vals[idx], sub_ts, st)



# -- the blob codec ------------------------------------------------------------
# a part's kind (header bits 1-3): how its heads are stored.  A numeric kind
# also names the IRs' type, so the words give back what the fold produced.
_PICKLED, _F8, _PYF, _I8, _PYI, _PAIRS = range(6)
_KINDS = {
    (np.float64, np.dtype(np.float64)): _F8, (float, np.dtype(np.float64)): _PYF,
    (np.int64, np.dtype(np.int64)): _I8, (int, np.dtype(np.int64)): _PYI,
}
# words per head, and the array class that heads of a kind share in a
# request (0: IR objects, 1: float64, 2: int64, 3: [sum, count] float64 rows)
_WIDTH = np.array([0, 1, 1, 1, 1, 2])
_CLASS = np.array([0, 1, 1, 2, 2, 3])
_HEADS = {1: lambda w: w.view("<f8"), 2: lambda w: w,
          3: lambda w: w.view("<f8").reshape(-1, 2)}
_IRS = {
    _F8: lambda w: list(w.view("<f8")),
    _PYF: lambda w: w.view("<f8").tolist(),
    _I8: list,
    _PYI: lambda w: w.tolist(),
    _PAIRS: lambda w: [[s, int(c)] for s, c in w.view("<f8").reshape(-1, 2).tolist()],
}


def _kind(op, irs):
    """(kind, op.ir_array(irs)) of one part's IRs: numeric when the op has
    an ir_array for them and they share one type its words give back
    exactly, else (_PICKLED, None)."""
    arr = op.ir_array(irs) if irs else None
    if arr is None:
        return _PICKLED, None
    t = type(irs[0])
    if any(type(ir) is not t for ir in irs):
        return _PICKLED, None
    if arr.ndim == 2:
        # AVERAGE's [sum, int count], counts exact in float64; a sum reads
        # back as a float, the type the upload fold gives it
        exact = all(type(c) is int for _, c in irs) and np.abs(arr[:, 1]).max() <= 2**53
        return (_PAIRS, arr) if exact else (_PICKLED, None)
    kind = _KINDS.get((t, arr.dtype), _PICKLED)
    return kind, arr if kind else None


def encode_irs(ops, n_keys: int, parts) -> pa.Array:
    """The blobs of n_keys keys' batch IRs, one binary value per key (layout
    in the module docstring).  parts[p] is part p's (keys, IRs, tile keys,
    tile starts, tile IRs): the collapsed IR of each key in keys, and the
    tiles ascending by (key, start).  A part's kind is chosen once for all
    the keys; the words of every key are written by one numpy pass per
    part, and only the pickled heads are encoded key by key."""
    n_parts = len(ops)
    has_c = np.zeros((n_keys, n_parts), dtype=np.int64)
    n_tiles = np.zeros((n_keys, n_parts), dtype=np.int64)
    kinds, arrays, ranks, objects = [], [], [], {}
    for p, (op, (ck, c_irs, tk, _, t_irs)) in enumerate(zip(ops, parts)):
        has_c[ck, p] = 1
        n_tiles[:, p] = np.bincount(tk, minlength=n_keys)
        ranks.append(np.arange(len(tk)) - np.searchsorted(tk, tk))  # among the key's tiles
        irs = list(c_irs) + list(t_irs)
        kind, arr = _kind(op, irs)
        kinds.append(kind)
        arrays.append(arr)
        if kind == _PICKLED:  # a key's collapsed IR, then its tiles'
            for k, ir in zip(np.concatenate((ck, tk)).tolist(), irs):
                objects.setdefault(k, {}).setdefault(p, []).append(ir)
    sections = {k: pickle.dumps(o, protocol=pickle.HIGHEST_PROTOCOL) for k, o in objects.items()}
    kinds = np.array(kinds, dtype=np.int64)
    hw = (has_c + n_tiles) * _WIDTH[kinds]
    pk_words = np.zeros(n_keys, dtype=np.int64)
    pk_words[list(sections)] = [-(-len(b) // 8) for b in sections.values()]
    n_words = n_parts + n_tiles.sum(axis=1) + hw.sum(axis=1) + pk_words
    end = n_words.cumsum()
    off = end - n_words
    words = np.zeros(int(end[-1]) if n_keys else 0, dtype="<i8")
    words[off[:, None] + np.arange(n_parts)] = n_tiles << 4 | kinds << 1 | has_c
    tile_at = (off + n_parts)[:, None] + n_tiles.cumsum(axis=1) - n_tiles
    head_at = (off + n_parts + n_tiles.sum(axis=1))[:, None] + hw.cumsum(axis=1) - hw
    for p, ((ck, _, tk, starts, _), arr, rank) in enumerate(zip(parts, arrays, ranks)):
        words[tile_at[tk, p] + rank] = starts
        if arr is not None:
            w = int(_WIDTH[kinds[p]])
            at = np.concatenate((head_at[ck, p], head_at[tk, p] + (has_c[tk, p] + rank) * w))
            words[at[:, None] + np.arange(w)] = (
                arr.astype(arr.dtype.newbyteorder("<"), copy=False).reshape(len(arr), w).view("<i8"))
    as_bytes = words.view(np.uint8)
    for k, b in sections.items():
        at = int(end[k] - pk_words[k]) * 8
        as_bytes[at:at + len(b)] = np.frombuffer(b, dtype=np.uint8)
    offsets = np.concatenate(([0], end)) * 8
    blobs = pa.Array.from_buffers(pa.large_binary(), n_keys,
                                  [None, pa.py_buffer(offsets), pa.py_buffer(words)])
    return blobs.cast(pa.binary())  # raises past binary's 2 GiB of offsets


def encode_dicts(ops, columns, irs) -> list:
    """The blobs of dict-form batch IRs ({column: {"c": collapsed IR or
    None, "t": [(start, IR), ...] ascending by start}}, as read_ir gives
    them), None where irs has None."""
    present = [ir for ir in irs if ir is not None]
    parts = []
    for col in columns:
        ck, c_irs, tk, starts, t_irs = [], [], [], [], []
        for k, ir in enumerate(present):
            entry = ir.get(col) or {"c": None, "t": ()}
            if entry["c"] is not None:
                ck.append(k)
                c_irs.append(entry["c"])
            for start, t in entry["t"]:
                if t is not None:
                    tk.append(k)
                    starts.append(int(start))
                    t_irs.append(t)
        parts.append((np.array(ck, dtype=np.int64), c_irs, np.array(tk, dtype=np.int64),
                      np.array(starts, dtype=np.int64), t_irs))
    blobs = iter(encode_irs(ops, len(present), parts).to_pylist())
    return [None if ir is None else next(blobs) for ir in irs]


class IRTable:
    """Decoded batch IRs of many keys, held flat: the words of every blob
    one after another, and one meta row per key.  A meta row holds, per
    part, the collapsed flag, the tile count, the kind, where the heads
    start, their words and their array class (_CLASS, twice: -1 and 9 when
    the part has no heads); then where the key's tile starts start, and
    how many there are.  Row 0 is the empty IR of a key without a blob.
    add() decodes many blobs in one pass, gather() gives some rows as
    lambda_aggregate_many reads them, ir() is the dict-form reader."""

    # the meta column blocks, n_parts columns each
    HAS_C, N_TILES, KIND, HEAD_AT, HEAD_WORDS, CLASS_HI, CLASS_LO = range(7)

    def __init__(self, columns):
        self.columns = list(columns)
        self.n_rows, self.n_words = 1, 0
        n_parts = len(self.columns)
        self.meta = np.zeros((1, 7 * n_parts + 2), dtype=np.int64)
        self.meta[0, self.CLASS_HI * n_parts:(self.CLASS_HI + 1) * n_parts] = -1
        self.meta[0, self.CLASS_LO * n_parts:(self.CLASS_LO + 1) * n_parts] = 9
        self.words = np.zeros(0, dtype="<i8")
        self.objects = {}  # row -> {part: [IR, ...]}: the pickled heads

    def _block(self, m, block):
        n_parts = len(self.columns)
        return m[:, block * n_parts:(block + 1) * n_parts]

    def add(self, blobs) -> np.ndarray:
        """Decode blobs (None: no blob) with one np.frombuffer over their
        concatenation; returns each one's row (0 for None)."""
        rows = np.zeros(len(blobs), dtype=np.int64)
        have = [i for i, b in enumerate(blobs) if b is not None]
        if not have:
            return rows
        got = [blobs[i] for i in have]
        buf = b"".join(got)
        words = np.frombuffer(buf, dtype="<i8")
        n_parts = len(self.columns)
        size = np.fromiter(map(len, got), np.int64, len(got)) >> 3
        off = size.cumsum() - size + self.n_words  # where each blob goes in self.words
        head = words[(off - self.n_words)[:, None] + np.arange(n_parts)]
        has_c, kind, n_tiles = head & 1, head >> 1 & 7, head >> 4
        tiles = n_tiles.sum(axis=1)
        present = has_c + n_tiles > 0
        hw = (has_c + n_tiles) * _WIDTH[kind]
        head_at = (off + n_parts + tiles)[:, None] + hw.cumsum(axis=1) - hw
        cls = _CLASS[kind]
        first = self.n_rows
        if not kind.all():
            for k in ((kind == _PICKLED) & present).any(axis=1).nonzero()[0].tolist():
                at, end = int(head_at[k, -1] + hw[k, -1] - self.n_words), int(off[k] + size[k])
                self.objects[first + k] = pickle.loads(
                    memoryview(buf)[at * 8:(end - self.n_words) * 8])
        self.meta = _append(self.meta, first, np.concatenate((
            has_c, n_tiles, kind, head_at, hw, np.where(present, cls, -1),
            np.where(present, cls, 9), (off + n_parts)[:, None], tiles[:, None]), axis=1))
        self.words = _append(self.words, self.n_words, words)
        self.n_rows += len(got)
        self.n_words += len(words)
        rows[have] = np.arange(first, self.n_rows)
        return rows

    def gather(self, rows, tiles=None, tile_rows=None):
        """rows' batch IRs as lambda_aggregate_many reads them: has_c and
        n_tiles per row and part; every tile start, row after row and part
        after part; and per part the rows' heads one row after another, as
        one array when their kinds share one, else as a list of IRs (an
        empty list when there are none).  One take reads the starts and
        the heads.  Given tiles (an IRTable without collapsed IRs) and each
        row's row in it, a row's tiles of a part are followed by its tiles
        there: the two gathers are joined run by run (_join), or as IR
        lists when the two sides' heads do not share one array dtype."""
        has_c, n_tiles, starts, heads = self._gather(rows)
        if tiles is None:
            return has_c, n_tiles, starts, heads
        _, more, more_starts, more_heads = tiles._gather(tile_rows)
        for p, (a, b) in enumerate(zip(heads, more_heads)):
            if not len(a) or not len(b):
                heads[p] = b if len(b) else a
            elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and \
                    (a.dtype, a.ndim) == (b.dtype, b.ndim):
                heads[p] = _join(a, b, has_c[:, p] + n_tiles[:, p], more[:, p])
            else:
                heads[p] = [ir for r, t in zip(rows.tolist(), tile_rows.tolist())
                            for ir in self._irs(r, p) + tiles._irs(t, p)]
        return (has_c, n_tiles + more,
                _join(starts, more_starts, n_tiles.ravel(), more.ravel()), heads)

    def _gather(self, rows):
        m = self.meta[rows]
        # the rows' tile starts, then each part's heads of every row
        at = np.concatenate((m[:, -2], self._block(m, self.HEAD_AT).T.ravel()))
        n = np.concatenate((m[:, -1], self._block(m, self.HEAD_WORDS).T.ravel()))
        ends = n.cumsum()
        words = self.words[np.arange(ends[-1]) + (at - ends + n).repeat(n)]
        ends = [0] + ends[len(rows) - 1::len(rows)].tolist()
        hi = self._block(m, self.CLASS_HI).max(axis=0).tolist()
        lo = self._block(m, self.CLASS_LO).min(axis=0).tolist()
        heads = []
        for p, (a, b) in enumerate(zip(ends[1:-1], ends[2:])):
            if hi[p] < 0:
                heads.append([])
            elif lo[p] == hi[p] > 0:
                heads.append(_HEADS[hi[p]](words[a:b]))
            else:  # IR objects, or numeric kinds of different dtypes
                heads.append([ir for r in rows.tolist() for ir in self._irs(r, p)])
        return (self._block(m, self.HAS_C), self._block(m, self.N_TILES),
                words[:ends[1]], heads)

    def _irs(self, row: int, p: int) -> list:
        """Row's IRs of part p: its collapsed IR (when it has one), then its
        tiles'."""
        n_parts = len(self.columns)
        has_c, n_tiles, kind, at = self.meta[row, p::n_parts][:self.HEAD_AT + 1].tolist()
        if not has_c + n_tiles:
            return []
        if kind == _PICKLED:
            return self.objects[row][p]
        return _IRS[kind](self.words[at:at + (has_c + n_tiles) * int(_WIDTH[kind])])

    def ir(self, row: int) -> dict | None:
        """Row's batch IR in dict form, {column: {"c": collapsed IR or None,
        "t": [(start, IR), ...]}} (None for row 0): what lambda_aggregate
        takes, with the IRs the upload fold produced."""
        if not row:
            return None
        n_parts = len(self.columns)
        n_tiles = self.meta[row, n_parts:2 * n_parts].tolist()
        at = int(self.meta[row, -2])
        out = {}
        for p, col in enumerate(self.columns):
            irs = self._irs(row, p)
            hc = int(self.meta[row, p])
            out[col] = {"c": irs[0] if hc else None,
                        "t": list(zip(self.words[at:at + n_tiles[p]].tolist(), irs[hc:]))}
            at += n_tiles[p]
        return out


def read_ir(blob: bytes | None, columns) -> dict | None:
    """A blob's batch IR in dict form (IRTable.ir), for the per-row
    reference lambda (SawtoothOnlineAggregator.lambda_aggregate)."""
    table = IRTable(columns)
    return table.ir(int(table.add([blob])[0]))


def _join(a, b, a_runs, b_runs):
    """a's runs (lengths a_runs), each followed by b's run of the same
    index (lengths b_runs), by one fancy index."""
    at = np.stack((a_runs.cumsum() - a_runs, len(a) + b_runs.cumsum() - b_runs), axis=1)
    return np.concatenate((a, b))[concat_ranges(at.ravel(), np.stack((a_runs, b_runs), axis=1).ravel())]


def _append(arr, n: int, new):
    """arr[:n] followed by new, in arr's spare rows when they suffice (the
    capacity doubles otherwise)."""
    end = n + len(new)
    if end > len(arr):
        grown = np.empty((max(end, 2 * len(arr)),) + arr.shape[1:], dtype=arr.dtype)
        grown[:n] = arr[:n]
        arr = grown
    arr[n:end] = new
    return arr


def group_by_upload(
    group_by: GroupBy,
    batch_end_ts: int,
    tail_buffer_ms: int = 2 * 24 * 3600 * 1000,
    resolution=FiveMinuteResolution,
):
    """Batch IR table for a GroupBy as of batch_end_ts (one row per key:
    key columns + IR blob + batch_end_ts).  Returns a lazy Dataset —
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
