"""Tiled micro-batch streaming — the Flink half, offline-testable.

Re-expresses the reference's tiled streaming architecture (flink/.../
FlinkJob.scala:160-205 keyed 5-minute tumbling tiles, window/Trigger.scala
buffered emission, ChrononWatermarkStrategies.scala:8-20 bounded
out-of-orderness) as a plain micro-batch consumer:

  * events arrive in micro-batches, possibly out of order within
    ``allowed_lateness_ms``;
  * watermark = max(event ts seen) - allowed_lateness; tiles whose end is
    <= round_down(watermark, tile_ms) are *sealed* — their rows fold into
    per-(key, tile) IRs and the raw rows are released (state compaction);
  * an event older than the sealed boundary is *late*: diverted and counted,
    never applied (FlinkJob.scala:173-205 side-output semantics);
  * queries merge sealed tiles (tile-aligned, exact for any window tail
    because every tail hop is a multiple of the 5-min tile) + raw unsealed
    rows for the exact millisecond head.  A Fetcher with the aggregator
    attached answers them with the raw-row serving lambda: each key's
    sealed tiles follow its batch tiles and the raw head is the stream;
  * a query behind the sealed boundary raises, so a tile that starts
    before round_down(sealed_until - window, tail_hop) is outside every
    window a query can still ask for: sealing drops it from a windowed
    part, and an unbounded part keeps a single tile, every sealed row
    folded into it (the key's collapsed streaming IR).

The sealed tiles are the state a Flink job would checkpoint, held in the
upload's layout (per part, (key index, start, IR) ascending by (key,
start), as encode_irs takes them); each seal rebuilds ``table``, one
upload.IRTable row per key, which a Fetcher gathers like batch IRs.  The
state lives in a plain object so tests can drive time deterministically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..api import MILLIS_5MIN, GroupBy
from ..aggregator.scalar_ops import make_scalar_op
from ..aggregator.windowing import FiveMinuteResolution, round_down
from .serving import _NO_SEAM, Fetcher, _concat_streams, _non_null, _put
from .upload import IRTable, _fold_runs, encode_irs

_EMPTY = np.zeros(0, dtype=np.int64)


class TileAggregator:
    def __init__(self, group_by: GroupBy, tile_ms: int = MILLIS_5MIN,
                 allowed_lateness_ms: int = 0, batch_end_ts: int | None = None):
        self.group_by = group_by
        self.parts = group_by.agg_parts()
        self.ops = [make_scalar_op(p) for p in self.parts]
        for p in self.parts:
            if not p.window.unbounded and FiveMinuteResolution.tail_hop(p.window) % tile_ms:
                raise ValueError(f"tile_ms {tile_ms} must divide the tail hop of {p}")
        self.tile_ms = tile_ms
        self.lateness = allowed_lateness_ms
        if batch_end_ts is not None and batch_end_ts % tile_ms != 0:
            # a tile straddling the seam would be partially owned by batch
            raise ValueError("batch_end_ts must be tile-aligned (it is a midnight)")
        # seam: ignore ts < batch_end_ts (None: no batch side, below every ts)
        self.batch_end_ts = _NO_SEAM if batch_end_ts is None else batch_end_ts
        self.key_cols = group_by.key_columns
        self._in_cols = {p.input_column for p in self.parts}
        self.watermark = None
        self.sealed_until = None  # tile-aligned boundary; tiles end <= this are sealed
        # per part: the sealed tiles' (key indices, starts, IRs), ascending by
        # (key, start); a key's row in table is its index in keys + 1
        self.sealed = [(_EMPTY, _EMPTY, []) for _ in self.parts]
        self.keys: dict[tuple, int] = {}
        self.table = IRTable([p.output_column for p in self.parts])
        # key -> [ts array, {col: values}] unsealed raw rows (ascending ts)
        self.raw: dict[tuple, list] = {}
        self.late_count = 0
        self.pre_seam_count = 0

    # -- ingestion ----------------------------------------------------------
    def process_batch(self, df: pd.DataFrame):
        ts = df["ts"].to_numpy(dtype=np.int64)
        keep = ts >= self.batch_end_ts
        self.pre_seam_count += len(ts) - int(np.count_nonzero(keep))
        if self.sealed_until is not None:
            late = keep & (ts < self.sealed_until)
            self.late_count += int(np.count_nonzero(late))
            keep &= ~late
        if not keep.any():  # a batch can be entirely pre-seam or late
            return
        _put(self.raw, df, self.key_cols, self._in_cols, keep)
        new_wm = int(ts[keep].max()) - self.lateness
        if self.watermark is None or new_wm > self.watermark:
            self.watermark = new_wm
            self._advance(round_down(new_wm, self.tile_ms))

    def _advance(self, new_boundary: int):
        """Seal complete tiles up to new_boundary: every key's raw rows
        before it fold into tiles by one fold_segments call per part over
        their non-null rows (a segment per key and tile, or per key for an
        unbounded part, merged into its single tile); the tiles no query can
        reach are dropped and the table is rebuilt from the live ones."""
        if self.sealed_until is not None and new_boundary <= self.sealed_until:
            return
        new = []  # (key index, ts, {column: values}) of the rows to seal
        for key, (ts, rows) in self.raw.items():
            n_seal = int(np.searchsorted(ts, new_boundary, side="left"))
            if n_seal:
                new.append((self.keys.setdefault(key, len(self.keys)), ts[:n_seal],
                            {c: v[:n_seal] for c, v in rows.items()}))
                self.raw[key] = [ts[n_seal:], {c: v[n_seal:] for c, v in rows.items()}]
        new.sort(key=lambda r: r[0])
        ts, cols, bounds = _concat_streams([(t, rows) for _, t, rows in new], self._in_cols)
        key = np.repeat([k for k, _, _ in new], np.diff(bounds)).astype(np.int64)
        # per input column: its values and the positions of the non-null ones
        cols = {c: (v, np.arange(len(v)) if (ok := _non_null(v)) is None else ok.nonzero()[0])
                for c, v in (cols or {}).items()}
        ids = np.arange(len(self.keys))
        for p, (part, op) in enumerate(zip(self.parts, self.ops)):
            keys, starts, irs = self.sealed[p]
            vals, idx = cols.get(part.input_column, (None, _EMPTY))
            new_keys, first_ts, new_irs = _fold_runs(
                op, vals, ts, key, ids, idx, None if part.window.unbounded else self.tile_ms)
            keys = np.concatenate((keys, new_keys))
            starts = np.concatenate((starts, round_down(first_ts, self.tile_ms)))
            irs = irs + new_irs
            order = np.argsort(keys, kind="stable")  # a key's new tiles start after its old
            if part.window.unbounded:  # a key's new IR merges into its one tile
                again = (np.diff(keys[order]) == 0).nonzero()[0]
                for a, b in zip(order[again].tolist(), order[again + 1].tolist()):
                    irs[a] = op.merge(irs[a], irs[b])
                order = np.delete(order, again + 1)
            else:
                hop = FiveMinuteResolution.tail_hop(part.window)
                order = order[starts[order] >= round_down(new_boundary - part.window.millis, hop)]
            self.sealed[p] = (keys[order], starts[order], [irs[i] for i in order.tolist()])
        self.sealed_until = new_boundary
        self.table = IRTable(self.table.columns)
        self.table.add(encode_irs(self.ops, len(self.keys),
                                  [(_EMPTY, [], *tiles) for tiles in self.sealed]).to_pylist())

    def rows(self, keys) -> np.ndarray:
        """The rows of keys in table (0: no sealed tile yet)."""
        return np.array([self.keys.get(k, -1) + 1 for k in keys], dtype=np.int64)

    # -- direct query without a batch side (pure-streaming GroupBy) ---------
    def query(self, key, query_ts: int) -> dict:
        """Sealed tiles + raw head of one key at query_ts (>= sealed_until),
        served by a Fetcher with no upload."""
        fetcher = Fetcher(self.group_by, self.batch_end_ts)
        fetcher.attach_tiles(self)
        return fetcher.fetch(key, query_ts)

