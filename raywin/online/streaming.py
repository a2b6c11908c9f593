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
    attached answers them with the raw-row serving lambda: sealed tiles
    join the batch IR's tail tiles and the raw head is the stream;
  * a query behind the sealed boundary raises, so a tile that starts
    before round_down(sealed_until - window, tail_hop) is outside every
    window a query can still ask for: sealing drops it from a windowed
    part, and an unbounded part keeps a single tile, every sealed row
    folded into it (the key's collapsed streaming IR).

The per-key tile map is the state a Flink job would checkpoint; here it
lives in a plain object so tests can drive time deterministically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..api import MILLIS_5MIN, GroupBy
from ..aggregator.scalar_ops import make_scalar_op
from ..aggregator.windowing import FiveMinuteResolution, round_down
from .serving import Fetcher, _key_streams, _merge_append, _non_null

# seam of an aggregator without a batch side: below every event ts
_NO_SEAM = np.iinfo(np.int64).min // 4


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
        self.batch_end_ts = batch_end_ts  # seam: ignore ts < batch_end_ts
        if batch_end_ts is not None and batch_end_ts % tile_ms != 0:
            # a tile straddling the seam would be partially owned by batch
            raise ValueError("batch_end_ts must be tile-aligned (it is a midnight)")
        self.key_cols = group_by.key_columns
        self._in_cols = {p.input_column for p in self.parts}
        self.watermark = None
        self.sealed_until = None  # tile-aligned boundary; tiles end <= this are sealed
        # key -> {output_column: (tile starts ascending, [ir, ...])}
        self.tiles: dict[tuple, dict] = {}
        # key -> [ts array, {col: values}] unsealed raw rows (ascending ts)
        self.raw: dict[tuple, list] = {}
        self.late_count = 0
        self.pre_seam_count = 0

    # -- ingestion ----------------------------------------------------------
    def process_batch(self, df: pd.DataFrame):
        ts = df["ts"].to_numpy(dtype=np.int64)
        keep = np.ones(len(ts), dtype=bool)
        if self.batch_end_ts is not None:
            keep = ts >= self.batch_end_ts
            self.pre_seam_count += len(ts) - int(np.count_nonzero(keep))
        if self.sealed_until is not None:
            late = keep & (ts < self.sealed_until)
            self.late_count += int(np.count_nonzero(late))
            keep &= ~late
        if not keep.any():  # a batch can be entirely pre-seam or late
            return
        for key, k_ts, rows in _key_streams(df, self.key_cols, self._in_cols, keep):
            _merge_append(self.raw, key, k_ts, rows)
        new_wm = int(ts[keep].max()) - self.lateness
        if self.watermark is None or new_wm > self.watermark:
            self.watermark = new_wm
            self._advance(round_down(new_wm, self.tile_ms))

    def _advance(self, new_boundary: int):
        """Seal complete tiles up to new_boundary: fold raw rows into IRs,
        one fold_segments call per key and part over its non-null rows
        (one segment per tile; one in all for an unbounded part, merged
        into its single tile), then drop the tiles no query can reach."""
        if self.sealed_until is not None and new_boundary <= self.sealed_until:
            return
        for key, (ts, rows) in list(self.raw.items()):
            n_seal = int(np.searchsorted(ts, new_boundary, side="left"))
            if n_seal == 0:
                continue
            key_tiles = self.tiles.setdefault(key, {})
            for part, op in zip(self.parts, self.ops):
                vals = rows.get(part.input_column)
                if vals is None:
                    continue
                s_ts, s_vals = ts[:n_seal], vals[:n_seal]
                ok = _non_null(s_vals)
                if ok is not None:
                    s_ts, s_vals = s_ts[ok], s_vals[ok]
                if not len(s_ts):
                    continue
                col = part.output_column
                starts, irs = key_tiles.get(col, (np.zeros(0, dtype=np.int64), []))
                if part.window.unbounded:
                    ir = op.fold_segments(s_vals, s_ts, np.zeros(1, dtype=np.int64))[0]
                    if irs:
                        ir = op.merge(irs[0], ir)
                    else:
                        starts = round_down(s_ts[:1], self.tile_ms)
                    key_tiles[col] = (starts, [ir])
                    continue
                new = round_down(s_ts, self.tile_ms)
                st = np.concatenate(([0], np.flatnonzero(np.diff(new)) + 1))
                starts = np.concatenate((starts, new[st]))
                irs = irs + op.fold_segments(s_vals, s_ts, st)
                hop = FiveMinuteResolution.tail_hop(part.window)
                cut = int(np.searchsorted(starts, round_down(new_boundary - part.window.millis, hop)))
                key_tiles[col] = (starts[cut:], irs[cut:])
            self.raw[key] = [ts[n_seal:], {c: v[n_seal:] for c, v in rows.items()}]
        self.sealed_until = new_boundary

    # -- direct query without a batch side (pure-streaming GroupBy) ---------
    def query(self, key, query_ts: int) -> dict:
        """Sealed tiles + raw head of one key at query_ts (>= sealed_until),
        served by a Fetcher with no upload."""
        seam = _NO_SEAM if self.batch_end_ts is None else self.batch_end_ts
        fetcher = Fetcher(self.group_by, seam)
        fetcher.attach_tiles(self)
        return fetcher.fetch(key, query_ts)
