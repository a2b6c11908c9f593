"""Resumable range-stepped backfill: compute features per date-range step,
write partitioned parquet + manifest, skip completed steps on restart.

Mirrors the reference's backfill loop (JoinBase.scala:589-636 /
GroupBy.computeBackfill, GroupBy.scala:691-793): unfilled ranges -> stepDays
chunks -> per-chunk compute -> partitioned write; plus the window-aware scan
range: each step scans events only in [step_start - max_window - tail_hop,
step_end) (getIntersectedRange, GroupBy.scala:567-608).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from ..api import MILLIS_DAY, GroupBy, semantic_hash
from ..aggregator.windowing import FiveMinuteResolution
from ..stages.shuffle import _arrow_schema, declare_schema
from ..state import manifest as mf
from .group_by import features_for_queries


def _ts_filtered(ds, lo: int | None, hi: int | None):
    """Rows of ``ds`` with lo <= ts < hi (None = open).  The filter keeps
    the input's columns, so the output declares the input's schema: a
    parquet read's is known without executing anything, and the kernel
    then never probes the step's left."""

    def ts_filter(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        mask = np.ones(len(batch), dtype=bool)
        if lo is not None:
            mask &= ts >= lo
        if hi is not None:
            mask &= ts < hi
        return batch.filter(pa.array(mask))

    return declare_schema(ds.map_batches(ts_filter, batch_format="pyarrow"), _arrow_schema(ds))


def day_partitions(start_ds: str, end_ds: str, step_days: int = 1) -> list[tuple[str, int, int]]:
    """[(partition_label, start_ms, end_ms_exclusive)] steps covering
    [start_ds, end_ds] inclusive by calendar day."""
    import pandas as pd

    start = pd.Timestamp(start_ds).value // 1_000_000
    end = pd.Timestamp(end_ds).value // 1_000_000 + MILLIS_DAY
    out = []
    cur = start
    while cur < end:
        nxt = min(cur + step_days * MILLIS_DAY, end)
        label = pd.Timestamp(cur, unit="ms").strftime("ds=%Y-%m-%d")
        out.append((label, cur, nxt))
        cur = nxt
    return out


def backfill_temporal(
    group_by: GroupBy,
    left_ds_fn,
    output_dir: str,
    start_ds: str,
    end_ds: str,
    step_days: int = 1,
    resolution=FiveMinuteResolution,
    right_ds_fn=None,
    dedupe_queries: bool = True,
):
    """Resumable temporal backfill.

    left_ds_fn() -> Dataset of (keys..., ts) query rows (re-invoked per step
    so each step builds a fresh DAG); right_ds_fn() optional event source
    override.  Returns the list of (partition, manifest) computed this run.
    """
    cfg_hash = semantic_hash(
        {
            "group_by": group_by,
            "step_days": step_days,
            "engine": "raywin-temporal-v1",
        }
    )
    parts = group_by.agg_parts()
    bounded = [p.window.millis for p in parts if not p.window.unbounded]
    has_unbounded = any(p.window.unbounded for p in parts)
    hops = [resolution.tail_hop(p.window) for p in parts if not p.window.unbounded]
    lookback = (max(bounded) + max(hops)) if bounded else 0

    steps = day_partitions(start_ds, end_ds, step_days)
    todo = set(
        mf.unfilled_partitions(
            output_dir,
            [s[0] for s in steps],
            cfg_hash,
            expected_ranges={label: [lo, hi] for label, lo, hi in steps},
        )
    )
    done = []
    for label, lo, hi in steps:
        if label not in todo:
            continue
        t0 = time.time()
        left = _ts_filtered(left_ds_fn(), lo, hi)
        right = right_ds_fn() if right_ds_fn else None
        if right is not None:
            right = _ts_filtered(right, None if has_unbounded else lo - lookback, hi)
        feats = features_for_queries(
            group_by,
            left,
            resolution=resolution,
            right_ds=right,
            dedupe_queries=dedupe_queries,
        )
        ddir = mf.data_dir(output_dir, label)
        feats.write_parquet(ddir)
        import pyarrow.dataset as pads

        if os.path.isdir(ddir):
            rows = pads.dataset(ddir, format="parquet").count_rows()
        else:
            # an empty partition writes no files at all — still record a
            # zero-row manifest so resume treats the range as complete
            os.makedirs(ddir, exist_ok=True)
            rows = 0
        m = mf.write_manifest(
            output_dir,
            label,
            cfg_hash,
            rows=rows,
            metrics={"wall_sec": round(time.time() - t0, 3)},
            inputs={"ts_range": [lo, hi], "scan_lookback_ms": lookback,
                    "unbounded_scan": has_unbounded},
        )
        done.append((label, m))
    return done
