"""Resumable range-stepped backfill: compute every pending date-range step
in one plan, write each step's rows to its own partition plus a manifest,
skip completed steps on restart.

Mirrors the reference's backfill loop (JoinBase.scala:589-636 /
GroupBy.computeBackfill, GroupBy.scala:691-793): unfilled ranges -> stepDays
chunks -> partitioned write.  The reference runs one job per chunk to bound
the job's size; here co_partition's exchange blocks already bound each
kernel call, so all pending steps share one plan.  The left is read once and
kept where its ts falls in a pending step; events are read once, only in
[first_step_start - max_window - tail_hop, last_step_end) (the window-aware
scan range, getIntersectedRange, GroupBy.scala:567-608); the write routes
each output row to its step's partition by ts.
"""

from __future__ import annotations

import os
import shutil
import time
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
from ray.data.datasource import Datasink

from ..api import MILLIS_DAY, GroupBy, semantic_hash
from ..aggregator.windowing import FiveMinuteResolution
from ..stages.shuffle import _arrow_schema, declare_schema
from ..state import manifest as mf
from .group_by import events_dataset, features_for_queries


def _ts_filtered(ds, ranges: list[tuple[int | None, int]]):
    """Rows of ``ds`` whose ts falls in one of ``ranges``, ascending
    disjoint [lo, hi) (a lo of None = open), by one searchsorted over the
    range starts.  The filter keeps the input's columns, so the output
    declares the input's schema: a parquet read's is known without executing
    anything, and the kernel then never probes the filtered side."""
    los = np.array([np.iinfo(np.int64).min if lo is None else lo for lo, _ in ranges], np.int64)
    his = np.array([hi for _, hi in ranges], np.int64)

    def ts_filter(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        i = np.searchsorted(los, ts, side="right") - 1
        return batch.filter(pa.array((i >= 0) & (ts < his[np.maximum(i, 0)])))

    return declare_schema(ds.map_batches(ts_filter, batch_format="pyarrow"), _arrow_schema(ds))


class _StepSink(Datasink):
    """Writes each output row into the data directory of the step whose
    start is the last one at or before its ts: one file per (write task,
    step with rows), named by the run and the task's index, so a task Ray
    retries after its worker died overwrites its own files.  A task returns
    its per-step row counts; ``rows`` holds their sums once the write
    completes."""

    def __init__(self, dirs: list[str], starts: list[int]):
        self.dirs = dirs
        self.starts = np.asarray(starts, np.int64)
        self.run = uuid.uuid4().hex
        self.rows = [0] * len(dirs)

    def write(self, blocks, ctx) -> list[int]:
        counts = [0] * len(self.dirs)
        tables = [t for t in blocks if t.num_rows]
        if not tables:
            return counts
        table = pa.concat_tables(tables, promote_options="default")
        step = np.searchsorted(self.starts, table["ts"].to_numpy(zero_copy_only=False), side="right") - 1
        order = np.argsort(step, kind="stable")
        bounds = np.searchsorted(step[order], np.arange(len(self.dirs) + 1))
        name = f"{self.run}_{ctx.task_idx:06d}.parquet"
        for i in np.flatnonzero(np.diff(bounds)):
            self._write_file(table.take(order[bounds[i]:bounds[i + 1]]), os.path.join(self.dirs[i], name))
            counts[i] = int(bounds[i + 1] - bounds[i])
        return counts

    def _write_file(self, table: pa.Table, path: str) -> None:
        pq.write_table(table, path)

    def on_write_complete(self, write_result) -> None:
        for counts in write_result.write_returns:
            self.rows = [a + b for a, b in zip(self.rows, counts)]


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

    left_ds_fn() -> Dataset of (keys..., ts) query rows, called once per run
    (not at all when no step is pending); right_ds_fn() optional event
    source override.  Every pending step is computed by one
    features_for_queries plan; a run that dies before its manifests are
    written recomputes all of its pending steps.  Returns the list of
    (partition, manifest) computed this run, in step order.
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
    pending = [s for s in steps if s[0] in todo]
    if not pending:
        return []
    t0 = time.time()
    dirs = [mf.data_dir(output_dir, label) for label, _, _ in pending]
    for ddir in dirs:
        # a step without a manifest may hold files of a run that died
        # mid-write: start it from an empty directory
        shutil.rmtree(ddir, ignore_errors=True)
        os.makedirs(ddir)
    left = _ts_filtered(left_ds_fn(), [(lo, hi) for _, lo, hi in pending])
    scan = [(None if has_unbounded else pending[0][1] - lookback, pending[-1][2])]
    if right_ds_fn is not None:
        right = _ts_filtered(right_ds_fn(), scan)
    else:
        right = None if has_unbounded else _ts_filtered(events_dataset(group_by), scan)
    feats = features_for_queries(
        group_by,
        left,
        resolution=resolution,
        right_ds=right,
        dedupe_queries=dedupe_queries,
    )
    sink = _StepSink(dirs, [lo for _, lo, _ in pending])
    feats.write_datasink(sink)
    metrics = {"wall_sec": round(time.time() - t0, 3), "plan_partitions": len(pending)}
    return [
        (label, mf.write_manifest(
            output_dir,
            label,
            cfg_hash,
            rows=rows,
            metrics=metrics,
            inputs={"ts_range": [lo, hi], "scan_lookback_ms": lookback,
                    "unbounded_scan": has_unbounded},
        ))
        for (label, lo, hi), rows in zip(pending, sink.rows)
    ]
