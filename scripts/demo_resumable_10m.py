"""Resumable-backfill demonstration at 10M rows: run the flagship image
GroupBy as a stepped temporal backfill (92-day partitions over the 365-day
table), stop after the first half, re-launch over the FULL range, and show
the resume skips the finished partitions via their manifests.

Usage: python scripts/demo_resumable_10m.py [table_dir] [out_dir]
Prints one JSON line with per-phase wall times and partition counts.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main():
    table = sys.argv[1] if len(sys.argv) > 1 else "/tmp/raywin_img_bench10m"
    out = sys.argv[2] if len(sys.argv) > 2 else "/tmp/raywin_backfill10m"
    shutil.rmtree(out, ignore_errors=True)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=32, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False

    from raywin.pipelines.backfill import backfill_temporal
    from raywin.pipelines.images import image_feature_group_by
    from raywin.stages.images import DecodeFeatures
    from raywin.state import manifest as mf

    gb = image_feature_group_by(table)

    def left_fn():
        return ray.data.read_parquet(
            table, columns=["image_id", "ts"], override_num_blocks=64
        )

    def right_fn():
        return ray.data.read_parquet(table, override_num_blocks=64).map_batches(
            DecodeFeatures(True), batch_format="pyarrow", batch_size=8192
        )

    # mid DELIBERATELY truncates the second 92-day step: the resume must
    # skip the complete first partition, detect the truncated second one via
    # its manifest ts_range, and recompute it plus the two never-run steps
    start, mid, end = "2023-11-14", "2024-05-14", "2024-11-14"
    t0 = time.time()
    first = backfill_temporal(
        gb, left_fn, out, start, mid, step_days=92,
        right_ds_fn=right_fn, dedupe_queries=True,
    )
    t_first = time.time() - t0
    t0 = time.time()
    resumed = backfill_temporal(
        gb, left_fn, out, start, end, step_days=92,
        right_ds_fn=right_fn, dedupe_queries=True,
    )
    t_resume = time.time() - t0
    labels_first = [l for l, _ in first]
    labels_resumed = [l for l, _ in resumed]
    assert labels_first[0] not in labels_resumed, "resume recomputed a COMPLETE partition"
    assert labels_first[1] in labels_resumed, "resume must recompute the TRUNCATED partition"
    total_rows = 0
    for label in dict.fromkeys(labels_first + labels_resumed):
        m = mf.read_manifest(out, label)
        assert m is not None
        total_rows += m["rows"]
    import duckdb

    n_expected = duckdb.connect().execute(
        f"SELECT count(*) FROM (SELECT DISTINCT image_id, ts "
        f"FROM read_parquet('{table}/*.parquet'))"
    ).fetchone()[0]
    assert total_rows == n_expected, (total_rows, n_expected)
    print(json.dumps({
        "first_run_partitions": labels_first,
        "first_run_sec": round(t_first, 1),
        "resume_partitions": labels_resumed,
        "resume_sec": round(t_resume, 1),
        "total_rows": total_rows,
        "distinct_query_rows": n_expected,
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
