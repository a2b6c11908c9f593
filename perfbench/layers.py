"""What each per-layer metric of the traced run should move: the end-to-end
metric and workload.  The names, units and directions themselves are the
`per_layer` list of BENCHMARK.json.

Ray-executed layers come from Dataset.stats() per-operator numbers (remote
wall and CPU, busy intervals, output rows and bytes, tasks) summed over one
traced iteration; in-process layers from spans around public calls.  Every
figure is per timed iteration (median over the traced ones) unless it says
otherwise.  Ratios state their base.  fetch_p50_ms and fetch_p99_ms are
printed by every online_fetch run, outside the bounded metrics.
"""

from __future__ import annotations

RATE = "feature_rows_per_ref_cpu_s"

SHOULD_MOVE = {
    "sources.read_s": f"{RATE} on events_backfill; little on img_backfill",
    "sources.rows_read": f"{RATE} on events_backfill; little on img_backfill",
    "sources.bytes_read": f"{RATE} on events_backfill; little on img_backfill",
    "stages.images.decode_cpu_s": f"{RATE} on img_backfill; zero on the other two",
    "stages.images.rows_decoded": f"{RATE} on img_backfill; zero on the other two",
    "stages.images.decode_us_per_row":
        f"{RATE} on img_backfill (in-process DecodeFeatures on a fixed 2048-row batch); "
        "zero on the other two",
    "stages.shuffle.exchange_s":
        f"{RATE} on events_backfill mostly, img_backfill a little; setup_s on "
        "online_fetch (the upload's exchange).  The wall the exchange holds the "
        "pipeline: from the last end of the operators before it to the first start "
        "of those after it, summed over exchanges, minus any part the kernel is busy in",
    "stages.shuffle.rows": "as stages.shuffle.exchange_s",
    "stages.shuffle.bytes": "as stages.shuffle.exchange_s",
    "stages.shuffle.tasks": "as stages.shuffle.exchange_s",
    "stages.shuffle.bucket_skew":
        "max over mean output rows per block of the exchange's reduce stage; "
        "as stages.shuffle.exchange_s",
    "aggregator.kernel_cpu_s": f"{RATE} on both backfills",
    "aggregator.rows_in": f"{RATE} on both backfills",
    "aggregator.us_per_query_row":
        f"{RATE} on both backfills (in-process PartitionAggregator.aggregate_tables "
        "on one fixed bucket); zero on online_fetch",
    "pipelines.plan_s": f"{RATE} on events_backfill, scaled by step count",
    "pipelines.sched_overhead_s":
        f"{RATE} on events_backfill, scaled by step count "
        "(execution wall minus the union of operator busy time)",
    "pipelines.tasks": f"{RATE} on events_backfill",
    "state.write_s": f"{RATE} on events_backfill only",
    "state.manifest_s": f"{RATE} on events_backfill only",
    "state.bytes_per_row":
        f"{RATE} on events_backfill only (parquet bytes written per feature row)",
    "state.partitions_written": f"{RATE} on events_backfill only",
    "online.upload.build_s": "setup_s on online_fetch (group_by_upload + load_upload)",
    "online.upload.keys": "setup_s on online_fetch",
    "online.upload.ir_bytes_per_key": "setup_s on online_fetch",
    "online.serving.lambda_s":
        f"{RATE}, fetch_p50_ms and fetch_p99_ms on online_fetch "
        "(inside SawtoothOnlineAggregator.lambda_aggregate_many)",
    "online.serving.frame_s":
        f"{RATE}, fetch_p50_ms and fetch_p99_ms on online_fetch (the rest of fetch_batch)",
    "online.serving.events_folded_per_row":
        "fetch_p50_ms on online_fetch (streamed events before the query ts, per query row)",
    "online.serving.ir_cache_hit_ratio":
        "fetch_p50_ms on online_fetch (batch-IR lookups served from the Fetcher's "
        "cache, over distinct keys per request)",
    "online.serving.put_s": "ingest_rows_per_s on online_fetch",
    "trace.overhead_share":
        "none: median traced iteration wall over median untraced one, minus 1",
}
