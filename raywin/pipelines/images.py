"""Flagship pipeline: point-in-time feature backfill over an image+caption
event table (the BASELINE north-star shape).

    image events (image_id, bytes, w, h, fmt, caption, phash, ts, score, views)
      -> DecodeFeatures task pool (each distinct payload decoded once:
         PSNR/caption invariants, pixel features gathered back to the
         rows; payload bytes dropped before any shuffle)
      -> distinct (image_id, ts) backfill queries
      -> temporal sawtooth features per entity x timestamp

The wide binary column never rides through the aggregation shuffle
(projected out in the decode stage — SURVEY.md §7.5 hard part #4).
"""

from __future__ import annotations

import pyarrow as pa

from ..api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window
from ..context import tune_data_context
from ..sources.io import read_parquet
from ..stages.images import DecodeFeatures, check_captions
from ..stages.shuffle import _arrow_schema, declare_schema
from .group_by import features_for_queries


class CaptionCheck:
    """Invariant probe: captions survive byte-exact through any hop.

    Insertable after any map_batches stage that carries (image_id, caption).
    Regenerates the expected caption once per distinct (image_id, caption)
    pair of the batch (stages/images.py check_captions, the check
    DecodeFeatures runs inline); the error names the first corrupted row's
    id.  This standalone stage exists for pipelines that keep captions
    riding past decode."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        check_captions(batch["image_id"], batch["caption"])
        return batch


def image_feature_group_by(table_path: str, bounded_only: bool = False) -> GroupBy:
    """bounded_only drops the unbounded AVERAGE window: with any unbounded
    part, hot-key time-chunk replication must ship ALL earlier chunks of a
    hot key into every later chunk (factor ~n_chunks/2), which the 10M-row
    scale bench measured as a net loss — bounded windows cap the lookback at
    window+hop, where replication wins (BASELINE.md §3 round-3 section)."""
    avg_windows = [Window(7, TimeUnit.DAYS)] + ([] if bounded_only else [Window(-1)])
    return GroupBy(
        sources=[EventSource(table=table_path, query=Query())],
        key_columns=["image_id"],
        aggregations=[
            Aggregation(Operation.SUM, "views", windows=[Window(1, TimeUnit.DAYS), Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "views", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "score", windows=avg_windows),
            Aggregation(Operation.LAST_K, "mean_lum", windows=[Window(7, TimeUnit.DAYS)], arg_map={"k": 3}),
            # disc (nearest-rank) percentiles return actual data elements, so
            # the SQL oracle (quantile_disc) reproduces them exactly
            Aggregation(Operation.APPROX_PERCENTILE, "contrast", windows=[Window(30, TimeUnit.DAYS)],
                        arg_map={"k": 128, "percentiles": "[0.5, 0.95]",
                                 "interpolation": "disc"}),
            Aggregation(Operation.MAX, "edge_energy", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="img",
        tie_breaker="phash",
    )


def image_feature_backfill(
    table_path: str,
    check_invariants: bool = True,
    handle_skew: bool = False,
    bounded_only: bool = False,
):
    """handle_skew=True turns on hot-key time-chunk replication
    (stages/shuffle.py HotChunk*) — worth it when the scanned time span is
    much longer than the max window, so a hot entity splits into many chunks
    with bounded event replication.  When window ~ span (this bench's 30d/30d
    dev slice) replication multiplies per-event kernel work faster than it
    splits the straggler, so it stays off by default; correctness of the
    chunked path is pinned by tests/test_hot_keys.py either way.

    Reads are sized by ``sources.io.read_parquet``: one block per CPU."""
    # the streaming executor's per-operator resource reservation starves the
    # CPU-heavy decode operator in this union+sort pipeline (measured at
    # 8 CPUs on the mixed png/jpeg/qimg 1M table: 253 s reserved vs 44 s
    # unreserved — parallelism ~1 on a 222 s-CPU operator); disable it for
    # the engine's sessions (sticky DataContext flag, see tune_data_context)
    tune_data_context()
    events = read_parquet(table_path)
    # stateless task pool: warm worker processes are reused across tasks, so
    # per-worker first-touch/warmup is paid once (a fixed actor pool took
    # 71 s at 8 CPUs on the 1M table, against 44 s for tasks unreserved)
    decoded = events.map_batches(
        DecodeFeatures(check_invariants), batch_format="pyarrow", batch_size=8192
    )
    # static output schema: DecodeFeatures drops `bytes` and appends three
    # float64 feature columns.  Without this, features_for_queries' schema
    # lookup EXECUTES a limit-1 probe through the fused read->decode stage —
    # a measured 5.5-6.5 s serial prefix on every flagship run at 32 CPUs.
    dec_fields = [f for f in _arrow_schema(events) if f.name != "bytes"] + [
        pa.field(c, pa.float64()) for c in ("mean_lum", "contrast", "edge_energy")
    ]
    declare_schema(decoded, pa.schema(dec_fields))
    gb = image_feature_group_by(table_path, bounded_only=bounded_only)
    # backfill queries come from the RAW event scan (only image_id, ts leave
    # storage) so decode runs exactly once; duplicate (image_id, ts) pairs are
    # deduplicated inside the kernel's own co-partition shuffle — no separate
    # DISTINCT exchange
    left = read_parquet(table_path, columns=["image_id", "ts"])
    hot_config = None
    if handle_skew:
        from ..stages.shuffle import detect_hot_keys

        hot_config = detect_hot_keys(
            read_parquet(table_path, columns=["image_id", "ts"]), "image_id"
        )
    parts = gb.agg_parts()
    unbounded = [p for p in parts if p.window.unbounded]
    if hot_config is not None and hot_config.keys and unbounded:
        # SPLIT: with an unbounded part, chunk replication must ship ALL
        # earlier hot-key events into every later chunk (factor ~n_chunks/2 —
        # measured a net LOSS at 10M rows, BASELINE.md §3 round-3), while
        # unbounded windows are exactly the ones the prefix/cumsum engines
        # absorb without replication.  So: bounded parts ride the hot-chunk
        # pass; unbounded parts run as a SECOND chained co-partition over the
        # running output (passthrough assembly, no join).  Decode runs once:
        # the projected feature columns are materialized and shared.
        gb_b = _subset_group_by(gb, [p for p in parts if not p.window.unbounded], "img_b")
        gb_u = _subset_group_by(gb, unbounded, "img_u")
        in_cols = list(
            dict.fromkeys(
                ["image_id", "ts"]
                + [p.input_column for p in parts]
                + ([gb.tie_breaker] if gb.tie_breaker else [])
            )
        )
        decoded_mat = decoded.select_columns(in_cols).materialize()
        out = features_for_queries(
            gb_b, left, right_ds=decoded_mat,
            dedupe_queries=True, hot_config=hot_config,
        )
        return features_for_queries(
            gb_u, out, right_ds=decoded_mat,
        )
    return features_for_queries(
        gb, left, right_ds=decoded, dedupe_queries=True,
        hot_config=hot_config,
    )


def image_serving_lambda(table_path: str):
    """Serving lambda (distributed co-partition path, zero driver state)
    over the image event table — the online counterpart of the flagship
    backfill, sized for the bench's 10x-tail scale leg.

    Seam = the span's midpoint midnight; batch half -> GroupByUpload IR
    table, streaming tail = events after the seam, queries = distinct
    (image_id, ts) inside the seam day.  Only the lambda's input columns
    leave storage (no payload bytes, no decode — serving reads features
    already materialized upstream; here the raw numeric columns stand in)."""
    from ..online import group_by_upload
    from ..online.serving import online_enrich_distributed
    from ..sources.io import parquet_column_range

    tune_data_context()
    DAY = 86_400_000
    # Seam midpoint from parquet row-group statistics — footer metadata only,
    # never a full-column driver scan.  Fall back to a distributed min/max
    # aggregate when stats are absent (shuffle.py uses the same aggregates).
    rng = parquet_column_range(table_path, "ts")
    if rng is None:
        from ray.data.aggregate import Max as _Max, Min as _Min

        mm = read_parquet(table_path, columns=["ts"]).aggregate(
            _Min("ts"), _Max("ts")
        )
        rng = (mm["min(ts)"], mm["max(ts)"])
    batch_end = ((int(rng[0]) + int(rng[1])) // 2) // DAY * DAY

    gb = GroupBy(
        sources=[EventSource(table=table_path, query=Query(
            selects={"image_id": "image_id", "views": "views", "score": "score"},
            time_column="ts",
        ))],
        key_columns=["image_id"],
        aggregations=[
            Aggregation(Operation.SUM, "views", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "views", windows=[Window(6, TimeUnit.HOURS)]),
            Aggregation(Operation.MAX, "score", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="img_serving",
    )
    upload = group_by_upload(gb, batch_end)
    stream = read_parquet(table_path, columns=["image_id", "ts", "views", "score"])
    left = read_parquet(table_path, columns=["image_id", "ts"]).filter(
        expr=f"ts >= {batch_end} and ts < {batch_end + DAY}"
    )
    return online_enrich_distributed(left, gb, batch_end, upload, stream)


def _subset_group_by(gb: GroupBy, parts, name: str) -> GroupBy:
    """GroupBy re-assembled from a subset of already-unpacked parts (each
    part becomes a single-window Aggregation with identical output names)."""
    from ..api import Aggregation as Agg

    aggs = [
        Agg(
            p.operation,
            p.input_column,
            windows=[p.window],
            arg_map=dict(p.arg_map) if p.arg_map else {},
            buckets=[p.bucket] if p.bucket else None,
            element_wise=p.element_wise,
        )
        for p in parts
    ]
    return GroupBy(
        sources=gb.sources,
        key_columns=gb.key_columns,
        aggregations=aggs,
        accuracy=gb.accuracy,
        name=name,
        tie_breaker=gb.tie_breaker,
    )
