"""Join backfill: left rows enriched with every JoinPart's point-in-time
features (reference JoinBase.scala:76-375 / Join.scala:292-432).

Ray-Data-first topology (CHAINED assembly, the default):

    left = scan join.left (Query layer), skew-key filter       [stateless]
    for each JoinPart:
        out = features_for_queries(group_by, out)              [shuffle: bucket]
              — the running output IS the query set; all its columns ride
                the kernel as passthrough, so each part costs exactly ONE
                co-partitioning shuffle and there is NO assembly join at all

    ONE shuffle per part total, vs dedup + kernel + join-back (3 exchanges)
    in the unfused topology.  This is the Ray-Data analogue of the
    reference's joinWithLeft keyed assembly (JoinBase.scala:76-136) with the
    join collapsed into the kernel's own co-partition.

The legacy "dedup" assembly (DISTINCT queries per part, hash-join back on
(keys, ts)) remains available via ``assembly="dedup"`` for lefts where many
rows share (keys, ts) and feature rows are worth computing once per distinct
query.  Derivations run as a final DuckDB-per-batch projection.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..api import GroupBy, Join, JoinPart
from ..sources.io import scan_source
from ..stages.query import apply_derivations
from ..stages.shuffle import _arrow_schema, declare_schema, known_schema, pad_to_schema
from .group_by import features_for_queries


def _skew_filter(ds, skew_keys: dict[str, list[str]] | None):
    """Exclude user-declared hot keys from both sides
    (reference api.thrift:339-343, Extensions.scala:978-1022)."""
    if not skew_keys:
        return ds

    def fn(batch: pa.Table) -> pa.Table:
        mask = np.ones(len(batch), dtype=bool)
        for col, bad in skew_keys.items():
            if col in batch.column_names:
                vals = batch[col].to_numpy(zero_copy_only=False)
                mask &= ~np.isin(vals, np.asarray(bad, dtype=object))
        return batch.filter(pa.array(mask))

    return ds.map_batches(fn, batch_format="pyarrow")


SMALL_MODE_CUTOFF = 100_000  # distinct left keys; reference uses 5000 rows for
# literal IN-injection (TableUtils.scala:349-357) — here the broadcast is an
# exact key set filtered vectorized per batch
HASHED_MODE_CUTOFF = 1_000_000  # the reference's bloom band (Join.scala:
# 306-341, 1M left rows): between the exact cutoff and here the right scan is
# pruned by a sorted uint64 HASH set of the left keys — 8 bytes/key broadcast
# regardless of key width, searchsorted membership per batch.  False
# positives require a 64-bit hash collision (safe either way: the kernel's
# co-partition join is exact; pruning only needs no false NEGATIVES).


def _semi_filtered_right(gb: GroupBy, queries, n_left: int | None):
    """Small mode: when the left key space is small, broadcast it and
    semi-join-filter the right scan BEFORE the shuffle (reference
    key-injection / bloom pruning, Join.scala:306-341).  Gates on LEFT ROW
    COUNT first — materializing the distinct key list before deciding would
    pull billions of keys onto the driver on a big left.  Two tiers:
    exact key set (<=SMALL_MODE_CUTOFF) and sorted-hash set
    (<=HASHED_MODE_CUTOFF, the reference's bloom band)."""
    if len(gb.key_columns) != 1:
        return None
    kcol = gb.key_columns[0]
    if n_left is None:
        n_left = queries.count()
    if n_left > HASHED_MODE_CUTOFF:
        return None
    if n_left > SMALL_MODE_CUTOFF:
        return _hash_filtered_right(gb, queries, kcol)
    key_vals = queries.select_columns([kcol]).unique(kcol)
    if not isinstance(key_vals, list):  # older API returns Dataset
        key_vals = [r[kcol] for r in key_vals.take_all()]
    if not key_vals:
        return None
    if len(key_vals) > SMALL_MODE_CUTOFF:
        return _hash_filtered_right(gb, queries, kcol)
    import ray

    # native dtype when homogeneous: np.isin over an object array hashes every
    # element in Python and is ~20x slower than the int64/str fast path
    try:
        key_arr = np.asarray(sorted(key_vals))
        if key_arr.dtype == object:
            raise TypeError
    except TypeError:
        key_arr = np.asarray(sorted(key_vals, key=str), dtype=object)
    key_arr_ref = ray.put(key_arr)

    def semi_filter(batch: pa.Table) -> pa.Table:
        vals = batch[kcol].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(vals, ray.get(key_arr_ref))))

    return _with_scan_schema(gb, semi_filter)


def _hash_filtered_right(gb: GroupBy, queries, kcol: str):
    """Mid-size tier: prune the right scan with a sorted set of the left
    keys' 64-bit stable hashes.  Per-batch dedup happens distributed; only
    uint64 hashes (8 bytes/key, key-width independent) reach the driver,
    bounded by HASHED_MODE_CUTOFF."""
    import ray

    from ..stages.shuffle import stable_hash

    def batch_hashes(batch: pa.Table) -> pa.Table:
        h = stable_hash([batch[kcol]])
        return pa.table({"h": pa.array(np.unique(h), type=pa.uint64())})

    parts = [
        b["h"]
        for b in queries.select_columns([kcol])
        .map_batches(batch_hashes, batch_format="pyarrow")
        .iter_batches(batch_format="numpy", batch_size=None)
    ]
    if not parts:
        return None
    hashes = np.unique(np.concatenate(parts))  # sorted
    if hashes.size == 0:
        return None
    hashes_ref = ray.put(hashes)

    def hash_semi_filter(batch: pa.Table) -> pa.Table:
        hashes = ray.get(hashes_ref)
        h = stable_hash([batch[kcol]])
        idx = np.searchsorted(hashes, h)
        idx[idx == len(hashes)] = 0
        return batch.filter(pa.array(hashes[idx] == h))

    return _with_scan_schema(gb, hash_semi_filter)


def _with_scan_schema(gb: GroupBy, row_filter):
    from .group_by import events_dataset

    base = events_dataset(gb)
    out = base.map_batches(row_filter, batch_format="pyarrow")
    # the filter keeps the scan's columns: declare the scan's schema so the
    # kernel never probes the filter's pipeline
    return declare_schema(out, _arrow_schema(base))


def _renamed(ds, renames: dict[str, str]):
    """``ds.rename_columns(renames)``, declaring ``ds``'s schema renamed
    when it is known."""
    out = ds.rename_columns(renames)
    known = known_schema(ds)
    if known is not None:
        declare_schema(out, pa.schema([f.with_name(renames.get(f.name, f.name)) for f in known]))
    return out


def _part_renames(part: JoinPart, invert_keys: bool) -> dict[str, str]:
    rename = {col: f"{part.full_prefix}{col}" for col in part.group_by.output_columns()}
    if invert_keys and part.key_mapping:
        for l, r in part.key_mapping.items():
            rename[r] = l
    return rename


def _self_enrichment(join: Join, part: JoinPart) -> bool:
    """True when the part aggregates the SAME unfiltered table the left scans:
    every right key then exists on the left, so the small-mode semi filter
    keeps ~everything and is pure overhead (scan + broadcast + per-batch isin).
    """
    left_table = getattr(join.left, "table", None) or getattr(
        join.left, "snapshot_table", None
    )
    if getattr(join.left.query, "wheres", None):
        return False  # a narrowed left CAN prune the right
    return all(
        (getattr(s, "table", None) or getattr(s, "snapshot_table", None)) == left_table
        for s in part.group_by.sources
    )


def part_features_chained(
    part: JoinPart,
    out_ds,
    prune_right: bool = True,
    n_left: int | None = None,
):
    """ONE-shuffle enrichment: the running output is the query set; every
    column rides the kernel as passthrough and the features append to it."""
    gb = part.group_by
    key_mapping = part.key_mapping or {}
    queries = _renamed(out_ds, dict(key_mapping)) if key_mapping else out_ds
    right_ds = _semi_filtered_right(gb, queries, n_left) if prune_right else None
    feats = features_for_queries(
        gb, queries, dedupe_queries=False, right_ds=right_ds
    )
    return _renamed(feats, _part_renames(part, invert_keys=True))


def _chain_part_with_bootstrap(
    part: JoinPart,
    out_ds,
    covering: set[str] | None,
    n_left: int | None,
    prune_right: bool = True,
):
    """Chained enrichment honoring bootstrap: rows whose matched-hash combo
    covers this part keep their bootstrap values and bypass the kernel
    shuffle; the rest compute, then COALESCE bootstrap over computed
    (reference covering-set skip Join.scala:300-341 + coalescedJoin
    JoinUtils.scala:138-173)."""
    import pyarrow.compute as pc

    from .bootstrap import _BS_PREFIX, split_covered

    out_cols = {f"{part.full_prefix}{c}" for c in part.group_by.output_columns()}
    present = [c for c in _arrow_schema(out_ds).names if c in out_cols]

    def enrich(ds):
        if present:
            ds = _renamed(ds, {c: _BS_PREFIX + c for c in present})
        feats = part_features_chained(part, ds, prune_right=prune_right, n_left=n_left)
        if not present:
            return feats

        def coal(batch: pa.Table) -> pa.Table:
            for c in present:
                tmp = _BS_PREFIX + c
                merged = pc.coalesce(
                    pc.cast(batch[tmp], batch[c].type), batch[c]
                )
                batch = batch.set_column(
                    batch.column_names.index(c), c, merged
                ).drop_columns([tmp])
            return batch

        merged_ds = feats.map_batches(coal, batch_format="pyarrow")
        known = known_schema(feats)
        if known is not None:
            declare_schema(
                merged_ds, pa.schema([f for f in known if not f.name.startswith(_BS_PREFIX)])
            )
        return merged_ds

    if not covering:
        return enrich(out_ds)
    covered, uncovered = split_covered(out_ds, covering)
    feats = enrich(uncovered)
    f_schema = _arrow_schema(feats)
    covered = covered.map_batches(
        lambda b: pad_to_schema(b, f_schema), batch_format="pyarrow"
    )
    return declare_schema(covered.union(feats), f_schema)


def part_features(
    part: JoinPart,
    left_ds,
    prune_right: bool = True,
    n_left: int | None = None,
):
    """Legacy per-part feature table keyed by the LEFT's column names + ts
    (dedup assembly: one feature row per DISTINCT (keys, ts))."""
    gb = part.group_by
    key_mapping = part.key_mapping or {}
    left_keys = [next((l for l, r in key_mapping.items() if r == k), k) for k in gb.key_columns]

    qcols = list(dict.fromkeys(left_keys + ["ts"]))
    queries = left_ds.select_columns(qcols)
    if key_mapping:
        queries = queries.rename_columns(
            {l: r for l, r in key_mapping.items() if l in left_keys}
        )
    right_ds = _semi_filtered_right(gb, queries, n_left) if prune_right else None
    # DISTINCT (keys, ts) happens inside the kernel's co-partition shuffle
    # (uniqSort analogue, GroupBy.scala:311) — no separate exchange
    feats = features_for_queries(
        gb, queries, dedupe_queries=True, right_ds=right_ds
    )
    return feats.rename_columns(_part_renames(part, invert_keys=True)), left_keys


def backfill_join(
    join: Join,
    materialize_intermediates: bool = True,
    assembly: str = "chain",
):
    """Full join backfill -> Dataset with left columns + all part features.

    assembly="chain" (default): each part's kernel consumes the previous
    part's output directly — one shuffle per part, no assembly joins.  Each
    stage is materialized (it feeds both the small-mode probe and the next
    shuffle, and mirrors the reference's materialized part tables,
    JoinBase.scala:199-222 — part tables ARE the checkpoint).

    assembly="dedup": per-part DISTINCT queries + hash-join back on
    (keys, ts) — cheaper when many left rows share (keys, ts)."""
    left = scan_source(join.left)
    left = _skew_filter(left, join.skew_keys)
    bs_cover: dict[int, set[str]] = {}
    if join.bootstrap_parts:
        assert assembly == "chain", "bootstrap parts require the chained assembly"
        from .bootstrap import bootstrap_left, covering_combos

        left, hash_to_cols = bootstrap_left(left, join)
        left = left.materialize()  # feeds the combo scan AND the part chain
        bs_cover = covering_combos(left, join, hash_to_cols)
    elif materialize_intermediates:
        left = left.materialize()
    out = left

    if assembly == "chain":
        has_parts = bool(join.join_parts or join.online_external_parts)
        n_left = left.count() if has_parts else 0
        for i, part in enumerate(join.join_parts):
            out = _chain_part_with_bootstrap(
                part, out, bs_cover.get(i), n_left,
                prune_right=not _self_enrichment(join, part),
            )
            if materialize_intermediates and part is not join.join_parts[-1]:
                out = out.materialize()
    else:
        from ..functions.relational import bucketed_left_join

        part_tables = [part_features(part, left) for part in join.join_parts]
        if materialize_intermediates and len(part_tables) > 1:
            # materialize part tables concurrently — independent DAGs
            # (the reference's per-JoinPart thread pool, Join.scala:292-296)
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(4, len(part_tables))) as pool:
                mats = list(pool.map(lambda fk: fk[0].materialize(), part_tables))
            part_tables = [(m, fk[1]) for m, fk in zip(mats, part_tables)]
        elif materialize_intermediates:
            part_tables = [(f.materialize(), k) for f, k in part_tables]

        for feats, left_keys in part_tables:
            join_keys = list(dict.fromkeys(left_keys + ["ts"]))
            out = bucketed_left_join(out, feats, join_keys, how="left")
    if join.online_external_parts:
        assert assembly == "chain", "external parts require the chained assembly"
        from ..stages.external import enrich_external

        out, _ = enrich_external(out, join, list(_arrow_schema(out).names), n_left=n_left)
    if join.bootstrap_parts:
        from .bootstrap import MATCHED_HASHES

        # processing metadata never reaches the output (Join.scala:253-255)
        known = known_schema(out)
        out = out.drop_columns([MATCHED_HASHES])
        if known is not None:
            declare_schema(out, known.remove(known.get_field_index(MATCHED_HASHES)))
    if join.derivations:
        out = apply_derivations(out, join.derivations, _arrow_schema(out).names)
    if join.model_transforms:
        # score the pre-model-transform output (ModelTransformBatchJob.scala
        # run loop; the pre-MT table is the chained `out` here)
        from ..stages.models import apply_model_transforms

        if not join.row_ids:
            raise ValueError(
                f"Join '{join.name}' has model_transforms but no row_ids "
                "(the scored output is keyed by row_ids, "
                "ModelTransformBatchJob.scala:56-66)"
            )
        out = apply_model_transforms(out, join.model_transforms, join.row_ids)
    return out
