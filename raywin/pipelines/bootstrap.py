"""Bootstrap parts + covering sets: reuse precomputed feature rows and skip
backfill for left rows they fully cover.

Mirrors the reference's bootstrap machinery re-expressed Ray-Data-first:

- ``bootstrap_left``: left ⟕ each bootstrap table on its keys, coalescing
  same-named columns and accumulating a per-row matched-hash set
  (Join.computeBootstrapTable, spark/.../Join.scala:464-558).  The hash set
  rides as ONE canonical string column (sorted, comma-joined) instead of the
  reference's array<string> — same information, survives any block format.
- ``covering_combos``: for each join part, the distinct hash combinations
  whose provided columns ⊇ the part's outputs (CoveringSet,
  Join.scala:49-64,136-217).  Combo cardinality is ≤ 2^#bootstrap_parts —
  a driver-side groupby on the tiny distinct set, like the reference's
  ``collect`` of distinct matched_hashes.
- ``split_covered``: partition the running output into covered rows (keep
  bootstrap values verbatim) and uncovered rows (run the part's kernel,
  then COALESCE bootstrap over computed, the coalescedJoin rule
  JoinUtils.scala:138-173).

The per-part skip composes with the chained one-shuffle assembly: covered
rows bypass that part's kernel shuffle entirely and union back afterwards.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..api import BootstrapPart, Join
from ..sources.io import read_table, table_schema
from ..stages.query import apply_query, referenced_columns
from ..stages.shuffle import _arrow_schema, declare_schema, known_schema

MATCHED_HASHES = "__matched_hashes"
_BS_PREFIX = "__bs_"


def _part_keys(part: BootstrapPart, join: Join) -> list[str]:
    if part.key_columns:
        return part.key_columns
    if join.row_ids:
        return join.row_ids
    raise ValueError(
        "BootstrapPart needs key_columns or the Join needs row_ids "
        "(reference requires row_ids for bootstrap, Join.scala:464-558)"
    )


def _join_output_columns(join: Join) -> set[str]:
    out: set[str] = set()
    for jp in join.join_parts:
        for col in jp.group_by.output_columns():
            out.add(f"{jp.full_prefix}{col}")
    return out


def scan_bootstrap_part(part: BootstrapPart, join: Join):
    """Scan one bootstrap table restricted to its keys + columns that are
    actual join outputs (the reference's includedColumns filter,
    Join.scala:524-532), deduplicated on the keys."""
    keys = _part_keys(part, join)
    schema = table_schema(part.table)
    wanted = _join_output_columns(join) | set(keys)
    if part.query.selects:
        ds = apply_query(read_table(part.table), part.query)
        cols = [c for c in (list(part.query.selects) + (["ts"] if part.query.time_column else [])) if c in wanted]
        schema = _arrow_schema(ds)
    else:
        cols = [c for c in schema.names if c in wanted]
        ds = read_table(part.table, cols)
    value_cols = [c for c in cols if c not in keys]

    def dedup(batch: pa.Table) -> pa.Table:
        # per-batch first-per-key; bootstrap tables are precomputed feature
        # tables assumed key-unique (reference dropDuplicates Join.scala:532)
        batch = batch.select([c for c in cols if c in batch.column_names])
        first = ~batch.select(keys).to_pandas().duplicated().to_numpy()
        return batch.filter(pa.array(first))

    out = ds.map_batches(dedup, batch_format="pyarrow")
    return declare_schema(out, dedup(schema.empty_table()).schema), keys, value_cols


def _merge_hashes(existing, hit_mask: np.ndarray, h: str) -> pa.Array:
    """Set-add `h` into the canonical sorted comma-joined hash string for
    rows where hit_mask is True (the reference's set_add on matched_hashes,
    Join.scala:543-546)."""
    out = []
    ex = existing if existing is not None else [None] * len(hit_mask)
    for cur, hit in zip(ex, hit_mask):
        if not hit:
            out.append(cur)
        elif cur is None or cur == "":
            out.append(h)
        else:
            hs = set(cur.split(",")) | {h}
            out.append(",".join(sorted(hs)))
    return pa.array(out, type=pa.string())


def bootstrap_left(left_ds, join: Join):
    """left ⟕ every bootstrap part; returns (dataset, hash_to_cols).

    dataset carries all bootstrapped value columns plus MATCHED_HASHES;
    hash_to_cols maps each part's semantic hash to the value columns it
    provides (the reference's BootstrapInfo.hashToSchema).

    CONSECUTIVE parts that join on the same key run (production bootstrap
    tables almost always key on the join's row_ids) are fused into ONE
    co-partitioning shuffle via ``bucketed_multi_left_join`` — N tables cost
    one exchange, not N.  Each part's value columns get a unique prefix for
    the fused join, then a single vectorized fold applies the parts in
    declaration order (earlier bootstrap wins on overlap) so semantics match
    the sequential reference loop (Join.scala:524-546)."""
    from ..functions.relational import bucketed_multi_left_join

    hash_to_cols: dict[str, set[str]] = {}
    out = left_ds

    parts = list(join.bootstrap_parts or [])
    scanned = [scan_bootstrap_part(p, join) for p in parts]
    runs: list[list[int]] = []  # consecutive same-key runs, order preserved
    for i, (_, keys, _) in enumerate(scanned):
        if runs and scanned[runs[-1][-1]][1] == keys:
            runs[-1].append(i)
        else:
            runs.append([i])

    for run in runs:
        keys = scanned[run[0]][1]
        rights = []
        folds = []  # (hash, {orig: prefixed}, hit_col, value_cols)
        for j, i in enumerate(run):
            bs_ds, _, value_cols = scanned[i]
            h = parts[i].hash_value()
            hash_to_cols[h] = set(value_cols)
            hit_col = f"{_BS_PREFIX}hit{j}"
            renames = {c: f"{_BS_PREFIX}{j}_{c}" for c in value_cols}

            def mark(batch: pa.Table, renames=renames, hit_col=hit_col) -> pa.Table:
                batch = batch.rename_columns(
                    [renames.get(c, c) for c in batch.column_names]
                )
                return batch.append_column(
                    hit_col, pa.array(np.ones(len(batch), dtype=np.int8))
                )

            rights.append(declare_schema(bs_ds.map_batches(mark, batch_format="pyarrow"),
                                         mark(known_schema(bs_ds).empty_table()).schema))
            folds.append((h, renames, hit_col, value_cols))

        out = bucketed_multi_left_join(out, rights, on=keys)

        def fold_all(batch: pa.Table, folds=folds) -> pa.Table:
            for h, renames, hit_col, value_cols in folds:
                hit = pc.fill_null(batch[hit_col], 0).to_numpy(zero_copy_only=False) == 1
                cur = (
                    batch[MATCHED_HASHES].to_pylist()
                    if MATCHED_HASHES in batch.column_names
                    else None
                )
                merged = _merge_hashes(cur, hit, h)
                for orig in value_cols:
                    tmp = renames[orig]
                    if orig in batch.column_names:
                        # coalesce(existing, incoming): earlier bootstrap wins
                        batch = batch.set_column(
                            batch.column_names.index(orig),
                            orig,
                            pc.coalesce(batch[orig], batch[tmp]),
                        ).drop_columns([tmp])
                    else:
                        batch = batch.rename_columns(
                            [orig if c == tmp else c for c in batch.column_names]
                        )
                batch = batch.drop_columns([hit_col])
                if MATCHED_HASHES in batch.column_names:
                    batch = batch.set_column(
                        batch.column_names.index(MATCHED_HASHES), MATCHED_HASHES, merged
                    )
                else:
                    batch = batch.append_column(MATCHED_HASHES, merged)
            return batch

        joined = known_schema(out)
        out = out.map_batches(fold_all, batch_format="pyarrow")
        if joined is not None:
            declare_schema(out, fold_all(joined.empty_table()).schema)
    return out, hash_to_cols


def covering_combos(ds, join: Join, hash_to_cols: dict[str, set[str]]) -> dict[int, set[str]]:
    """For each join part index, the set of MATCHED_HASHES combo strings that
    fully cover the part's output columns (CoveringSet.isCovering,
    Join.scala:188-204).  The distinct-combo space is tiny (≤ 2^#parts) —
    aggregated distributed, collected on the driver like the reference."""
    distinct = ds.select_columns([MATCHED_HASHES]).unique(MATCHED_HASHES)
    if not isinstance(distinct, list):
        distinct = [r[MATCHED_HASHES] for r in distinct.take_all()]
    combos = [c for c in distinct if c]
    out: dict[int, set[str]] = {}
    for i, jp in enumerate(join.join_parts):
        need = {f"{jp.full_prefix}{col}" for col in jp.group_by.output_columns()}
        covering = set()
        for combo in combos:
            provided: set[str] = set()
            for h in combo.split(","):
                provided |= hash_to_cols.get(h, set())
            if need <= provided:
                covering.add(combo)
        if covering:
            out[i] = covering
    return out


def split_covered(ds, covering: set[str]):
    """(covered, uncovered) datasets by MATCHED_HASHES membership — a
    vectorized per-batch filter, the Ray analogue of
    CoveringSet.toFilterCondition (Join.scala:53-64)."""
    cov = sorted(covering)

    def make(keep_covered: bool):
        def fn(batch: pa.Table) -> pa.Table:
            col = batch[MATCHED_HASHES].to_numpy(zero_copy_only=False)
            mask = np.isin(col.astype(object), cov)
            if not keep_covered:
                mask = ~mask
            return batch.filter(pa.array(mask))

        return fn

    schema = known_schema(ds)
    sides = (ds.map_batches(make(True), batch_format="pyarrow"),
             ds.map_batches(make(False), batch_format="pyarrow"))
    return sides if schema is None else tuple(declare_schema(d, schema) for d in sides)
