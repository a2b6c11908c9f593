"""Online/offline consistency — ConsistencyJob re-expressed on Ray Data.

Reference: spark/.../stats/ConsistencyJob.scala:35-153.  The job

1. flattens served-feature logs into a typed table (``logflatten``),
2. re-runs the Join OFFLINE with the logged rows' (keys, ts) as the left —
   the "comparison" table (buildComparisonJoin, ConsistencyJob.scala:44-76),
3. joins logged vs comparison on row ids (or keys + ts) and computes
   per-field, per-time-bucket consistency metrics (CompareMetrics).

Zero drift between the logged (online) values and the offline recompute is
the lambda-architecture exactness property; any mismatch localizes to a
field + hour bucket in the output.
"""

from __future__ import annotations

import pyarrow as pa

from ..api import EventSource, Join, Query
from ..functions.compare import LEFT_SUFFIX, RIGHT_SUFFIX, compare_joined
from ..stages.shuffle import _arrow_schema
from .join import backfill_join


def comparison_join(join: Join, logged_table: str) -> Join:
    """The Join re-pointed at the logged table as its left: selects the
    left key columns + ts straight from the log (ts is already epoch
    millis there), keeping every part/derivation unchanged
    (ConsistencyJob.scala:44-76)."""
    key_cols: list[str] = []
    for part in join.join_parts:
        for k in part.group_by.key_columns:
            mapped = k
            if part.key_mapping:
                inv = {right: left for left, right in part.key_mapping.items()}
                mapped = inv.get(k, k)
            if mapped not in key_cols:
                key_cols.append(mapped)
    left = EventSource(
        table=logged_table,
        query=Query(
            selects={c: c for c in (join.row_ids or []) + key_cols if c != "ts"},
            time_column="ts",
        ),
    )
    return Join(
        left=left,
        join_parts=join.join_parts,
        row_ids=join.row_ids,
        derivations=join.derivations,
        name=f"{join.name}_comparison",
    )


def consistency_metrics(
    join: Join,
    log_table: str,
    schema_table: str,
    value_fields: list[tuple[str, pa.DataType]] | None = None,
    bucket_minutes: int = 60,
    tmp_dir: str = "/tmp/raywin_consistency",
):
    """End-to-end consistency metrics for one Join's serving logs.

    value_fields defaults to every feature column the Join produces that the
    log also carries.  Returns a Dataset with one row per time bucket."""
    import os

    from .logflatten import flatten_logs

    logged = flatten_logs(log_table, schema_table, join_name=join.name)
    log_schema = _arrow_schema(logged)
    # the comparison join scans a table, so the flattened log must land on
    # disk first — it is also the natural audit artifact
    flat_path = os.path.join(tmp_dir, f"{join.name}_flat")
    if not os.path.exists(flat_path):
        logged.write_parquet(flat_path)
    comp = backfill_join(comparison_join(join, flat_path))
    if value_fields is None:
        # every feature field the log carries; the offline recompute of the
        # same Join produces the same columns (probing comp.schema() here
        # would execute the whole kernel pipeline once just for names)
        key_cols = {
            k for p in join.join_parts for k in p.group_by.key_columns
        } | set(p for part in join.join_parts if part.key_mapping
                for p in part.key_mapping)
        value_fields = [
            (f.name, f.type)
            for f in log_schema
            if f.name not in ("ts", "ds", "schema_hash")
            and f.name not in (join.row_ids or [])
            and f.name not in key_cols
        ]
    row_keys = list(join.row_ids or [])
    lren = {n: n + LEFT_SUFFIX for n, _ in value_fields}
    rren = {n: n + RIGHT_SUFFIX for n, _ in value_fields}
    l = logged.rename_columns(lren)
    r = comp.rename_columns(rren)
    r = r.select_columns(row_keys + [n + RIGHT_SUFFIX for n, _ in value_fields])
    from ..functions.relational import bucketed_left_join

    joined = bucketed_left_join(l, r, row_keys)
    return compare_joined(joined, value_fields, "ts", bucket_minutes)
