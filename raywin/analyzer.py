"""Config validation + analysis: catch broken GroupBy/Join configs at plan
time instead of hours into a 100-TB backfill.

Mirrors the reference's two validation layers:
  * repo validator (api/py/ai/chronon/repo/validator.py:318-522) — config
    shape: derivations reference real columns, cumulative events need a
    time column, join parts' GroupBys valid;
  * Analyzer (spark/.../Analyzer.scala:116-190, 579-614) — schema-aware:
    join key dtype matches between left and right, aggregation inputs exist
    with aggregatable types, heavy-hitter scan.

Schema inference runs DuckDB ``DESCRIBE`` over a LIMIT-0 scan of each source
(zero data read beyond parquet/lance footers), so every check is cheap enough
for CI.  ``analyze_group_by`` additionally reports the output feature schema
and sampled heavy hitters (the Analyzer's FrequentItems role is played by
stages.shuffle.detect_hot_keys).
"""

from __future__ import annotations

import re

from .api import (
    Accuracy,
    Derivation,
    EntitySource,
    EventSource,
    GroupBy,
    Join,
    JoinSource,
    Operation,
)

_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_NUMERIC_OPS = {
    Operation.SUM,
    Operation.AVERAGE,
    Operation.VARIANCE,
    Operation.SKEW,
    Operation.KURTOSIS,
    Operation.APPROX_PERCENTILE,
}
_NUMERIC_TYPES = {
    "TINYINT", "SMALLINT", "INTEGER", "BIGINT", "HUGEINT", "UTINYINT",
    "USMALLINT", "UINTEGER", "UBIGINT", "FLOAT", "DOUBLE", "DECIMAL",
}


def _base_type(duck_type: str) -> str:
    return duck_type.split("(")[0].strip().upper()


def source_schema(source) -> dict[str, str] | None:
    """Post-Query column -> DuckDB type for one source, from a LIMIT-0
    DESCRIBE (footer-only read).  None when the table is unreachable."""
    from .stages.query import build_select_sql, get_duckdb

    if isinstance(source, JoinSource):
        return None  # upstream join output: schema known only after backfill
    path = source.snapshot_table if isinstance(source, EntitySource) else source.table
    duckdb = get_duckdb()
    glob = f"{path}/*.parquet" if not path.endswith(".parquet") else path
    try:
        con = duckdb.connect()
        sql = build_select_sql(source.query, relation="batch") or "SELECT * FROM batch"
        # strip wheres: they don't change the schema and may reference ts
        sql = sql.split(" WHERE ")[0]
        rows = con.sql(
            f"DESCRIBE WITH batch AS (SELECT * FROM read_parquet('{glob}') LIMIT 0) {sql}"
        ).fetchall()
        return {r[0]: r[1] for r in rows}
    except Exception as e:  # unreadable table / bad expression
        return {"__error__": str(e)}


def _validate_derivations(key_cols, pre_derived, derivations: list[Derivation]):
    """Mirror of validator.py:348-385."""
    errors = []
    derived = set(pre_derived)
    wildcard = any(d.expression == "*" for d in derivations)
    if not wildcard:
        derived = set()
    for d in derivations:
        if _IDENT.match(d.expression):
            if wildcard and d.expression in derived:
                derived.remove(d.expression)
            if d.expression not in pre_derived and d.expression not in ("ds", "ts"):
                errors.append(
                    f"derivation expression {d.expression!r} not found in "
                    f"pre-derived columns {sorted(pre_derived)}"
                )
        if d.name != "*":
            if d.name in derived and d.name not in key_cols:
                errors.append(f"derivation name {d.name!r} conflicts with an output column")
            else:
                derived.add(d.name)
    return errors


def validate_group_by(gb: GroupBy, check_tables: bool = True) -> list[str]:
    errors: list[str] = []
    if not gb.sources:
        errors.append(f"group_by {gb.name!r} has no sources")
        return errors
    if not gb.key_columns:
        errors.append(f"group_by {gb.name!r} has no key_columns")

    models = {type(s).__name__ for s in gb.sources}
    if len(models) > 1:
        # validator counterpart of Extensions.scala:465-473 dataModel assert
        errors.append(
            f"group_by {gb.name!r} mixes source types {sorted(models)}; all "
            "sources must be Events or all Entities"
        )

    for s in gb.sources:
        if isinstance(s, EventSource) and s.is_cumulative and not s.query.time_column:
            # validator.py:520-522
            errors.append(f"cumulative events table {s.table!r} needs query.time_column")

    is_entity = all(isinstance(s, EntitySource) for s in gb.sources)
    if not gb.aggregations and not is_entity:
        errors.append(
            f"group_by {gb.name!r} has no aggregations: the keyed passthrough "
            "form is only valid over entity snapshots (GroupBy.scala:137-141)"
        )
    if gb.inferred_accuracy is Accuracy.TEMPORAL and is_entity:
        if any(not s.mutation_table for s in gb.sources):
            errors.append(
                f"group_by {gb.name!r} is TEMPORAL over entities but a source "
                "has no mutation_table (temporal entities need CDC mutations)"
            )

    for agg in gb.aggregations or []:
        for w in agg.windows or []:
            if w.length == 0 or w.length < -1:
                errors.append(
                    f"group_by {gb.name!r}: window length {w.length} invalid "
                    "(positive, or -1 for unbounded)"
                )
        k = agg.arg_map.get("k")
        if k is not None and int(k) <= 0:
            errors.append(f"group_by {gb.name!r}: {agg.operation.value} k={k} must be positive")

    outputs = gb.output_columns()
    for col in sorted({c for c in outputs if outputs.count(c) > 1}):
        # two parts would write one column (e.g. BOUNDED_UNIQUE_COUNT at two k)
        errors.append(f"group_by {gb.name!r}: two aggregation parts both output column {col!r}")

    if check_tables:
        for s in gb.sources:
            schema = source_schema(s)
            if schema is None:
                continue
            if "__error__" in schema:
                errors.append(f"group_by {gb.name!r}: source unreadable: {schema['__error__']}")
                continue
            for kc in gb.key_columns:
                if kc not in schema:
                    errors.append(
                        f"group_by {gb.name!r}: key column {kc!r} not in source "
                        f"columns {sorted(schema)}"
                    )
            if gb.tie_breaker and gb.tie_breaker not in schema:
                errors.append(f"group_by {gb.name!r}: tie_breaker {gb.tie_breaker!r} not in source")
            if isinstance(s, EventSource) and "ts" not in schema and not s.query.time_column:
                errors.append(
                    f"group_by {gb.name!r}: event source {s.table!r} has no ts "
                    "column and no query.time_column"
                )
            for agg in gb.aggregations or []:
                if agg.input_column not in schema:
                    if agg.operation is Operation.COUNT and agg.input_column == "*":
                        continue
                    errors.append(
                        f"group_by {gb.name!r}: aggregation input "
                        f"{agg.input_column!r} not in source columns {sorted(schema)}"
                    )
                elif agg.operation in _NUMERIC_OPS:
                    t = _base_type(schema[agg.input_column])
                    if t.startswith("LIST") or t.startswith("MAP") or t == "STRUCT":
                        continue  # auto-explode / map aggregation handles these
                    if t not in _NUMERIC_TYPES:
                        errors.append(
                            f"group_by {gb.name!r}: {agg.operation.value} over "
                            f"non-numeric column {agg.input_column!r} ({t})"
                        )

    if gb.derivations:
        pre = set(gb.key_columns) | set(gb.output_columns())
        errors.extend(
            f"group_by {gb.name!r}: {e}"
            for e in _validate_derivations(gb.key_columns, pre, gb.derivations)
        )
    return errors


def validate_join(join: Join, check_tables: bool = True) -> list[str]:
    errors: list[str] = []
    left_schema = source_schema(join.left) if check_tables else None
    if left_schema and "__error__" in left_schema:
        errors.append(f"join {join.name!r}: left unreadable: {left_schema['__error__']}")
        left_schema = None
    if isinstance(join.left, EventSource) and not join.left.query.time_column:
        if not left_schema or "ts" not in left_schema:
            errors.append(f"join {join.name!r}: left event source needs query.time_column")

    out_cols: set[str] = set(left_schema or [])
    for part in join.join_parts:
        gb = part.group_by
        errors.extend(
            f"join {join.name!r}'s underlying {e}"
            for e in validate_group_by(gb, check_tables=check_tables)
        )
        mapping = part.key_mapping or {}
        for left_col, right_key in mapping.items():
            if right_key not in gb.key_columns:
                errors.append(
                    f"join {join.name!r}: key_mapping target {right_key!r} is "
                    f"not a key of group_by {gb.name!r} ({gb.key_columns})"
                )
            if left_schema and left_col not in left_schema:
                errors.append(
                    f"join {join.name!r}: key_mapping source {left_col!r} not "
                    "in left columns"
                )
        if left_schema:
            inv = {v: k for k, v in mapping.items()}
            for key in gb.key_columns:
                left_col = inv.get(key, key)
                if left_col not in left_schema:
                    errors.append(
                        f"join {join.name!r}: group_by {gb.name!r} key {key!r} "
                        f"has no left column (missing {left_col!r}; add a key_mapping)"
                    )
        for oc in gb.output_columns():
            full = f"{part.full_prefix}{oc}"
            if full in out_cols:
                errors.append(f"join {join.name!r}: duplicate output column {full!r}")
            out_cols.add(full)

    if join.bootstrap_parts and not join.row_ids:
        errors.append(f"join {join.name!r}: bootstrap_parts require row_ids")
    if join.model_transforms and not join.row_ids:
        errors.append(f"join {join.name!r}: model_transforms require row_ids")
    if join.derivations:
        errors.extend(
            f"join {join.name!r}: {e}"
            for e in _validate_derivations([], out_cols, join.derivations)
        )
    return errors


def source_arrow_schema(source):
    """Arrow schema of one source's post-Query output (LIMIT-0 scan)."""
    from .stages.query import build_select_sql, get_duckdb

    if isinstance(source, JoinSource):
        return None
    path = source.snapshot_table if isinstance(source, EntitySource) else source.table
    glob = f"{path}/*.parquet" if not path.endswith(".parquet") else path
    con = get_duckdb().connect()
    sql = build_select_sql(source.query, relation="batch") or "SELECT * FROM batch"
    sql = sql.split(" WHERE ")[0]
    return con.sql(
        f"WITH batch AS (SELECT * FROM read_parquet('{glob}') LIMIT 0) {sql}"
    ).arrow().schema


def analyze_group_by(gb: GroupBy) -> dict:
    """Analyzer report (Analyzer.scala:116-190): validation errors, the
    output feature schema, and sampled heavy-hitter keys whose skew would
    dominate the co-partition shuffle."""
    from .aggregator.kernel import output_type
    from .pipelines.group_by import events_dataset
    from .stages.shuffle import detect_hot_keys

    report: dict = {"errors": validate_group_by(gb)}
    if report["errors"]:
        return report
    arrow_schema = source_arrow_schema(gb.sources[0])
    report["input_schema"] = {f.name: str(f.type) for f in arrow_schema}
    out = {}
    for part in gb.agg_parts():
        try:
            in_type = arrow_schema.field(part.input_column).type
            out[part.output_column] = str(output_type(part, in_type))
        except Exception:
            out[part.output_column] = "?"
    report["output_schema"] = out
    try:
        ds = events_dataset(gb)
        hot = detect_hot_keys(ds, gb.key_columns[0])
        report["hot_keys"] = hot
    except Exception as e:
        report["hot_keys_error"] = str(e)
    return report


def analyze_join(join: Join) -> dict:
    """Join analyzer report: validation errors + per-part GroupBy reports
    (Analyzer.scala analyzeJoin:192-250)."""
    report: dict = {"errors": validate_join(join)}
    if report["errors"]:
        return report
    report["parts"] = {
        (jp.prefix + "_" if jp.prefix else "") + jp.group_by.name: analyze_group_by(jp.group_by)
        for jp in join.join_parts
    }
    return report


def explain_plan(conf) -> dict:
    """Static execution-plan summary for a GroupBy or Join: the ordered
    stages with every all-to-all exchange (shuffle) and broadcast made
    explicit, so a reviewer can audit the scale story without running the
    pipeline.  Mirrors the stage structure the pipeline builders actually
    emit (group_by.features_for_queries, entities.*, join.backfill_join);
    counts are exact for the default chained assembly."""
    from .api import EntitySource, GroupBy, Join

    def gb_plan(gb: GroupBy) -> tuple[list[str], int]:
        stages: list[str] = []
        src0 = gb.sources[0]
        if isinstance(src0, EntitySource) and src0.mutation_table:
            stages += [
                "scan snapshot + mutation tables (projection pushdown)",
                "union queries/snapshots/mutations (tagged, schema-padded)",
                "SHUFFLE: hash(keys) co-partition",
                "EntityKernel (vectorized snapshot base + signed CDC deltas)",
            ]
            return stages, 1
        if isinstance(src0, EntitySource):
            stages += [
                "scan snapshot table",
                "SHUFFLE: groupby(hash(keys, ds))",
                "per-group snapshot aggregate",
            ]
            return stages, 1
        for s in gb.sources:
            stages.append("scan events (projection pushdown, window-aware range)")
        if len(gb.sources) > 1:
            stages.append("union sources")
        if not gb.aggregations:
            stages += ["SHUFFLE: hash(keys) dedupe", "keyed passthrough"]
            return stages, 1
        stages += [
            "union queries + events (tagged)",
            "SHUFFLE: hash(keys) x time-bucket co-partition "
            "(hot keys: time-chunk replication when enabled)",
            "PartitionKernel (prefix/segtree/position/two-stack-tile engines)",
        ]
        return stages, 1

    if isinstance(conf, GroupBy):
        stages, shuffles = gb_plan(conf)
        return {"stages": stages, "shuffles": shuffles, "broadcasts": []}

    assert isinstance(conf, Join)
    stages, shuffles, broadcasts = ["scan left (projection pushdown)"], 0, []
    if conf.skew_keys:
        stages.append("filter skew keys (map)")
    if conf.bootstrap_parts:
        runs, prev_keys = 0, None
        for bp in conf.bootstrap_parts:
            keys = tuple(bp.key_columns or conf.row_ids or [])
            if keys != prev_keys:
                runs += 1
                prev_keys = keys
        stages.append(
            f"bootstrap: {len(conf.bootstrap_parts)} part(s) fused into {runs} "
            "same-key run(s); SHUFFLE per run (multi-right co-partition join + fold)"
        )
        shuffles += runs
        stages.append("covering-combo scan (distinct MATCHED_HASHES, tiny)")
    for jp in conf.join_parts:
        _, s = gb_plan(jp.group_by)
        broadcasts.append(
            f"{jp.group_by.name}: small-mode semi-filter of the right scan "
            "(left keys broadcast via ray.put when left is small)"
        )
        stages.append(
            f"part {jp.group_by.name}: chained PITC kernel pass (SHUFFLE: "
            "hash(keys) x time-bucket; output carries accumulated columns)"
        )
        shuffles += s
    for ep in conf.online_external_parts or []:
        src = ep.source
        if getattr(src, "keys", None) is not None and type(src).__name__ == "ContextualSource":
            stages.append(f"external {ep.full_name}: contextual passthrough (map)")
        elif getattr(src, "offline_group_by", None) is not None:
            stages.append(
                f"external {ep.full_name}: offline synthetic part "
                "(SHUFFLE: PITC kernel pass)"
            )
            shuffles += 1
        else:
            stages.append(
                f"external {ep.full_name}: pure-handler task replay "
                "or null-pad (map)"
            )
    if conf.derivations:
        stages.append("derivations (vectorized map)")
    if conf.model_transforms:
        stages.append("model transforms (map tasks, models built per task, batched inference)")
    return {"stages": stages, "shuffles": shuffles, "broadcasts": broadcasts}
