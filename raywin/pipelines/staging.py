"""StagingQuery: arbitrary-SQL preparation node with template macros
(reference api.thrift:25-54, spark/.../StagingQuery.scala:31-225, macro
substitution ParametricMacro.scala:1-63).

Macros: {{ start_date }}, {{ end_date }}, {{ latest_date }},
{{ max_date(table=<name>) }} — date strings 'yyyy-MM-dd'.

Execution: arbitrary SQL cannot be generically distributed, so the statement
runs on DuckDB (multi-threaded, out-of-core) directly over the parquet
tables and lands as partitioned parquet that downstream Ray pipelines scan —
the same role Spark SQL plays for the reference's staging nodes; the
structured operators (GroupBy/Join/dedup/...) are the distributed path.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field


@dataclass
class StagingQuery:
    query: str
    name: str = "staging_query"
    setups: list[str] = field(default_factory=list)
    # table name -> parquet/lance path, so a conf object is self-contained
    # when launched via `python -m raywin.run --mode staging-query`
    tables: dict[str, str] = field(default_factory=dict)


_MACRO = re.compile(r"\{\{\s*(\w+)(?:\(([^)]*)\))?\s*\}\}")


def render_query(
    sq: StagingQuery,
    start_date: str,
    end_date: str,
    tables: dict[str, str],
    latest_date: str | None = None,
) -> str:
    """Substitute template macros (ParametricMacro semantics)."""

    def max_date(table: str) -> str:
        from ..stages.query import get_duckdb

        con = get_duckdb().connect()
        path = tables[table]
        ts_col = None
        for cand in ("ds", "ts", "o_orderdate", "l_shipdate"):
            try:
                con.execute(f"SELECT {cand} FROM '{path}' LIMIT 1")
                ts_col = cand
                break
            except Exception:
                continue
        if ts_col is None:
            raise ValueError(f"max_date: no date-like column found in {table}")
        val = con.execute(f"SELECT strftime(max({ts_col}), '%Y-%m-%d') FROM '{path}'").fetchone()[0]
        return str(val)

    def repl(m: re.Match) -> str:
        name, arg = m.group(1), m.group(2)
        if name == "start_date":
            return start_date
        if name == "end_date":
            return end_date
        if name == "latest_date":
            return latest_date or end_date
        if name == "max_date":
            table = arg.split("=")[1].strip().strip("'\"")
            return max_date(table)
        raise ValueError(f"unknown macro {name}")

    return _MACRO.sub(repl, sq.query)


def run_staging_query(
    sq: StagingQuery,
    start_date: str,
    end_date: str,
    tables: dict[str, str],
    output_dir: str | None = None,
    step_days: int | None = None,
):
    """Render + execute; returns a ray.data.Dataset over the result.

    With step_days set, [start_date, end_date] is split into inclusive
    sub-ranges and each shard's rendered SQL runs in its own Ray task — the
    reference's stepDays execution (StagingQuery.scala:58-89: `stepRanges =
    partitionRange.steps(stepDays)`), which distributes the staging node
    across the cluster.  As there, the author contract is that the query is
    range-shardable: every row belongs to exactly one {{ start_date }} ..
    {{ end_date }} slice and no aggregate straddles slices.  Without
    step_days the statement runs once on a single DuckDB (multi-threaded,
    out-of-core) — the fallback for non-shardable SQL."""
    import ray.data

    from ..sources.io import read_parquet
    from ..stages.query import get_duckdb

    if step_days:
        out = _run_sharded(sq, start_date, end_date, tables, step_days)
        if output_dir:
            os.makedirs(output_dir, exist_ok=True)
            out_path = os.path.join(output_dir, sq.name)
            out.write_parquet(out_path)
            return read_parquet(out_path)
        return out
    sql = render_query(sq, start_date, end_date, tables)
    con = get_duckdb().connect()
    for setup in sq.setups:
        con.execute(setup)
    for name, path in tables.items():
        con.execute(f"CREATE OR REPLACE VIEW {name} AS SELECT * FROM '{path}'")
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        out_path = os.path.join(output_dir, f"{sq.name}.parquet")
        con.execute(f"COPY ({sql}) TO '{out_path}' (FORMAT PARQUET)")
        return read_parquet(out_path)
    table = con.execute(sql).fetch_arrow_table()
    return ray.data.from_arrow(table)


def _shard_runner(sq: StagingQuery, tables: dict[str, str]):
    """map_batches stage running one rendered date-slice statement per
    shard row on a ``SqlBatch`` connection: the setups and table views run
    once per connection, and an interrupted statement retries on a fresh
    one."""
    from ..stages.query import SqlBatch

    views = [f"CREATE OR REPLACE VIEW {name} AS SELECT * FROM '{path}'" for name, path in tables.items()]
    con = SqlBatch(None, setups=list(sq.setups) + views)

    def run(batch):
        import pyarrow as pa

        outs = [con.execute(render_query(sq, s, e, tables))
                for s, e in zip(batch["start"].to_pylist(), batch["end"].to_pylist())]
        return pa.concat_tables(outs) if len(outs) > 1 else outs[0]

    return run


def _run_sharded(sq: StagingQuery, start_date: str, end_date: str,
                 tables: dict[str, str], step_days: int):
    import pandas as pd
    import ray.data

    from .backfill import MILLIS_DAY, day_partitions

    specs = [
        {
            "start": pd.Timestamp(lo, unit="ms").strftime("%Y-%m-%d"),
            # inclusive shard end, the reference's PartitionRange convention
            "end": pd.Timestamp(hi - MILLIS_DAY, unit="ms").strftime("%Y-%m-%d"),
        }
        for _, lo, hi in day_partitions(start_date, end_date, step_days)
    ]
    shard_ds = ray.data.from_items(specs)
    return shard_ds.map_batches(_shard_runner(sq, tables), batch_size=1, batch_format="pyarrow")
