"""Expression layer: Query.selects / wheres / derivations evaluated per Arrow
batch with DuckDB (zero-copy over Arrow).

The reference uses ONE expression dialect (Spark SQL) for offline scans and
online row eval (api/.../QueryUtils.scala:1-57, online/.../CatalystUtil.scala);
we mirror the invariant with DuckDB SQL applied per batch inside
``map_batches`` tasks.  Stateful: the DuckDB connection is built on a task's
first batch and used for the task's every batch (__call__).
"""

from __future__ import annotations

import re
import threading

import pyarrow as pa

_duckdb_lock = threading.Lock()


try:  # eager import at module load (single-threaded) — see get_duckdb
    import duckdb as _duckdb_mod
except ImportError:  # pragma: no cover - healed lazily below
    _duckdb_mod = None


def get_duckdb():
    """Robust duckdb accessor.  Concurrent/interrupted first-import inside a
    Ray worker can fail in pybind11 type registration and permanently poison
    the process ("generic_type already registered" on every retry).  Strategy:
    eager import at module load; if unavailable, retry under a lock after
    clearing sys.modules; if the process is poisoned beyond repair, kill the
    worker (os._exit) so Ray reschedules the task on a healthy one instead of
    failing the whole dataset."""
    global _duckdb_mod
    if _duckdb_mod is not None:
        return _duckdb_mod
    with _duckdb_lock:
        if _duckdb_mod is not None:
            return _duckdb_mod
        import sys

        for attempt in range(2):
            try:
                for mod in [m for m in sys.modules if m == "duckdb" or m.startswith("duckdb.")]:
                    del sys.modules[mod]
                import duckdb

                _duckdb_mod = duckdb
                return duckdb
            except ImportError:
                continue
        import os

        is_worker = False
        try:
            import ray

            is_worker = (
                ray.is_initialized()
                and ray._private.worker.global_worker.mode == ray._private.worker.WORKER_MODE
            )
        except Exception:
            pass
        if is_worker:
            os._exit(17)  # poisoned worker: die so the task retries elsewhere
        raise ImportError("duckdb import poisoned and unrecoverable")

from ..api import Derivation, Query
from .shuffle import declare_schema, known_schema

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def referenced_columns(exprs: list[str], available: list[str]) -> list[str]:
    """Conservative identifier scan for projection pushdown at the read."""
    seen = set()
    for e in exprs:
        if e is None:
            continue
        seen.update(_IDENT.findall(e))
    return [c for c in available if c in seen]


def build_select_sql(query: Query, relation: str = "batch") -> str | None:
    """Assemble SELECT for a source Query (mirrors QueryUtils.build)."""
    if query.selects is None and query.time_column is None and not query.wheres:
        return None
    select_items = []
    if query.selects:
        for alias, expr in query.selects.items():
            select_items.append(f"({expr}) AS {alias}" if expr != alias else alias)
    else:
        select_items.append("*")
    if query.time_column:
        select_items.append(f"CAST(({query.time_column}) AS BIGINT) AS ts")
    where = f" WHERE {' AND '.join(f'({w})' for w in query.wheres)}" if query.wheres else ""
    return f"SELECT {', '.join(select_items)} FROM {relation}{where}"


class SqlBatch:
    """map_batches callable evaluating one SQL statement per Arrow batch.

    Use as ``ds.map_batches(SqlBatch(sql), batch_format="pyarrow")`` — each
    task opens its connection on its first batch and reuses it for the rest.
    """

    def __init__(self, sql: str | None, relation: str = "batch", setups: list[str] | None = None):
        self.sql = sql
        self.relation = relation
        self.setups = list(setups or [])  # UDF/macro DDL, once per connection
        self._con = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.execute(self.sql, batch)

    def execute(self, sql: str, batch: pa.Table | None = None) -> pa.Table:
        """``sql``'s result, with ``batch`` registered as the relation when
        given."""
        # Retry on "Query interrupted": Ray cancels an abandoned execution's
        # tasks with SIGINT, and in a REUSED worker the signal can land while
        # the NEXT task is mid-query — duckdb translates it into an
        # interrupt.  The query is deterministic, so retrying on a fresh
        # connection is exactly a task retry, minus losing the whole task.
        for attempt in (0, 1, 2):
            try:
                if self._con is None:
                    self._con = get_duckdb().connect(":memory:")
                    for stmt in self.setups:
                        self._con.execute(stmt)
                if batch is None:
                    return self._con.execute(sql).fetch_arrow_table()
                self._con.register(self.relation, batch)
                out = self._con.execute(sql).fetch_arrow_table()
                self._con.unregister(self.relation)
                return out
            except (Exception, KeyboardInterrupt) as e:
                msg = str(e)
                interrupted = (
                    "interrupt" in msg.lower() or isinstance(e, KeyboardInterrupt)
                )
                if not interrupted or attempt == 2:
                    raise
                self._con = None  # connection state is poisoned; rebuild
        raise AssertionError("unreachable")


def derivation_sql(derivations: list[Derivation], base_columns: list[str]) -> str:
    """Post-join/groupby projection; '*' derivation passes all base columns
    through (reference api.thrift:328-366, DerivationUtils)."""
    items = []
    star = any(d.name == "*" for d in derivations)
    if star:
        items.append("*")
    for d in derivations:
        if d.name == "*":
            continue
        items.append(f"({d.expression}) AS {d.name}")
    if not star:
        # always keep key/ts columns the derivations didn't overwrite
        derived_names = {d.name for d in derivations}
        for c in base_columns:
            if c not in derived_names:
                items.insert(0, c)
    return f"SELECT {', '.join(items)} FROM batch"


def map_sql(ds, sql: str, setups: list[str] | None = None):
    """ds mapped by one DuckDB statement per Arrow batch (SqlBatch), with
    the output's schema declared when ds's is known: DuckDB types a result
    when it binds the statement, so the statement over an empty table of
    the input's schema has the output's schema."""
    out = ds.map_batches(SqlBatch(sql, setups=setups), batch_format="pyarrow")
    known = known_schema(ds)
    if known is None:
        return out
    return declare_schema(out, SqlBatch(sql, setups=setups)(known.empty_table()).schema)


def apply_query(ds, query: Query):
    """Apply a Query's select/where/time mapping to a Dataset."""
    sql = build_select_sql(query)
    if sql is None:
        return ds
    return map_sql(ds, sql, getattr(query, "setups", None))


def apply_derivations(ds, derivations: list[Derivation] | None, base_columns: list[str]):
    if not derivations:
        return ds
    return map_sql(ds, derivation_sql(derivations, base_columns))
