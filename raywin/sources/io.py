"""Source scanning with projection pushdown + query application.

Mirrors the reference's renderDataSourceQuery (spark/.../GroupBy.scala:610-689):
per-source select/where/time mapping applied at scan time, multiple sources
unioned aligned by column name (GroupBy.scala:486-490).

Tables are parquet or Lance paths (BASELINE mandates a Lance image+caption
lake as the production target).  ``read_table`` dispatches on the dataset
format: a ``*.lance`` directory goes through ``ray.data.read_lance`` when the
``lance`` wheel is importable (it is absent in this container — the path is
gated behind a try-import with a clear error), everything else through
``read_parquet``.  Both honor projection pushdown.

Every parquet read in the engine goes through ``read_parquet``, which reads
into one block per CPU of the session (``read_block_count``).  A read task
already cuts its output at ``DataContext.target_max_block_size``, so a big
table at few CPUs still arrives in bounded blocks.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..api import EventSource, EntitySource, Query
from ..stages.query import apply_query, referenced_columns

try:  # optional: the production Lance lake reader
    import lance as _lance
except ImportError:  # pragma: no cover - container has no lance wheel
    _lance = None

try:
    # Ray's read_parquet path resolution lazily imports
    # fsspec.implementations.http on EVERY call (_is_http_filesystem) and
    # catches only ModuleNotFoundError.  In this container the import always
    # fails (no aiohttp), which is fine single-threaded — but when two
    # orchestrator threads create readers concurrently, the second sees the
    # first's partially-initialized module and gets a plain ImportError
    # ("cannot import name 'HTTPFileSystem'"), which Ray does NOT catch:
    # flaky step failures.  Import once here; if it fails, seed a stub
    # module with a sentinel class so every later import is deterministic
    # (isinstance against the sentinel is False for all real filesystems,
    # the same outcome as Ray's except branch).
    import fsspec.implementations.http  # noqa: F401
except ModuleNotFoundError:  # pragma: no cover - aiohttp absent
    import sys as _sys
    import types as _types

    try:
        import fsspec.implementations as _fsspec_impl

        class _NoHTTPFileSystem:  # sentinel: http filesystem unavailable
            pass

        _stub = _types.ModuleType("fsspec.implementations.http")
        _stub.HTTPFileSystem = _NoHTTPFileSystem
        _sys.modules["fsspec.implementations.http"] = _stub
        _fsspec_impl.http = _stub
    except Exception:
        pass
except Exception:  # pragma: no cover
    pass


def _is_lance(path: str) -> bool:
    return path.rstrip("/").endswith(".lance") or (
        os.path.isdir(path) and os.path.isdir(os.path.join(path, "_versions"))
    )


def _is_local_file(path: str) -> bool:
    return path.endswith((".csv", ".json", ".jsonl"))


def table_schema(path: str):
    if _is_local_file(path):
        from .local import local_schema

        return local_schema(path)
    if _is_lance(path):
        if _lance is None:
            raise ImportError(
                f"{path} is a Lance dataset but the `lance` package is not "
                "installed; install pylance or convert the table to parquet"
            )
        return _lance.dataset(path).schema
    if os.path.isdir(path):
        for f in sorted(os.listdir(path)):
            if f.endswith(".parquet"):
                return pq.ParquetFile(os.path.join(path, f)).schema_arrow
        raise FileNotFoundError(f"no parquet files under {path}")
    return pq.ParquetFile(path).schema_arrow


def _parquet_files(path) -> list[str]:
    """The parquet files of a file, a list of files, or a (hive-partitioned)
    directory."""
    if isinstance(path, (list, tuple)):
        return list(path)
    if os.path.isdir(path):
        return sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names if f.endswith(".parquet")
        )
    return [path]


def read_block_count() -> int:
    """Blocks to read a table into: one per CPU of the Ray session (of the
    machine before Ray starts, as ``ray.data`` would start it).  Each block
    then feeds one task downstream, so a small table at 1 CPU is one task
    per stage instead of one per fixed split."""
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def _read_schema(path, columns: list[str] | None) -> pa.Schema | None:
    """The first file's schema projected to ``columns``, without its
    metadata, or None when the read may need hive partition columns (Ray
    adds a column for each ``key=value`` directory after the read, outside
    ``schema``)."""
    files = _parquet_files(path)
    if not files or not os.path.isfile(files[0]):
        return None
    if columns is None and any("=" in os.path.dirname(f) for f in files):
        return None
    phys = pq.read_schema(files[0])
    names = phys.names if columns is None else columns
    if not set(names) <= set(phys.names):
        return None
    return pa.schema([phys.field(c).remove_metadata() for c in names])


def read_parquet(path, columns: list[str] | None = None) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` into ``read_block_count()`` blocks whose
    schemas carry no metadata.  pandas-written files carry pandas metadata,
    and Ray cannot hash a schema that has any: it logs "Failed to hash the
    schemas" each time it unifies such blocks."""
    return ray.data.read_parquet(
        path, columns=columns, schema=_read_schema(path, columns), override_num_blocks=read_block_count()
    )


def parquet_column_range(path: str, column: str):
    """(min, max) of a column across a parquet file/directory from row-group
    STATISTICS only — reads footers, never data pages, so driver cost is
    O(#row-groups) regardless of row count (the 10^12-row target would
    otherwise ship ~8 TB of int64 to the driver for a full-column scan).

    Returns None when any row group lacks stats for the column (caller falls
    back to a distributed min/max aggregate)."""
    lo = hi = None
    for f in _parquet_files(path):
        md = pq.ParquetFile(f).metadata
        try:
            ci = md.schema.to_arrow_schema().get_field_index(column)
        except KeyError:
            return None
        if ci < 0:
            return None
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(ci).statistics
            if st is None or not st.has_min_max:
                return None
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        return None
    return lo, hi


def read_table(path: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Columnar scan with projection pushdown — only needed columns leave
    storage (pass filters via Query.wheres; row-group/fragment pruning is
    handled by the reader)."""
    if _is_local_file(path):
        from .local import read_local

        ds = read_local(path)
        return ds.select_columns(columns) if columns else ds
    if _is_lance(path):
        if _lance is None:
            raise ImportError(
                f"{path} is a Lance dataset but the `lance` package is not "
                "installed; install pylance or convert the table to parquet"
            )
        return ray.data.read_lance(path, columns=columns)
    return read_parquet(path, columns)


def write_table(
    ds,
    path: str,
    partition_cols: list[str] | None = None,
    sort_cols: list[str] | None = None,
    target_rows_per_file: int | None = None,
    max_files: int = 2000,
):
    """Partitioned table write with the reference's output conventions
    re-expressed for Ray Data (TableUtils.scala:554-599,686-795):

      * ``partition_cols`` -> hive-style partition directories;
      * ``sort_cols`` -> sort WITHIN each output block (a vectorized
        per-batch Arrow sort, the sortWithinPartitions analogue — no global
        shuffle);
      * ``target_rows_per_file`` -> repartition to ceil(rows/target) output
        files capped at ``max_files`` (the reference's ~1e8 row-col-units
        per file / <=2000 files-per-partition heuristics,
        TableUtils.scala:738-766).  Sizing needs a row count, which
        executes the upstream pipeline once — pass None to skip sizing and
        stream blocks straight to files.

    Writes Lance when the path ends in ``.lance`` and the wheel is present,
    else parquet."""
    import math

    import pyarrow.compute as _pc  # noqa: F401  (sort_by lives on Table)

    if target_rows_per_file:
        n = ds.count()
        files = min(max_files, max(1, math.ceil(n / target_rows_per_file)))
        ds = ds.repartition(files)
    if sort_cols:
        keys = [(c, "ascending") for c in sort_cols]

        def sort_block(batch):
            return batch.sort_by(keys)

        ds = ds.map_batches(sort_block, batch_format="pyarrow", batch_size=None)
    if path.rstrip("/").endswith(".lance"):
        if _lance is None:
            raise ImportError(
                f"{path} requests a Lance dataset but the `lance` wheel is "
                "not installed; use a parquet path or install pylance"
            )
        ds.write_lance(path)
    elif partition_cols:
        ds.write_parquet(path, partition_cols=list(partition_cols))
    else:
        ds.write_parquet(path)
    return path


def scan_source(source, extra_columns: list[str] | None = None) -> "ray.data.Dataset":
    """Scan one source with its Query applied; output contains the Query's
    select aliases + ``ts`` (epoch millis) when time_column is set."""
    if isinstance(source, EntitySource):
        path, query = source.snapshot_table, source.query
    else:
        path, query = source.table, source.query
    schema = table_schema(path)
    cumulative_filter = None
    if getattr(source, "is_cumulative", False) and "ds" in schema.names:
        # cumulative event tables: the latest ds partition carries the full
        # history — scan only it (reference renderDataSourceQuery handling of
        # isCumulative, GroupBy.scala:639-660)
        import pyarrow.dataset as pads

        latest = pads.dataset(path, format="parquet").to_table(columns=["ds"])
        max_ds = max(latest["ds"].to_pylist())
        cumulative_filter = f"ds = '{max_ds}'"
        query = Query(
            selects=query.selects,
            wheres=(query.wheres or []) + [cumulative_filter],
            time_column=query.time_column,
            start_partition=query.start_partition,
            end_partition=query.end_partition,
            setups=query.setups,
        )
    if query.selects is None and query.time_column is None and not query.wheres:
        return read_table(path, extra_columns or None)
    exprs = list((query.selects or {}).values()) + list(query.wheres or [])
    if query.time_column:
        exprs.append(query.time_column)
    cols = referenced_columns(exprs, schema.names)
    if query.selects is None:
        cols = schema.names  # SELECT * still needs everything
    # apply_query declares the SqlBatch output's schema: no probe of it
    return apply_query(read_table(path, cols or None), query)


def union_sources(datasets: list["ray.data.Dataset"]) -> "ray.data.Dataset":
    """Union multiple scanned sources aligned by column name; the union
    declares the first source's schema."""
    if len(datasets) == 1:
        return datasets[0]
    from ..stages.shuffle import _arrow_schema, declare_schema

    base = datasets[0]
    schema = _arrow_schema(base)
    out = base.union(*(d.select_columns(schema.names) for d in datasets[1:]))
    return declare_schema(out, schema)
