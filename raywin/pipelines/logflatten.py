"""Log flattener — decode served-feature logs into flat, typed tables.

Re-expresses the reference's LogFlattenerJob (spark/.../LogFlattenerJob.scala:
1-276): online serving writes one log row per fetch — (join name, schema
hash, JSON-encoded keys, JSON-encoded feature values, ts, ds) — and the
flattener turns the day's logs into a schema'd table used for bootstrap
parts and online/offline consistency checks.  Schema evolution is handled
the same way: each log row points at the schema version that encoded it
(schema_hash), the output schema is the union of every version's fields,
and rows null-fill fields their version lacks (LogFlattenerJob.scala:
150-214).

Ray-Data shape: the schema registry is tiny (one row per schema version) and
is read driver-side once and its schemas parse once there, in the stage's
constructor; the decode itself is a ``map_batches`` task stage, so every
batch only pays the per-row JSON decode.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..sources.io import read_table
from ..stages.shuffle import declare_schema

_DTYPES = {
    "long": pa.int64(),
    "int": pa.int64(),
    "double": pa.float64(),
    "float": pa.float64(),
    "string": pa.string(),
    "bool": pa.bool_(),
}

META_COLS = ("ts", "ds", "schema_hash")


def _parse_schema(schema_json: str) -> list[tuple[str, pa.DataType]]:
    spec = json.loads(schema_json)
    out = []
    for section in ("keys", "values"):
        for name, dtype in spec.get(section, []):
            if dtype not in _DTYPES:
                raise ValueError(f"log schema field {name}: unknown dtype {dtype}")
            out.append((name, _DTYPES[dtype]))
    return out


def union_log_schema(schema_rows: list[tuple[str, str]]) -> tuple[dict, pa.Schema]:
    """{schema_hash: field list} + the unioned flat output schema.
    Conflicting types for the same field across versions are an error
    (the reference refuses mixed encodings the same way)."""
    by_hash: dict[str, list] = {}
    fields: dict[str, pa.DataType] = {}
    for schema_hash, schema_json in schema_rows:
        parsed = _parse_schema(schema_json)
        by_hash[schema_hash] = parsed
        for name, typ in parsed:
            if name in fields and fields[name] != typ:
                raise TypeError(
                    f"log schema field {name}: {fields[name]} vs {typ} across versions"
                )
            fields.setdefault(name, typ)
    out_schema = pa.schema(
        [pa.field(n, t) for n, t in fields.items()]
        + [pa.field("ts", pa.int64()), pa.field("ds", pa.string()),
           pa.field("schema_hash", pa.string())]
    )
    return by_hash, out_schema


class FlattenLogs:
    """map_batches decode stage: JSON key/value blobs -> typed columns."""

    def __init__(self, schema_rows: list[tuple[str, str]]):
        self.by_hash, self.out_schema = union_log_schema(schema_rows)
        self.all_fields = [
            (f.name, f.type) for f in self.out_schema if f.name not in META_COLS
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = batch["schema_hash"].to_pylist()
        keys = batch["key_json"].to_pylist()
        vals = batch["value_json"].to_pylist()
        n = len(batch)
        cols: dict[str, list] = {name: [None] * n for name, _ in self.all_fields}
        for i in range(n):
            h = hashes[i]
            if h not in self.by_hash:
                continue  # unknown version: keep the row, null features
            row = json.loads(keys[i])
            row.update(json.loads(vals[i]))
            for name, _typ in self.by_hash[h]:
                cols[name][i] = row.get(name)
        arrays = [
            pa.array(cols[name], type=typ, from_pandas=True)
            for name, typ in self.all_fields
        ]
        arrays.append(batch["ts"].cast(pa.int64()))
        arrays.append(batch["ds"].cast(pa.string()))
        arrays.append(batch["schema_hash"].cast(pa.string()))
        return pa.Table.from_arrays(arrays, schema=self.out_schema)


def flatten_logs(log_table: str, schema_table: str, join_name: str | None = None):
    """Flatten a serving-log table into a typed feature table.

    log_table columns: join_name, schema_hash, key_json, value_json, ts, ds.
    schema_table columns: schema_hash, schema_json (the registry the online
    tier publishes; LogFlattenerJob reads the same from its metadata store).
    """
    import pyarrow.dataset as pads

    reg = pads.dataset(schema_table, format="parquet").to_table(
        columns=["schema_hash", "schema_json"]
    )
    schema_rows = list(zip(reg["schema_hash"].to_pylist(), reg["schema_json"].to_pylist()))
    ds = read_table(log_table)
    if join_name is not None:
        ds = ds.filter(expr=f"join_name == '{join_name}'")
    stage = FlattenLogs(schema_rows)
    return declare_schema(ds.map_batches(stage, batch_format="pyarrow"), stage.out_schema)
