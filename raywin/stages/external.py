"""External sources: registry + offline enrichment of Join backfills.

Reference: online/.../ExternalSourceRegistry.scala:30-120 (handler registry,
built-in contextual handler), api/.../Extensions.scala:708-748 (naming),
:1027-1056 (offline-capable externals converted to synthetic join parts),
spark/.../Join.scala padExternalFields:90-120 (null-padding the rest).

Offline semantics per ExternalPart, in priority order:

1. **contextual** — left key columns copied through as
   ``ext_contextual_{key}`` value columns (a pure vectorized projection).
2. **offline_group_by set** — the part becomes a synthetic JoinPart whose
   output prefix is the external part's full name, and rides the normal
   chained PITC kernel (one co-partition shuffle like any other part).
3. **deterministic handler registered** — the batch handler runs in a
   ``map_batches`` task stage: one handler fetch per batch over the mapped
   key columns.  This is the
   offline replay of the online fetch — only valid for handlers that are
   pure functions of their keys (the registry tracks that flag).
4. **otherwise** — value columns null-padded so downstream derivations
   still resolve (they are expected to be bootstrapped from logs).
"""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa

from ..api import ExternalPart
from .shuffle import declare_schema, known_schema

_DTYPES = {
    "long": pa.int64(),
    "int": pa.int64(),
    "double": pa.float64(),
    "float": pa.float64(),
    "string": pa.string(),
    "bool": pa.bool_(),
}


def field_type(dtype: str) -> pa.DataType:
    if dtype not in _DTYPES:
        raise ValueError(f"unknown external-source dtype {dtype!r}")
    return _DTYPES[dtype]


class ExternalSourceRegistry:
    """name -> batch handler.  A handler is a callable
    ``fn(keys: pa.Table) -> pa.Table`` returning one value row per key row,
    columns named like the source's value_schema (unprefixed).  ``pure=True``
    marks handlers that are deterministic functions of their keys — only
    those may be replayed during offline backfill."""

    def __init__(self):
        self._handlers: dict[str, tuple[Callable, bool]] = {}

    def add(self, name: str, handler: Callable, pure: bool = False) -> None:
        if name in self._handlers:
            raise ValueError(
                f"a handler named {name!r} already exists "
                f"(existing: {sorted(self._handlers)})"
            )
        self._handlers[name] = (handler, pure)

    def get(self, name: str) -> Optional[tuple[Callable, bool]]:
        return self._handlers.get(name)


REGISTRY = ExternalSourceRegistry()


class _HandlerFetch:
    """map_batches stage: offline replay of a pure external handler."""

    def __init__(self, handler: Callable, part_key_cols: list[str],
                 source_keys: list[str], value_cols: dict[str, tuple[str, pa.DataType]]):
        self.handler = handler
        self.part_key_cols = part_key_cols  # left column names, source order
        self.source_keys = source_keys
        self.value_cols = value_cols  # output col -> (handler field, type)

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = pa.table(
            {sk: batch[lc] for sk, lc in zip(self.source_keys, self.part_key_cols)}
        )
        vals = self.handler(keys)
        if len(vals) != len(batch):
            raise ValueError(
                f"external handler returned {len(vals)} rows for {len(batch)} keys"
            )
        for out_col, (field, typ) in self.value_cols.items():
            batch = batch.append_column(out_col, vals[field].cast(typ))
        return batch


def _appended(ds, mapped, fields: list[pa.Field]):
    """``mapped`` (``ds`` with ``fields`` appended) with its schema declared
    when ``ds``'s is known."""
    known = known_schema(ds)
    return mapped if known is None else declare_schema(mapped, pa.schema(list(known) + fields))


def enrich_external(out, join, out_names: list[str],
                    registry: ExternalSourceRegistry | None = None,
                    n_left: int | None = None):
    """Apply every online_external_part to the chained backfill output.
    Returns (ds, new_out_names).  Synthetic-join-part externals shuffle like
    normal parts; contextual/handler/null-pad externals are narrow
    map_batches stages."""
    registry = registry or REGISTRY
    parts = join.online_external_parts or []
    if not parts:
        return out, out_names

    for part in parts:
        src = part.source
        mapping = part.key_mapping or {}  # left col -> source key
        inv = {v: k for k, v in mapping.items()}  # source key -> left col
        left_keys = [inv.get(k, k) for k in src.key_schema]
        missing = [c for c in left_keys if c not in out_names]
        if src.is_contextual:
            # contextual: missing keys null-fill rather than raise
            # (Extensions.scala:719-722)
            cols = {
                f"{part.full_name}_{k}": (inv.get(k, k), field_type(dt))
                for k, dt in src.key_schema.items()
            }

            def ctx(batch: pa.Table, cols=cols) -> pa.Table:
                for out_col, (lc, typ) in cols.items():
                    if lc in batch.column_names:
                        batch = batch.append_column(out_col, batch[lc].cast(typ))
                    else:
                        batch = batch.append_column(
                            out_col, pa.nulls(len(batch), typ)
                        )
                return batch

            out = _appended(out, out.map_batches(ctx, batch_format="pyarrow"),
                            [pa.field(c, t) for c, (_, t) in cols.items()])
            out_names = out_names + list(cols)
            continue

        if missing:
            raise KeyError(
                f"external part {part.full_name}: left is missing key "
                f"columns {missing} (have {out_names})"
            )

        if src.offline_group_by is not None:
            # synthetic JoinPart with the external part's name as prefix
            # (Extensions.scala getExternalJoinParts:1034-1053)
            from ..pipelines.join import part_features_chained

            sjp = _ExternalJoinPart(
                group_by=src.offline_group_by,
                key_mapping=part.key_mapping,
                prefix=None,
            )
            sjp._ext_prefix = part.full_name + "_"
            out = part_features_chained(
                sjp, out, n_left=n_left
            )
            out_names = out_names + [
                f"{part.full_name}_{c}"
                for c in src.offline_group_by.output_columns()
            ]
            continue

        entry = registry.get(src.name)
        if entry is not None and entry[1]:  # pure handler: offline replay
            handler = entry[0]
            value_cols = {
                f"{part.full_name}_{f}": (f, field_type(dt))
                for f, dt in src.value_schema.items()
            }
            out = _appended(out, out.map_batches(
                _HandlerFetch(handler, left_keys, list(src.key_schema), value_cols),
                batch_format="pyarrow",
            ), [pa.field(c, t) for c, (_, t) in value_cols.items()])
            out_names = out_names + list(value_cols)
            continue

        # no offline path: null-pad the declared value schema
        pad = {
            f"{part.full_name}_{f}": field_type(dt)
            for f, dt in src.value_schema.items()
        }

        def null_pad(batch: pa.Table, pad=pad) -> pa.Table:
            for col, typ in pad.items():
                batch = batch.append_column(col, pa.nulls(len(batch), typ))
            return batch

        out = _appended(out, out.map_batches(null_pad, batch_format="pyarrow"),
                        [pa.field(c, t) for c, t in pad.items()])
        out_names = out_names + list(pad)
    return out, out_names


from ..api import JoinPart as _JoinPart


class _ExternalJoinPart(_JoinPart):
    """JoinPart whose output prefix is the external part's full name
    (reference ExternalJoinPart overriding fullPrefix)."""

    @property
    def full_prefix(self) -> str:  # type: ignore[override]
        return self._ext_prefix
