"""Join chaining + label joins.

* JoinSource (reference api.thrift:144-147, GroupBy.scala:406-457
  replaceJoinSource): the OUTPUT of one Join feeds another GroupBy as its
  event source — offline, the parent join is materialized first and the
  child GroupBy scans it.
* LabelJoin (reference spark/.../LabelJoin.scala:35-291): attach label
  values computed at a LATER time (label_ds / ts + offset) to feature rows,
  producing the training table; labels must never leak into features (they
  join on a separate, later timestamp).
"""

from __future__ import annotations

import pyarrow as pa

from ..api import GroupBy, Join, JoinSource
from ..stages.query import apply_query
from ..stages.shuffle import _arrow_schema, declare_schema, known_schema
from .group_by import features_for_queries
from .join import _renamed, backfill_join


def resolve_join_source(source: JoinSource):
    """Materialize the parent join and apply the child Query — the
    replaceJoinSource step.  Returns a Dataset usable as right_ds."""
    parent = backfill_join(source.join)
    return apply_query(parent, source.query)


def chained_features(group_by: GroupBy, left_ds, **kwargs):
    """features_for_queries for a GroupBy whose source is a JoinSource."""
    src = group_by.sources[0]
    assert isinstance(src, JoinSource), "chained_features requires a JoinSource"
    right = resolve_join_source(src).materialize()
    return features_for_queries(
        group_by, left_ds, right_ds=right, **kwargs
    )


def label_join(
    feature_ds,
    label_group_by: GroupBy,
    label_offset_ms: int,
    key_cols: list[str],
):
    """Attach labels observed `label_offset_ms` AFTER each feature row's ts.

    feature_ds: output of a join/groupby backfill with (key_cols..., ts).
    The label value for a row at ts is the label GroupBy evaluated at
    ts + label_offset_ms (e.g. "did the user convert within 7 days" =
    count of conversion events in a 7d window ending at ts+7d).
    Output columns: features + label columns prefixed ``label_``.
    """
    import numpy as np

    def shift(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        batch = batch.append_column("__orig_ts", batch["ts"])
        return batch.set_column(
            batch.column_names.index("ts"), "ts", pa.array(ts + label_offset_ms)
        )

    f_schema = _arrow_schema(feature_ds)
    q_fields = [f_schema.field(c) for c in key_cols + ["ts"]]
    shifted = declare_schema(
        feature_ds.select_columns(key_cols + ["ts"]).map_batches(shift, batch_format="pyarrow"),
        pa.schema(q_fields + [f_schema.field("ts").with_name("__orig_ts")]),
    )
    feats = features_for_queries(label_group_by, shifted, dedupe_queries=False)

    def unshift(batch: pa.Table) -> pa.Table:
        idx = batch.column_names.index("ts")
        batch = batch.set_column(idx, "ts", batch["__orig_ts"])
        return batch.drop_columns(["__orig_ts"])

    rename = {
        c: f"label_{c}"
        for c in label_group_by.output_columns()
    }
    unshifted = feats.map_batches(unshift, batch_format="pyarrow")
    known = known_schema(feats)
    if known is not None:
        declare_schema(unshifted, known.remove(known.get_field_index("__orig_ts")))
    labels = _renamed(unshifted, rename)
    from ..functions.relational import bucketed_left_join

    return bucketed_left_join(feature_ds, labels, key_cols + ["ts"], how="left")
