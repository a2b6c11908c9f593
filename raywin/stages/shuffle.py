"""Partitioning helpers: deterministic key hashing + hot-key salting.

Every key exchange goes through ``co_partition``: it tags rows with a 64-bit
hash of their keys (plus an optional hot-key time chunk), sorts on it and
calls ``fn`` once per sort output block, mirroring the reference's
repartition-by-key pre-agg (spark/.../GroupBy.scala:365-380,
FastHashing.scala:29-130 xxHash keys).  We use pandas' stable vectorized
hash (fixed key, process-independent) so the same row gets the same hash
on every node and every retry.

Skew: a hot entity can be salted into ``n_salt`` sub-buckets for the partial
(IR) aggregation stage — IRs merge across salts for free because every op's
merge is commutative+associative (BaseAggregator.scala:25-27).  The final
as-of merge must see all of an entity's rows, so salting applies only to
partial-aggregation stages; time-bucketing bounds per-task data for the rest
(reference's own answer, docs/source/window_tiling.md:381-390).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..aggregator.npfast import concat_ranges

HASH_COL = "__key_hash"
SIDE_COL = "__side"

_NULL_HASH = np.uint64(0x5BD1E9955BD1E995)


def _column_hash(col) -> np.ndarray:
    """uint64 hash of one key column.  An Arrow column hashes by its declared
    type — every integer width and bool as int64, floats as float64, a null
    as _NULL_HASH — because ``to_numpy`` turns an int column holding a null
    into float64 and a bool one into objects, whose hashes differ from the
    same keys' in a null-free batch."""
    nulls = None
    if isinstance(col, (pa.Array, pa.ChunkedArray)):
        t = col.type
        if col.null_count:
            nulls = col.is_null().to_numpy(zero_copy_only=False)
        if pa.types.is_integer(t) or pa.types.is_boolean(t):
            col = pc.cast(col, pa.int64(), safe=False).fill_null(0)
        elif pa.types.is_floating(t):
            col = pc.cast(col, pa.float64())
        col = col.to_numpy(zero_copy_only=False)
    h = pd.util.hash_array(np.asarray(col), categorize=False).astype(np.uint64)
    if nulls is not None:
        h[nulls] = _NULL_HASH
    return h


def stable_hash(columns: list) -> np.ndarray:
    """Deterministic uint64 hash of one or more key columns (Arrow or numpy)."""
    acc = None
    for col in columns:
        h = _column_hash(col)
        if acc is None:
            acc = h
        else:  # boost-style hash combine
            acc = acc ^ (h + np.uint64(0x9E3779B97F4A7C15) + (acc << np.uint64(6)) + (acc >> np.uint64(2)))
    return acc


CHUNK_COL = "__chunk"


class AddKeyHash:
    """map_batches fn adding HASH_COL = hash(keys) as int64, the exchange's
    sort key.

    When a CHUNK_COL is present (hot-key time chunking), rows with chunk >= 0
    hash by (keys, chunk) so a hot entity's chunks land on different
    partitions (the time-bucket skew answer,
    reference docs/source/window_tiling.md:381-390)."""

    def __init__(self, key_cols: list[str]):
        self.key_cols = key_cols

    def __call__(self, batch: pa.Table) -> pa.Table:
        h = stable_hash([batch[c] for c in self.key_cols])
        if CHUNK_COL in batch.column_names:
            chunk = batch[CHUNK_COL].to_numpy(zero_copy_only=False)
            hot = chunk >= 0
            with np.errstate(over="ignore"):
                h = np.where(
                    hot, h * np.uint64(0x9E3779B97F4A7C15) + chunk.astype(np.uint64), h
                )
        return batch.append_column(HASH_COL, pa.array(h.view(np.int64)))


class HotChunkTag:
    """Tag LEFT (query) rows of hot entities with their time chunk; cold rows
    get chunk -1.  The hot-key set is small (heavy hitters only) and ships
    inline with the UDF."""

    def __init__(self, key_col: str, hot_keys, chunk_ms: int, max_chunk: int | None = None):
        self.key_col = key_col
        self.hot_arr = np.asarray(sorted(hot_keys), dtype=object)
        self.chunk_ms = chunk_ms
        self.max_chunk = max_chunk

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        is_hot = np.isin(keys, self.hot_arr)
        chunk = np.where(is_hot, ts // self.chunk_ms, -1).astype(np.int64)
        if self.max_chunk is not None:
            # late queries share the last chunk's bucket — replication caps at
            # max_chunk, so an uncapped chunk id would see no events at all
            chunk = np.minimum(chunk, self.max_chunk)
        return batch.append_column(CHUNK_COL, pa.array(chunk))


class HotChunkReplicate:
    """Replicate RIGHT (event) rows of hot entities into every time chunk
    whose queries can see them: chunks from floor(ts/S) through
    floor((ts + lookback)/S) — lookback = max bounded window + tail hop, or
    every later chunk when an unbounded window is present."""

    def __init__(self, key_col: str, hot_keys, chunk_ms: int, lookback_ms: int,
                 max_chunk: int, unbounded: bool):
        self.key_col = key_col
        self.hot_arr = np.asarray(sorted(hot_keys), dtype=object)
        self.chunk_ms = chunk_ms
        self.lookback_ms = lookback_ms
        self.max_chunk = max_chunk
        self.unbounded = unbounded

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key_col].to_numpy(zero_copy_only=False)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        is_hot = np.isin(keys, self.hot_arr)
        cold = batch.filter(pa.array(~is_hot)).append_column(
            CHUNK_COL, pa.array(np.full(int((~is_hot).sum()), -1, dtype=np.int64))
        )
        hot_tbl = batch.filter(pa.array(is_hot))
        if len(hot_tbl) == 0:
            return cold
        hts = hot_tbl["ts"].to_numpy(zero_copy_only=False)
        first = hts // self.chunk_ms
        if self.unbounded:
            last = np.full_like(first, self.max_chunk)
        else:
            last = np.minimum((hts + self.lookback_ms) // self.chunk_ms, self.max_chunk)
        counts = (last - first + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(hot_tbl)), counts)
        offsets = concat_ranges(first, counts)
        rep = hot_tbl.take(pa.array(idx)).append_column(
            CHUNK_COL, pa.array(offsets.astype(np.int64))
        )
        return pa.concat_tables([cold, rep], promote_options="default")


class HotKeyConfig:
    """Heavy-hitter handling config: which keys are hot, the time-chunk span,
    and the max chunk id (from the data's ts range)."""

    def __init__(self, keys, chunk_ms: int, ts_max: int):
        self.keys = set(keys)
        self.chunk_ms = int(chunk_ms)
        self.max_chunk = int(ts_max) // int(chunk_ms)

    def __bool__(self):
        return bool(self.keys)


def detect_hot_keys(
    ds,
    key_col: str,
    hot_fraction: float = 0.02,
    n_chunks: int = 8,
    candidate_cap: int = 1_000_000,
) -> HotKeyConfig:
    """Distributed heavy-hitter scan (the reference Analyzer's FrequentItems
    analogue, spark/.../Analyzer.scala:116-190), exact and shuffle-free.

    Pigeonhole: a key holding >= hot_fraction of ALL rows must hold
    >= hot_fraction of at least one block's rows (if it were below f in
    every block, its total would be below f of the total).  So pass A keeps
    only each block's LOCALLY-hot keys — at most 1/hot_fraction per block —
    plus one per-block summary row (count + ts range); the driver sees a
    bounded candidate union, never a per-key exchange.  Pass B broadcasts
    the candidates and exact-counts just them (at most |candidates| rows per
    block).  The earlier version shuffled a distinct-keys-per-block x blocks
    partial table through groupby(key) — measured 15.4 s of a 66 s job at
    6M rows, and unboundedly worse at corpus scale.  Exact results."""
    proj = ds.select_columns([key_col, "ts"])

    def _pass_a(batch: pa.Table) -> pa.Table:
        keys = batch[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        if len(batch) == 0:
            return pa.table(
                {
                    key_col: keys.slice(0, 0),
                    "cnt": pa.array([], pa.int64()),
                    "ts_lo": pa.array([], pa.int64()),
                    "ts_hi": pa.array([], pa.int64()),
                }
            )
        vc = pc.value_counts(keys)
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        local_hot = counts >= hot_fraction * len(batch)
        cand = vc.field("values").filter(pa.array(local_hot))
        n = len(cand)
        ts = batch["ts"].to_numpy(zero_copy_only=False)
        # candidate rows carry cnt = -1 (sentinel); ONE summary row per
        # block carries (null key, block rows, block ts range)
        return pa.table(
            {
                key_col: pa.concat_arrays([cand.combine_chunks() if isinstance(cand, pa.ChunkedArray) else cand,
                                           pa.nulls(1, keys.type)]),
                "cnt": pa.array(list(np.full(n, -1, dtype=np.int64)) + [len(batch)], pa.int64()),
                "ts_lo": pa.array([0] * n + [int(ts.min())], pa.int64()),
                "ts_hi": pa.array([0] * n + [int(ts.max())], pa.int64()),
            }
        )

    rows = proj.map_batches(_pass_a, batch_format="pyarrow").take_all()
    total = sum(r["cnt"] for r in rows if r[key_col] is None)
    if total == 0:
        return HotKeyConfig(set(), 1, 0)
    candidates = sorted({r[key_col] for r in rows if r[key_col] is not None})
    if not candidates:
        return HotKeyConfig(set(), 1, 0)
    if len(candidates) > candidate_cap:
        raise ValueError(
            f"hot-key candidate union {len(candidates)} exceeds "
            f"candidate_cap={candidate_cap}: raise hot_fraction or the cap"
        )
    ts_min = min(r["ts_lo"] for r in rows if r[key_col] is None)
    ts_max = max(r["ts_hi"] for r in rows if r[key_col] is None)

    cand_arr = np.asarray(candidates, dtype=object)

    def _pass_b(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        mask = np.isin(keys, cand_arr)
        vc = pc.value_counts(pa.array(keys[mask]))
        return pa.table(
            {
                key_col: vc.field("values"),
                "cnt": vc.field("counts").cast(pa.int64()),
            }
        )

    exact: dict = {}
    for r in proj.map_batches(_pass_b, batch_format="pyarrow").take_all():
        exact[r[key_col]] = exact.get(r[key_col], 0) + r["cnt"]
    thresh = hot_fraction * total
    hot = {k for k, c in exact.items() if c > thresh}
    if not hot:
        return HotKeyConfig(set(), 1, 0)
    chunk_ms = max(1, (ts_max - ts_min) // n_chunks + 1)
    return HotKeyConfig(hot, chunk_ms, ts_max + chunk_ms)


def sort_by_key(t: pa.Table, keys: list[str], order=()):
    """``t`` sorted by ``keys`` and then ``order`` (Arrow sort keys), the
    start row of each key's run and each row's 0-based position in its
    run: a co_partition fn's per-key rank in one vectorized pass, however
    many keys its call holds.  The sort is stable; a null key sorts last
    and is a key of its own, as in SQL ``GROUP BY``."""
    t = t.take(pc.sort_indices(t, [(k, "ascending") for k in keys] + list(order)))
    new = np.zeros(len(t), dtype=bool)
    new[:1] = True
    for k in keys:
        a, b = t[k].slice(1), t[k].slice(0, len(t) - 1)
        same = pc.or_(pc.fill_null(pc.equal(a, b), False), pc.and_(a.is_null(), b.is_null()))
        new[1:] |= ~same.to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(new)
    return t, starts, np.arange(len(t)) - starts[new.cumsum() - 1]


def pad_to_schema(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Project/pad a batch to a unified schema (null-fill missing columns) so
    heterogeneous sides can be unioned ahead of one co-partitioning shuffle."""
    cols = []
    n = len(batch)
    for field in schema:
        if field.name in batch.column_names:
            col = batch[field.name]
            if col.type != field.type:
                col = pc.cast(col, field.type)
            cols.append(col)
        else:
            cols.append(pa.nulls(n, field.type))
    return pa.Table.from_arrays(cols, schema=schema)


def declare_schema(ds, schema: pa.Schema):
    """Record ``schema`` as ``ds``'s schema in Ray's own plan and return
    ``ds``.  ``ds.schema()``, ``to_arrow_refs()`` and ``_arrow_schema`` then
    read it instead of executing a limit-1 copy of the plan, which for a
    pipeline with a sort or an aggregate is the whole pipeline again (an
    all-to-all cannot stop at one block).  Ray does not carry the cache to
    Datasets derived from ``ds``, so each declaration covers exactly one
    Dataset; declare only a schema the blocks really have."""
    ds._plan.cache_schema(schema)
    return ds


def known_schema(ds) -> pa.Schema | None:
    """Arrow schema of a Dataset when Ray knows it without executing
    anything: a declared schema (``declare_schema``), a parquet read or a
    materialized Dataset; else None."""
    sch = ds.schema(fetch_if_missing=False)
    return None if sch is None else _to_arrow(sch)


def _arrow_schema(ds) -> pa.Schema:
    """Arrow schema of a Dataset: ``known_schema``, else a limit-1 probe of
    its plan."""
    known = known_schema(ds)
    return known if known is not None else _to_arrow(ds.schema())


def _to_arrow(sch) -> pa.Schema:
    """A ``ray.data.Schema`` as Arrow.  Pandas-typed columns map through
    their numpy dtype; object columns become string."""
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for n, t in zip(sch.names, sch.types):
        if isinstance(t, pa.DataType):
            fields.append(pa.field(n, t))
        else:
            try:
                fields.append(pa.field(n, pa.from_numpy_dtype(t)))
            except (pa.ArrowNotImplementedError, TypeError):
                fields.append(pa.field(n, pa.string()))  # pandas object column
    return pa.schema(fields)


def side_schema(sides) -> pa.Schema:
    """The one schema co_partition pads every side to: each side's columns
    in first-seen order (a column must keep one type across sides), then
    SIDE_COL."""
    fields: dict[str, pa.Field] = {}
    for ds in sides:
        for f in _arrow_schema(ds):
            if f.name in fields and fields[f.name].type != f.type:
                raise TypeError(f"column {f.name} type mismatch: {fields[f.name].type} vs {f.type}")
            fields.setdefault(f.name, pa.field(f.name, f.type))
    fields[SIDE_COL] = pa.field(SIDE_COL, pa.int8())
    return pa.schema(list(fields.values()))


# rows per AddKeyHash batch ahead of the exchange: the sort's map phase pays
# a fixed per-block cost, and 1-2k-row blocks made it 8x slower than 32k-row
# blocks on the kernel exchange (rows there are narrow: keys, ts, inputs).
# The sort has one output partition per input block, so this also sizes the
# kernel calls.
_BUNDLE_ROWS = 32768


def _tag_side(side: int, schema: pa.Schema):
    def tag_side(batch: pa.Table) -> pa.Table:
        batch = batch.append_column(SIDE_COL, pa.array(np.full(len(batch), side, dtype=np.int8)))
        return pad_to_schema(batch, schema)

    return tag_side


def _per_partition(fn, schema: pa.Schema):
    """The map_batches fn around ``fn``: hand ``fn`` the sort's output block
    as an Arrow table without HASH_COL.

    Ray's sort reducer converts its blocks to the block type most of them
    have, and empty pandas blocks ride map_batches untouched, so a block
    can arrive as pandas.  That block is rebuilt once against ``schema``
    (pandas inference loses map, list and nullable-int types), so ``fn``
    always gets the declared Arrow types."""

    def run(block):
        if isinstance(block, pa.Table):
            return fn(block.drop_columns([HASH_COL]))
        return fn(pa.Table.from_pandas(block.drop(columns=[HASH_COL]), schema=schema, preserve_index=False))

    run.__name__ = getattr(fn, "__name__", type(fn).__name__)
    return run


def co_partition(sides, keys: list[str], fn):
    """The engine's one co-partition exchange: every row of every side with
    the same ``keys`` reaches the same ``fn`` call.

    ``sides`` is a Dataset or a list of them.  Several sides are padded to
    ``side_schema(sides)`` (SIDE_COL = the side's list index) and unioned;
    side schemas come from ``_arrow_schema``, so a lazy side without a
    ``declare_schema`` costs a probe (one side included: its schema types
    a block the sort hands back as pandas).  Rows are tagged with the
    64-bit hash of ``keys`` (hot chunks via CHUNK_COL, see AddKeyHash),
    sorted on it with one push-based sort shuffle, and ``fn`` runs once
    per sort output block: rows with one hash fall in one block, so a
    call holds whole keys, often several of them.  The number of calls
    follows the exchange's input blocks (``_BUNDLE_ROWS`` rows or more
    each), so no bucket count caps it.  ``fn`` gets each block as an Arrow
    table with the declared types and without HASH_COL, whatever block
    type the sort handed back.  The Ray operator is named after ``fn``."""
    if not isinstance(sides, (list, tuple)):
        sides = [sides]
    if len(sides) > 1:
        schema = side_schema(sides)
        tagged = [s.map_batches(_tag_side(i, schema), batch_format="pyarrow") for i, s in enumerate(sides)]
        ds = tagged[0].union(*tagged[1:])
    else:
        ds = sides[0]
        schema = _arrow_schema(ds)
    hashed = ds.map_batches(AddKeyHash(list(keys)), batch_format="pyarrow", batch_size=_BUNDLE_ROWS)
    # batch_format=None is Ray's "no conversion": run sees the sort's own
    # block, pandas or Arrow, whole (batch_size=None)
    return hashed.sort(HASH_COL).map_batches(_per_partition(fn, schema), batch_size=None, batch_format=None)
