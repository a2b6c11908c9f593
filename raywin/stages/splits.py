"""Deterministic dataset splitting + stratified sampling for training data.

Both operators key on the engine's cross-engine-exact splitmix64
(aggregator/sketches.py for the vectorized numpy side,
functions/texthash.py ``sql_splitmix64_ctes`` for the DuckDB oracle side —
the same primitive that already pins the minhash/simhash stages).

A row's split assignment is a pure function of its id — stable across
engines, runs, cluster sizes, and input partitioning, which is the property
a train/val/test split must have: re-running a 100 TB split after appending
rows never moves an existing row between splits, so downstream epochs /
caches stay valid.

``hash_split`` is embarrassingly parallel (one map_batches, no shuffle).
``stratified_sample`` takes the n lowest-hash rows per stratum: a per-block
partial top-n prune (at most n rows per stratum survive each block) feeds
one tiny ``co_partition`` exchange on the stratum — the corpus itself never shuffles,
so the exchange moves at most ``n × strata × n_blocks`` rows at any scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..aggregator.sketches import splitmix64
from .shuffle import _arrow_schema, co_partition, declare_schema, sort_by_key


def hash_ids(ids: np.ndarray) -> np.ndarray:
    """splitmix64 over an integer id column (int64 reinterpreted as uint64,
    matching the SQL side's mod-2^64 arithmetic for negative ids too)."""
    return splitmix64(np.asarray(ids).astype(np.uint64))


class _HashSplit:
    """map_batches fn: append split = train/val/test by hash bucket % 100."""

    def __init__(self, id_col: str, train_pct: int, val_pct: int):
        self.id_col = id_col
        self.train_pct = train_pct
        self.val_pct = val_pct

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        bucket = (hash_ids(ids) % np.uint64(100)).astype(np.int64)
        split = np.full(len(bucket), "test", dtype=object)
        split[bucket < self.train_pct + self.val_pct] = "val"
        split[bucket < self.train_pct] = "train"
        return batch.append_column("split", pa.array(split, pa.string()))


def hash_split(ds, id_col: str, train_pct: int = 80, val_pct: int = 10):
    """Append a deterministic ``split`` column (train/val/test)."""
    return ds.map_batches(
        _HashSplit(id_col, train_pct, val_pct), batch_format="pyarrow"
    )


def _lowest_n(t: pa.Table, stratum_col: str, id_col: str, n: int):
    """The rows of ``t`` among the n lowest (__h, id) of their stratum, and
    their 0-based rank in it; a null stratum is a stratum of its own."""
    t, _, pos = sort_by_key(t, [stratum_col], [("__h", "ascending"), (id_col, "ascending")])
    keep = pos < n
    return t.filter(keep), pos[keep]


class _StratumPartialTopN:
    """Per-block prune: keep the n lowest-(hash, id) rows per stratum, as
    (stratum, id, __h) rows."""

    def __init__(self, stratum_col: str, id_col: str, n: int):
        self.stratum_col = stratum_col
        self.id_col = id_col
        self.n = n

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        batch = batch.select([self.stratum_col, self.id_col]).append_column("__h", pa.array(hash_ids(ids)))
        return _lowest_n(batch, self.stratum_col, self.id_col, self.n)[0]


def stratified_sample(ds, stratum_col: str, id_col: str, n_per_stratum: int):
    """n lowest-hash rows per stratum: (stratum, id, rank).

    Deterministic "random" sample — the hash order is a fixed pseudo-random
    permutation of ids, so the sample is unbiased w.r.t. any id-correlated
    attribute yet identical on every run, engine, and partitioning."""
    src = _arrow_schema(ds)
    pruned = declare_schema(
        ds.map_batches(_StratumPartialTopN(stratum_col, id_col, n_per_stratum), batch_format="pyarrow"),
        pa.schema([src.field(stratum_col), src.field(id_col), pa.field("__h", pa.uint64())]),
    )

    def final(t: pa.Table) -> pa.Table:
        t, pos = _lowest_n(t, stratum_col, id_col, n_per_stratum)
        return t.select([stratum_col, id_col]).append_column("rank", pa.array(pos + 1, pa.int64()))

    return co_partition(pruned, [stratum_col], final)


def token_pack(ds, id_col: str, ntok_col: str, block: int,
               range_width: int = 1 << 20):
    """GPT-style sequence-packing offsets: documents are conceptually
    concatenated in id order and the stream is cut into fixed ``block``-token
    training blocks (documents may straddle block boundaries — the standard
    causal-LM packing rule); each document gets its global token offset and
    the first/last block it touches.

    Distributed EXCLUSIVE PREFIX SUM with the scale-safe two-level shape:
    pass 1 reduces per-batch partial token sums keyed by the contiguous id
    range ``id // range_width`` — the exchange and the driver merge are
    bounded by #ranges (ids/range_width, ~10^6 at 10^12 docs with the
    default width), never by rows; pass 2 broadcasts the per-range base
    offsets into one range-co-partitioned exchange where each range computes
    its internal cumsum vectorized.  All-integer math, so the result is
    bit-exact across engines, runs, and partitionings.

    Zero-token docs are dropped (they occupy no stream positions).  Returns
    (id, n_tok, start_tok, block_first, block_last)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        ntok = batch[ntok_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rng = ids // range_width
        uniq, inv = np.unique(rng, return_inverse=True)
        sums = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(sums, inv, ntok)
        return pa.table(
            {"rng": pa.array(uniq, pa.int64()), "tsum": pa.array(sums, pa.int64())}
        )

    per_range = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("rng")
        .aggregate(Sum("tsum", alias_name="tsum"))
        .to_pandas()  # bounded by #ranges, not rows
        .sort_values("rng")
    )
    totals = per_range["tsum"].to_numpy(dtype=np.int64)
    base = {
        int(r): int(b)
        for r, b in zip(
            per_range["rng"].to_numpy(),
            np.concatenate([[0], np.cumsum(totals[:-1])]),
        )
    }

    def add_rng(b: pa.Table) -> pa.Table:
        ids = pc.cast(b[id_col], pa.int64())
        return pa.table({id_col: ids, ntok_col: pc.cast(b[ntok_col], pa.int64()),
                         "rng": pa.array(ids.to_numpy(zero_copy_only=False) // range_width)})

    def pack(t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, ["rng"], [(id_col, "ascending")])
        ntok = t[ntok_col].to_numpy(zero_copy_only=False)
        excl = np.cumsum(ntok) - ntok  # exclusive prefix sum over the call
        first = np.asarray([base[r] for r in t["rng"].to_numpy()[starts].tolist()], dtype=np.int64)
        start = excl + np.repeat(first - excl[starts], np.diff(np.append(starts, len(t))))
        keep = ntok > 0
        return pa.table(
            {
                id_col: t[id_col].filter(keep),
                "n_tok": ntok[keep],
                "start_tok": start[keep],
                "block_first": start[keep] // block,
                "block_last": (start[keep] + ntok[keep] - 1) // block,
            }
        )

    rows = ds.map_batches(add_rng, batch_format="pyarrow")
    schema = pa.schema([(id_col, pa.int64()), (ntok_col, pa.int64()), ("rng", pa.int64())])
    return co_partition(declare_schema(rows, schema), ["rng"], pack)
