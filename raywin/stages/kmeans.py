"""Distributed Lloyd's k-means over an embedding column.

Unlike the bounded-sample quantizer trainer in :mod:`raywin.stages.ann`
(``train_ivf_centroids``, which caps driver memory by fitting on a
``limit(sample_size)`` slice), this is the full-corpus iterative algorithm:
each Lloyd iteration is ONE streaming pass — centroids broadcast once with
``ray.put``, every batch computes assignments + per-cluster partial sums
vectorized (the classic combiner), and the partials (k rows per block,
independent of row count) reduce through a tiny ``co_partition`` on the
cluster whose exchange moves at most ``k × n_blocks`` rows.  The corpus itself is never
shuffled or materialized, so the per-iteration cost at 100 TB is one scan
plus a k-row reduction.

Semantics are pinned cross-engine (the DuckDB oracle unrolls the same
iterations in SQL):

- init      = the embeddings of the ``k`` rows with ``id_col < k`` (cluster
              id := that row's id), deterministic and SQL-reproducible;
- assign    = argmin squared-L2 distance, exact ties broken by lowest
              cluster id (centroids are kept sorted by id, ``argmin`` takes
              the first minimum; SQL orders by ``(distance, cid)``);
- update    = elementwise mean over members; a cluster that loses every
              member is DROPPED for the remaining iterations (matching the
              SQL ``GROUP BY``, which simply has no row for it).

The reference has no clustering operator — this extends the engine for
training-data pipelines (corpus bucketing / diversity sampling), same role
as the IVF coarse quantizer but exact over the full corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .ann import vecs_to_numpy
from .shuffle import co_partition, declare_schema


def _init_centroids(ds, vec_col: str, id_col: str, k: int):
    """Deterministic seed: rows with id < k (ids are the cluster ids)."""
    rows = ds.filter(expr=f"{id_col} < {k}").take_all()
    if not rows:
        raise ValueError(f"k-means init found no rows with {id_col} < {k}")
    rows.sort(key=lambda r: r[id_col])
    cids = np.asarray([r[id_col] for r in rows], dtype=np.int64)
    cents = np.asarray([r[vec_col] for r in rows], dtype=np.float64)
    return cids, cents


def _assign(vecs: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Row-wise argmin squared-L2; first minimum wins (lowest cluster id,
    since centroids are sorted by id)."""
    # (n, k): explicit differences, k is small — memory n*k*d floats per batch
    d2 = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d2, axis=1)


def _partial_sums(cent_ref, vec_col: str):
    """map_batches combiner factory: per-cluster (count, sum-vector)
    partials.  Output is at most k rows per batch regardless of batch size —
    the all-to-all that follows moves k × n_blocks tiny rows, never the
    corpus.  A stateless task fn (not an actor pool): centroids are k × d
    floats fetched zero-copy from the local object store per task, and warm
    task workers avoid the per-iteration actor-pool startup an iterative
    algorithm would otherwise pay k_iters times."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        vecs = vecs_to_numpy(batch[vec_col])
        if len(vecs) == 0:
            return _PARTIALS.empty_table()
        return _cluster_sums(_assign(vecs, ray.get(cent_ref)), 1, vecs)

    return fn


_PARTIALS = pa.schema([("cidx", pa.int64()), ("cnt", pa.int64()), ("sums", pa.list_(pa.float64()))])


def _cluster_sums(cidx: np.ndarray, cnt, vecs: np.ndarray) -> pa.Table:
    """One (cidx, cnt, sums) row per cluster: its rows' counts and vectors
    added, in row order."""
    ids, inv = np.unique(cidx, return_inverse=True)
    n = np.zeros(len(ids), dtype=np.int64)
    np.add.at(n, inv, cnt)
    sums = np.zeros((len(ids), vecs.shape[1]))
    np.add.at(sums, inv, vecs)
    return pa.table({"cidx": ids, "cnt": n, "sums": pa.array(list(sums), pa.list_(pa.float64()))},
                    schema=_PARTIALS)


def _combine(t: pa.Table) -> pa.Table:
    """co_partition fn: the partials of every cluster in the call added."""
    return _cluster_sums(t["cidx"].to_numpy(), t["cnt"].to_numpy(), vecs_to_numpy(t["sums"]))


def kmeans_fit(ds, vec_col: str, id_col: str, k: int, iters: int):
    """Run ``iters`` Lloyd updates; returns (cluster_ids, centroids) with
    centroids sorted by cluster id (empty clusters dropped)."""
    import ray

    cids, cents = _init_centroids(ds, vec_col, id_col, k)
    proj = ds.select_columns([vec_col])
    for _ in range(iters):
        partials = declare_schema(
            proj.map_batches(_partial_sums(ray.put(cents), vec_col), batch_format="pyarrow"), _PARTIALS
        )
        rows = co_partition(partials, ["cidx"], _combine).to_pandas().sort_values("cidx")
        cids = cids[rows["cidx"].to_numpy()]
        cents = np.stack(rows["sums"].to_numpy()) / rows["cnt"].to_numpy()[:, None]
    return cids, cents


def _assign_stage(bundle_ref, vec_col: str, id_col: str):
    """Final labeling pass factory: (id, cluster_id) per row."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        cids, cents = ray.get(bundle_ref)
        vecs = vecs_to_numpy(batch[vec_col])
        a = _assign(vecs, cents) if len(vecs) else np.empty(0, dtype=np.int64)
        return pa.table(
            {
                id_col: batch[id_col],
                "cluster_id": pa.array(cids[a], pa.int64()),
            }
        )

    return fn


def kmeans_cluster(ds, vec_col: str, id_col: str, k: int = 4, iters: int = 3):
    """Fit + label: returns a Dataset of (id_col, cluster_id)."""
    import ray

    cids, cents = kmeans_fit(ds, vec_col, id_col, k, iters)
    bundle_ref = ray.put((cids, cents))
    return ds.select_columns([id_col, vec_col]).map_batches(
        _assign_stage(bundle_ref, vec_col, id_col), batch_format="pyarrow"
    )


def kmeans_oracle_sql(table: str, vec_col: str, id_col: str, k: int, iters: int, dim: int) -> str:
    """DuckDB SQL unrolling the same Lloyd iterations (assignment by
    ``list_distance`` — monotonic in squared L2 — ties broken by cluster id;
    centroid update = per-dimension AVG; empty clusters vanish from the
    GROUP BY exactly as the engine drops them)."""
    parts = [
        f"WITH dims AS (SELECT unnest(range(1, {dim + 1})) AS d),",
        f"e AS (SELECT {id_col}, CAST({vec_col} AS DOUBLE[]) AS v FROM {table}),",
        f"c0 AS (SELECT {id_col} AS cid, v AS cv FROM e WHERE {id_col} < {k}),",
    ]
    for i in range(iters):
        parts.append(
            f"a{i} AS (SELECT e.{id_col}, e.v, c{i}.cid,"
            f" row_number() OVER (PARTITION BY e.{id_col}"
            f" ORDER BY list_distance(e.v, c{i}.cv), c{i}.cid) AS rn"
            f" FROM e CROSS JOIN c{i}),"
        )
        parts.append(
            f"c{i + 1} AS (SELECT cid, list(m ORDER BY d) AS cv FROM ("
            f"SELECT cid, d, avg(v[d]) AS m FROM a{i}, dims"
            f" WHERE rn = 1 GROUP BY cid, d) GROUP BY cid),"
        )
    parts.append(
        f"fin AS (SELECT e.{id_col}, c{iters}.cid,"
        f" row_number() OVER (PARTITION BY e.{id_col}"
        f" ORDER BY list_distance(e.v, c{iters}.cv), c{iters}.cid) AS rn"
        f" FROM e CROSS JOIN c{iters})"
    )
    parts.append(f"SELECT {id_col}, cid AS cluster_id FROM fin WHERE rn = 1")
    return "\n".join(parts)
