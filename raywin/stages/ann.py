"""Approximate/exact nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — the query matrix is broadcast once with
``ray.put`` and every batch does one numpy matmul against it (never a shuffle
of the corpus).  Scale paths: LSH-bucketed variant (random hyperplane signs)
and IVF variant (k-means coarse quantizer, nprobe nearest cells) — both prune
each batch to candidate rows before the matmul; the corpus never shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .shuffle import _arrow_schema, co_partition, declare_schema, sort_by_key


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def vecs_to_numpy(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Arrow list<float>/fixed_size_list<float> column -> (n, d) float64
    matrix without a Python-object detour: flatten the child values
    (zero-copy for non-null fixed-dim data) and reshape.  Falls back to
    ``to_pylist`` only for ragged rows."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if len(col) == 0:
        return np.empty((0, 0), dtype=np.float64)
    if pa.types.is_fixed_size_list(col.type):
        d = col.type.list_size
        flat = col.values.to_numpy(zero_copy_only=False)
        return np.asarray(flat, dtype=np.float64).reshape(len(col), d)
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        offs = col.offsets.to_numpy(zero_copy_only=False)
        widths = np.diff(offs)
        if col.null_count == 0 and len(widths) and (widths == widths[0]).all():
            d = int(widths[0])
            flat = col.values.to_numpy(zero_copy_only=False)
            # offsets may not start at 0 after slicing
            flat = flat[offs[0] : offs[0] + len(col) * d]
            return np.asarray(flat, dtype=np.float64).reshape(len(col), d)
    return np.asarray(col.to_pylist(), dtype=np.float64)


class _BatchTopK:
    """Per-batch local top-k candidates vs the broadcast query matrix.
    With ``keep``, only the rows that ``keep(normalized vecs,
    ray.get(keep_ref))`` marks are candidates.  The broadcasts are read on
    the first batch of each task."""

    def __init__(self, query_ref, query_ids, vec_col: str, id_col: str, k: int,
                 keep=None, keep_ref=None):
        self.query_ref = query_ref
        self.q = None
        self.keep = keep
        self.keep_ref = keep_ref
        self.keep_arg = None
        self.query_ids = np.asarray(query_ids)
        self.vec_col = vec_col
        self.id_col = id_col
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.q is None:
            import ray

            self.q = _normalize(np.asarray(ray.get(self.query_ref), dtype=np.float64))
            if self.keep_ref is not None:
                self.keep_arg = ray.get(self.keep_ref)
        if self.keep is not None and len(batch):
            vecs = _normalize(vecs_to_numpy(batch[self.vec_col]))
            batch = batch.filter(pa.array(self.keep(vecs, self.keep_arg)))
        k = min(self.k, len(batch))
        cand = np.zeros((len(self.q), k), dtype=np.int64)
        sim = np.zeros(cand.shape)
        if k:
            sims = self.q @ _normalize(vecs_to_numpy(batch[self.vec_col])).T  # (nq, nbatch)
            ids = np.broadcast_to(batch[self.id_col].to_numpy(zero_copy_only=False), sims.shape)
            # deterministic local top-k: sim desc, id asc — argpartition on
            # sim alone could drop the lower id of an equal-sim tie pair at
            # the cutoff, breaking the documented global tie order
            cand = np.lexsort((ids, -sims))[:, :k]
            sim = np.take_along_axis(sims, cand, axis=1)
        return pa.table(
            {
                "query_id": pa.array(np.repeat(self.query_ids, k), pa.int64()),
                self.id_col: batch[self.id_col].take(pa.array(cand.ravel())),
                "sim": pa.array(sim.ravel(), pa.float64()),
            }
        )


def _global_topk(local, ds, id_col: str, k: int):
    """The k best (sim desc, id asc) of every query's local candidates
    ``local`` (``_BatchTopK`` rows over ``ds``), ranked from 1: one
    co-partition exchange on query_id, one vectorized rank per call."""
    schema = pa.schema([pa.field("query_id", pa.int64()), _arrow_schema(ds).field(id_col),
                        pa.field("sim", pa.float64())])

    def global_topk(t: pa.Table) -> pa.Table:
        t, _, pos = sort_by_key(t, ["query_id"], [("sim", "descending"), (id_col, "ascending")])
        keep = pos < k
        return t.filter(keep).append_column("rank", pa.array(pos[keep] + 1, pa.int64()))

    return co_partition(declare_schema(local, schema), ["query_id"], global_topk)


def brute_force_topk(ds, query_vectors: np.ndarray, query_ids, vec_col: str, id_col: str, k: int):
    """Exact cosine top-k of every query vector against the corpus.

    Returns (query_id, id_col, sim, rank) — rank 1-based, ties broken by id.
    """
    import ray

    ref = ray.put(np.asarray(query_vectors, dtype=np.float64))
    local = ds.map_batches(
        _BatchTopK(ref, query_ids, vec_col, id_col, k), batch_format="pyarrow"
    )
    return _global_topk(local, ds, id_col, k)


class _LshPlanes:
    """Shared random hyperplanes for the LSH-bucketed variant."""

    def __init__(self, dim: int, n_planes: int, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_planes, dim))

    def signature(self, vecs: np.ndarray) -> np.ndarray:
        signs = (vecs @ self.planes.T) > 0
        return (signs.astype(np.uint64) << np.arange(signs.shape[1], dtype=np.uint64)).sum(axis=1)


def lsh_bucketed_topk(ds, query_vectors: np.ndarray, query_ids, vec_col: str, id_col: str,
                      k: int, n_planes: int = 8, multiprobe: int = 1):
    """Approximate cosine top-k: corpus rows are pruned per batch to those
    sharing an LSH hyperplane-sign bucket with at least one query.
    multiprobe=H also probes buckets within Hamming distance H of each
    query's signature (standard multi-probe LSH — recovers the recall lost
    to near-boundary sign flips without shrinking the plane count)."""
    import ray

    q = np.asarray(query_vectors, dtype=np.float64)
    planes = _LshPlanes(q.shape[1], n_planes)
    base_sigs = set(planes.signature(_normalize(q)).tolist())
    q_sigs = set(base_sigs)
    frontier = set(base_sigs)
    for _ in range(multiprobe):
        frontier = {s ^ (1 << b) for s in frontier for b in range(n_planes)}
        q_sigs |= frontier
    local = ds.map_batches(
        _BatchTopK(ray.put(q), query_ids, vec_col, id_col, k, _lsh_keep,
                   ray.put((planes, np.array(sorted(q_sigs), dtype=np.uint64)))),
        batch_format="pyarrow",
    )
    return _global_topk(local, ds, id_col, k)


def _lsh_keep(vecs: np.ndarray, planes_sigs) -> np.ndarray:
    """Rows whose LSH signature is one of the probed signatures."""
    planes, sigs = planes_sigs
    return np.isin(planes.signature(vecs), sigs)


def _ivf_keep(vecs: np.ndarray, cells) -> np.ndarray:
    """Rows whose nearest centroid is an allowed cell."""
    cents, allowed = cells
    return allowed[np.argmax(vecs @ cents.T, axis=1)]


def train_ivf_centroids(ds, vec_col: str, n_centroids: int = 16,
                        sample_size: int = 4096, iters: int = 10,
                        seed: int = 7) -> np.ndarray:
    """Coarse quantizer for the IVF variant: Lloyd's k-means (spherical —
    centroids renormalized each round, assignment by max dot product) over a
    BOUNDED sample.  ``ds.limit(sample_size)`` keeps driver memory constant
    at any corpus scale; at 100 TB the sample is still ``sample_size`` rows.
    Deterministic for a fixed seed."""
    sample = ds.limit(sample_size).to_pandas()
    vecs = _normalize(np.asarray(sample[vec_col].tolist(), dtype=np.float64))
    n_c = min(n_centroids, len(vecs))
    rng = np.random.default_rng(seed)
    cents = vecs[rng.choice(len(vecs), size=n_c, replace=False)]
    for _ in range(iters):
        assign = np.argmax(vecs @ cents.T, axis=1)
        for c in range(n_c):
            pts = vecs[assign == c]
            if len(pts):
                cents[c] = pts.mean(axis=0)
        cents = _normalize(cents)
    return cents


def ivf_bucketed_topk(ds, query_vectors: np.ndarray, query_ids, vec_col: str,
                      id_col: str, k: int, n_centroids: int = 16,
                      nprobe: int = 4, centroids: np.ndarray | None = None):
    """Approximate cosine top-k via an IVF (inverted-file) coarse quantizer:
    each corpus row is assigned per batch to its nearest k-means centroid and
    kept only if that cell is among some query's ``nprobe`` closest cells.
    Same scale shape as the LSH variant — centroids broadcast once with
    ``ray.put``, vectorized assign+filter+matmul per batch, corpus never
    shuffled or materialized.  Pass precomputed ``centroids`` to reuse a
    trained quantizer across calls."""
    import ray

    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    if centroids is None:
        centroids = train_ivf_centroids(ds, vec_col, n_centroids)
    # union of every query's nprobe nearest cells (allowed-cell mask)
    sims_qc = q @ centroids.T  # (nq, nc)
    npb = min(nprobe, centroids.shape[0])
    probe = np.argpartition(-sims_qc, npb - 1, axis=1)[:, :npb]
    allowed = np.zeros(centroids.shape[0], dtype=bool)
    allowed[np.unique(probe)] = True
    local = ds.map_batches(
        _BatchTopK(ray.put(np.asarray(query_vectors, dtype=np.float64)), query_ids, vec_col,
                   id_col, k, _ivf_keep, ray.put((centroids, allowed))),
        batch_format="pyarrow",
    )
    return _global_topk(local, ds, id_col, k)
