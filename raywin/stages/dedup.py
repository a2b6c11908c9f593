"""Deduplication operators for large-scale corpus processing.

All stages are Dataset-native: vectorized per-batch signature computation,
then ONE groupby shuffle over compact signature rows (never the payloads).

  * exact_dedup       — content-hash partition + per-group first
  * dedup_paragraphs  — corpus-wide exact paragraph dedup (FineWeb-style)
  * minhash_lsh       — shingle -> minhash -> band buckets -> full
                        connected components (local numpy or distributed
                        min-label fixpoint rounds)
  * simhash           — 64-bit simhash fingerprint column
  * ngram_jaccard     — verify candidate pairs with exact n-gram Jaccard
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..aggregator.sketches import splitmix64
from ..stages.shuffle import SIDE_COL, _arrow_schema, co_partition, declare_schema, sort_by_key, stable_hash

def minhash_signatures_batch(
    texts, width: int, num_perm: int
) -> np.ndarray:
    """(n_docs, num_perm) minhash signatures, fully vectorized: ONE
    concatenated codepoint array, width-w window Horner hashes, then per
    permutation k a seed-mix splitmix64(h ^ seed_k) and a per-doc
    minimum.reduceat — no per-document Python loop, and SQL-reproducible
    (functions/texthash.py)."""
    from ..aggregator.sketches import splitmix64
    from ..functions.texthash import (
        codepoints_concat,
        minhash_seeds,
        normalize_ws,
        window_horner,
    )

    norm = normalize_ws(texts)
    cp, off = codepoints_concat(norm)
    sh, sh_off = window_horner(cp, off, width)
    seeds = minhash_seeds(num_perm)
    n = len(norm)
    sig = np.empty((n, num_perm), dtype=np.uint64)
    starts = sh_off[:-1]
    for k in range(num_perm):  # bounded by num_perm, not by docs
        mixed = splitmix64(sh ^ seeds[k])
        sig[:, k] = np.minimum.reduceat(mixed, starts)
    return sig


def exact_dedup(ds, cols: list[str], order_col: str):
    """Keep the row with the smallest order_col per distinct `cols` content:
    content-hash column -> one hash-bucket shuffle -> vectorized min-per-group
    per partition."""

    def add_hash(batch: pa.Table) -> pa.Table:
        h = stable_hash([batch[c] for c in cols])
        return batch.append_column("__h", pa.array(h.astype(np.int64)))

    hashed = declare_schema(
        ds.map_batches(add_hash, batch_format="pyarrow"), _arrow_schema(ds).append(pa.field("__h", pa.int64()))
    )
    from ..functions.relational import min_by_group

    out = min_by_group(hashed, ["__h"], order_col)
    return out.drop_columns(["__h"])


class MinHashBands:
    """map_batches: text -> (doc_id, band_id, band_hash) exploded rows."""

    def __init__(self, text_col: str, id_col: str, num_perm=64, bands=16, shingle=5):
        assert num_perm % bands == 0
        self.text_col = text_col
        self.id_col = id_col
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.shingle = shingle

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.texthash import HORNER_B, HORNER_INIT

        texts = batch[self.text_col].to_pylist()
        ids = batch[self.id_col].to_numpy(zero_copy_only=False)
        n = len(texts)
        sig = minhash_signatures_batch(texts, self.shingle, self.num_perm)
        # band key = Horner hash of the band's minima TUPLE (a sum of minima
        # would merge unrelated buckets on permutation-sum collisions)
        bands3 = sig.reshape(n, self.bands, self.rows_per_band)
        with np.errstate(over="ignore"):
            bh = np.full((n, self.bands), np.uint64(HORNER_INIT), dtype=np.uint64)
            for t in range(self.rows_per_band):
                bh = bh * np.uint64(HORNER_B) + bands3[:, :, t]
            bh = splitmix64(bh)
        band_ids = np.tile(np.arange(self.bands, dtype=np.int32), n)
        return pa.table(
            {
                self.id_col: pa.array(np.repeat(ids, self.bands)),
                "band": pa.array(band_ids, type=pa.int32()),
                "band_hash": pa.array(bh.reshape(-1).view(np.int64), type=pa.int64()),
            }
        )


def _labels_checksum(labels_ds, id_col: str) -> tuple[int, int]:
    """Order-independent pair of uint64 checksums of a (doc, cluster) label
    table: one wraparound sum per block, tiny per-block rows to the driver.
    Labels only DECREASE across propagation rounds, so checksum equality
    between rounds means fixpoint.  TWO independently-mixed sums (the second
    hashes the columns in swapped order) so a single 64-bit collision cannot
    silently stop propagation — both would have to collide at once (~2^-128)."""

    def block_sum(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        clusters = batch["cluster"].to_numpy(zero_copy_only=False)
        h1 = stable_hash([ids, clusters])
        h2 = stable_hash([clusters, ids])
        with np.errstate(over="ignore"):
            s1 = np.uint64(h1.sum())
            s2 = np.uint64(h2.sum())
        return pa.table({"s1": pa.array([s1], type=pa.uint64()),
                         "s2": pa.array([s2], type=pa.uint64())})

    parts = labels_ds.map_batches(block_sum, batch_format="pyarrow").to_pandas()
    with np.errstate(over="ignore"):
        return (
            int(parts["s1"].to_numpy(dtype=np.uint64).sum(dtype=np.uint64)),
            int(parts["s2"].to_numpy(dtype=np.uint64).sum(dtype=np.uint64)),
        )


def _cc_local(edges, id_col: str):
    """Count-gated local connected components: pull the COMPACT edge table
    (ids + two ints — never payloads) and run vectorized min-label
    propagation with pointer jumping in numpy.  Converges in O(log diameter)
    passes of O(edges) vector work — no per-round shuffle overhead."""
    import ray.data

    df = edges.to_pandas()
    ids = df[id_col].to_numpy()
    docs = np.unique(ids)  # sorted: code order == id order, so min code == min id
    dcode = np.searchsorted(docs, ids)
    bcode, _ = pd.factorize(
        stable_hash(
            [df["band"].to_numpy(), df["band_hash"].to_numpy()]
        )
    )
    n_docs, n_buckets = len(docs), int(bcode.max()) + 1 if len(bcode) else 0
    label = np.arange(n_docs, dtype=np.int64)
    while True:
        bmin = np.full(n_buckets, n_docs, dtype=np.int64)
        np.minimum.at(bmin, bcode, label[dcode])
        new = label.copy()
        np.minimum.at(new, dcode, bmin[bcode])
        while True:  # pointer jumping: path-halve chains to their root
            jumped = np.minimum(new, new[new])
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            break
        label = new
    return ray.data.from_arrow(
        pa.table({id_col: pa.array(docs), "cluster": pa.array(docs[label])})
    )


def minhash_lsh_clusters(
    ds, text_col: str, id_col: str, num_perm=64, bands=16, shingle=5,
    max_rounds=8, local_edge_cutoff: int | None = None,
):
    """Near-duplicate clustering with FULL connected components: docs sharing
    any LSH band bucket are linked; min-label propagation over the doc-bucket
    bipartite graph iterates to a fixpoint (converges in O(component
    diameter) rounds — near-dup components are shallow, so 2-3 rounds in
    practice; max_rounds bounds adversarial chains).

    Scale shape: the compact edge table (doc_id, band, band_hash) — never the
    payloads — is materialized ONCE and reused every round.  Below
    local_edge_cutoff edges (RAYWIN_CC_LOCAL_EDGES, default 5M ≈ tens of MB)
    the components are solved locally in vectorized numpy (count-gated like
    the join's small mode); above it, each round is two co-partition shuffles
    over compact label rows with convergence detected by a per-block checksum
    aggregate (one uint64 per block to the driver, nothing else)."""
    import os

    if local_edge_cutoff is None:
        local_edge_cutoff = int(os.environ.get("RAYWIN_CC_LOCAL_EDGES", "5000000"))
    # compact edges, computed once: payload text never leaves this stage
    edges = ds.map_batches(
        MinHashBands(text_col, id_col, num_perm, bands, shingle), batch_format="pyarrow"
    ).materialize()
    if edges.count() <= local_edge_cutoff:
        return _cc_local(edges, id_col)

    id_field = _arrow_schema(edges).field(id_col)
    label_schema = pa.schema([id_field, id_field.with_name("cluster")])
    labeled_schema = _arrow_schema(edges).append(label_schema.field("cluster"))

    def bucket_min(t: pa.Table) -> pa.Table:
        m = t.group_by(["band", "band_hash"]).aggregate([("cluster", "min")])
        return t.join(m, ["band", "band_hash"], use_threads=False).select([id_col, "cluster_min"]) \
            .rename_columns(label_schema.names)

    def doc_min(t: pa.Table) -> pa.Table:
        return t.group_by(id_col).aggregate([("cluster", "min")]).rename_columns(label_schema.names)

    def propagate(labeled_edges):
        """(doc, band, hash, cluster) -> new (doc, cluster) labels."""
        by_band = co_partition(declare_schema(labeled_edges, labeled_schema), ["band", "band_hash"], bucket_min)
        return co_partition(declare_schema(by_band, label_schema), [id_col], doc_min)

    # round 1: label(doc) = doc, so edges are already "labeled"
    def self_label(batch: pa.Table) -> pa.Table:
        return batch.append_column("cluster", batch[id_col])

    labels = propagate(edges.map_batches(self_label, batch_format="pyarrow")).materialize()
    checksum = _labels_checksum(labels, id_col)

    def attach(t: pa.Table) -> pa.Table:
        """Co-partitioned (edges ∪ labels) rows -> edges with each doc's
        current label attached."""
        side = t[SIDE_COL].to_numpy(zero_copy_only=False)
        lab = t.filter(side == 0).select(label_schema.names)
        e = t.filter(side == 1).select([id_col, "band", "band_hash"])
        return e.join(lab, id_col, join_type="left outer", use_threads=False)

    converged = False
    for _ in range(max_rounds - 1):
        labeled_edges = co_partition([labels, edges], [id_col], attach)
        labels = propagate(labeled_edges).materialize()
        new_checksum = _labels_checksum(labels, id_col)
        if new_checksum == checksum:
            converged = True
            break
        checksum = new_checksum
    if not converged:
        # min-label propagation advances the winning label one hop per round,
        # so non-convergence within max_rounds means a component deeper than
        # ~max_rounds hops — silent under-clustering would diverge from the
        # transitive-closure semantics, so make it loud
        import warnings

        warnings.warn(
            f"minhash_lsh_clusters: label propagation did not reach fixpoint "
            f"within max_rounds={max_rounds}; returned labels may under-merge "
            f"very deep duplicate chains — raise max_rounds",
            RuntimeWarning,
            stacklevel=2,
        )
    return labels


def dedup_paragraphs(ds, text_col: str, id_col: str, sep: str = "\n\n"):
    """FineWeb-style exact PARAGRAPH-level dedup: every paragraph keeps only
    its first occurrence corpus-wide (ordered by (doc, position)); documents
    are reassembled from their surviving paragraphs.

    Scale shape: paragraph TEXT rides exactly ONE shuffle (the per-doc
    rebuild exchange).  The corpus-wide winner election ships only compact
    (id, idx, hash64, len) rows keyed by the paragraph hash, and only the
    LOSING (id, idx) pairs — typically a small fraction of the corpus —
    return through the rebuild exchange.  Collision posture: a false drop
    needs two distinct paragraphs with equal 64-bit Horner hash AND equal
    character length; expected false drops ≈ same-length-pairs / 2**64 —
    negligible at 10^12 paragraphs (duplicate_span_stats takes the same
    stance).  Returns (id, clean_text, n_paras, n_dropped); a document whose
    every paragraph lost survives as an empty string, so row count is
    preserved."""
    from ..functions.texthash import horner_texts, to_signed
    from ..stages.text import _explode, _lens, _texts

    def explode(batch: pa.Table) -> pa.Table:
        _, rows, idx, flat = _explode([t.split(sep) for t in _texts(batch[text_col].to_pylist())])
        return pa.table({
            id_col: batch[id_col].take(rows),
            "idx": idx,
            "para": pa.array(flat, pa.string()),
            "h": to_signed(horner_texts(flat)),
            "plen": _lens(flat),
        })

    def mark_losers(t: pa.Table) -> pa.Table:
        # winner per (hash, len) = corpus-wide min (doc, position); all
        # same-hash rows co-partition here, so bucket-local first IS global
        t, _, pos = sort_by_key(t, ["h", "plen"], [(id_col, "ascending"), ("idx", "ascending")])
        return t.filter(pos > 0).select([id_col, "idx"])

    def rebuild(t: pa.Table) -> pa.Table:
        side = t[SIDE_COL].to_numpy(zero_copy_only=False)
        lost = set(zip(*(t.filter(side == 1)[c].to_pylist() for c in (id_col, "idx"))))
        texts, starts, _ = sort_by_key(t.filter(side == 0), [id_col], [("idx", "ascending")])
        ids, idx, paras = (texts[c].to_pylist() for c in (id_col, "idx", "para"))
        ends = np.append(starts, len(texts))[1:]
        kept = [
            [p for d, i, p in zip(ids[lo:hi], idx[lo:hi], paras[lo:hi]) if (d, i) not in lost]
            for lo, hi in zip(starts, ends)
        ]
        return pa.table({
            id_col: texts[id_col].take(starts),
            "n_paras": ends - starts,
            "n_dropped": ends - starts - _lens(kept),
            "clean_text": pa.array([sep.join(k) for k in kept], pa.string()),
        })

    rows = ds.map_batches(explode, batch_format="pyarrow")
    pos = [_arrow_schema(ds).field(id_col), pa.field("idx", pa.int64())]
    # shuffle 1 (compact): (id, idx, h, plen) keyed by hash -> losing pairs
    hashes = declare_schema(
        rows.select_columns([id_col, "idx", "h", "plen"]),
        pa.schema(pos + [pa.field("h", pa.int64()), pa.field("plen", pa.int64())]),
    )
    losers = declare_schema(co_partition(hashes, ["h"], mark_losers), pa.schema(pos))
    # shuffle 2: text rows + losing marks co-partition by doc id
    texts = declare_schema(
        rows.select_columns([id_col, "idx", "para"]), pa.schema(pos + [pa.field("para", pa.string())])
    )
    return co_partition([texts, losers], [id_col], rebuild)


def remove_duplicate_spans(ds, text_col: str, id_col: str, n: int = 5):
    """Exact substring-span REMOVAL (Lee et al. 2022, 'Deduplicating
    Training Data Makes Language Models Better'): any word n-gram occurring
    >= 2 times corpus-wide keeps only its canonical occurrence (first by
    (doc, start)); every token covered by a non-canonical occurrence of a
    duplicated gram is removed, and each document is rewritten as its
    surviving tokens joined by single spaces — the standard practice of
    running exact-substring dedup over the normalized token stream.
    Complements :func:`dedup_paragraphs` (whole-paragraph winners) and
    ``duplicate_span_stats`` (signal only, no rewrite); reference analogue:
    chronon has no text ops — net-new training-data surface
    (api/python/ai/chronon/group_by.py documents the closest transform
    seam).

    Scale shape: the corpus-wide winner election ships only (id, start,
    hash64) rows (24 B/gram) keyed by the gram hash — all occurrences of a
    gram co-partition, so the bucket-local first IS the global canonical —
    and only the LOSING (id, start) marks return through the one rebuild
    exchange the document text rides.  A gram occurring k times costs k
    compact rows in one bucket, never k text copies.  Collision posture:
    a false removal needs two distinct n-grams with equal 64-bit Horner
    hash — same stance as duplicate_span_stats; oracles compare the joined
    gram strings.  Returns (id, n_tokens, n_removed, clean_text); row count
    is preserved (token-free docs survive with clean_text = '')."""
    import re
    from itertools import compress, islice

    from ..stages.text import _GRAM_TOK_PAT, _explode, _texts, _word_gram_hashes

    tok_re = re.compile(_GRAM_TOK_PAT)

    def explode(batch: pa.Table) -> pa.Table:
        gh, gpos, gstart = _word_gram_hashes(batch[text_col].to_pylist(), n, with_starts=True)
        return pa.table({id_col: batch[id_col].take(gpos), "s": gstart, "gh": gh.view(np.int64)})

    def mark_losers(t: pa.Table) -> pa.Table:
        # canonical per gram = corpus-wide min (doc, start); same-hash rows
        # co-partition here, so bucket-local first IS global.  Every
        # occurrence after a gram's first loses — i.e. nothing for singleton
        # grams, all non-canonical occurrences for duplicated ones.
        t, _, pos = sort_by_key(t, ["gh"], [(id_col, "ascending"), ("s", "ascending")])
        return t.filter(pos > 0).select([id_col, "s"])

    def rebuild(t: pa.Table) -> pa.Table:
        side = t[SIDE_COL].to_numpy(zero_copy_only=False)
        texts, marks = t.filter(side == 0), t.filter(side == 1)
        counts, rows, _, flat = _explode([tok_re.findall(x.lower()) for x in _texts(texts[text_col].to_pylist())])
        # each losing occurrence covers n tokens from its start: drop them by
        # their index into the flat token list
        row_of = {d: r for r, d in enumerate(texts[id_col].to_pylist())}
        mark_rows = np.array([row_of[d] for d in marks[id_col].to_pylist()], dtype=np.int64)
        first = (np.cumsum(counts) - counts)[mark_rows] + marks["s"].to_numpy()
        keep = np.ones(len(flat), dtype=bool)
        keep[(first[:, None] + np.arange(n)).ravel()] = False
        kept_n = np.bincount(rows[keep], minlength=len(counts))
        words = compress(flat, keep)
        return pa.table({
            id_col: texts[id_col],
            "n_tokens": counts,
            "n_removed": counts - kept_n,
            "clean_text": pa.array([" ".join(islice(words, c)) for c in kept_n], pa.string()),
        })

    src = _arrow_schema(ds)
    marks = pa.schema([src.field(id_col), pa.field("s", pa.int64())])
    # shuffle 1 (compact): (id, s, gh) keyed by gram hash -> losing marks
    grams = declare_schema(
        ds.map_batches(explode, batch_format="pyarrow"), marks.append(pa.field("gh", pa.int64()))
    )
    losers = declare_schema(co_partition(grams, ["gh"], mark_losers), marks)
    # shuffle 2: whole-doc text rows + losing marks co-partition by doc id
    texts = declare_schema(
        ds.select_columns([id_col, text_col]), pa.schema([src.field(id_col), src.field(text_col)])
    )
    return co_partition([texts, losers], [id_col], rebuild)


def pixel_dedup_groups(ds, id_col: str = "image_id", bytes_col: str = "bytes",
                       fmt_col: str = "fmt"):
    """Exact IMAGE dedup by decoded-pixel digest: images whose decoded
    payloads are byte-identical (same geometry, same pixels — e.g. the same
    source re-encoded under the same codec, or straight file copies under a
    different id) form one group; each row reports its group's canonical
    (min) id and size.  The pixel-level complement of phash_neardup_pairs
    (perceptual near-dups) and dedup_exact (text content hash); reference
    analogue: chronon treats payloads as opaque binary columns
    (api/thrift/api.thrift Source fields) — net-new multimodal surface.

    Scale shape: each distinct (payload, fmt) of a batch is decoded and
    digested once, and payload bytes are DROPPED inside that stage — only
    (id, digest128) rides the one group exchange (24 B/row); a duplicate
    class of k images costs k compact rows in one bucket, never k payloads.
    Digest = blake2b-128 over the decoded array bytes + geometry, so a false
    merge needs a 128-bit collision (~2^-128; no known distinguisher) —
    stronger than the 64-bit stance the text ops take because image rows
    are fewer and far larger.  Returns (id, canonical_id, group_size), one
    row per input row."""
    import hashlib
    import struct

    def digest(batch: pa.Table) -> pa.Table:
        from ..stages.images import decode_distinct

        # one decode and one digest per distinct (payload, fmt)
        pxs, _, inv = decode_distinct(batch, bytes_col, fmt_col)
        d = np.empty((len(pxs), 2), dtype=np.int64)
        for j, px in enumerate(pxs):
            h = hashlib.blake2b(
                struct.pack("<III", *px.shape) + px.tobytes(), digest_size=16
            ).digest()
            d[j] = struct.unpack("<qq", h)
        return pa.table(
            {
                id_col: batch[id_col],
                "d1": pa.array(d[inv, 0], type=pa.int64()),
                "d2": pa.array(d[inv, 1], type=pa.int64()),
            }
        )

    def groups(g: pa.Table) -> pa.Table:
        agg = g.group_by(["d1", "d2"]).aggregate([(id_col, "min"), (id_col, "count")])
        out = g.join(agg, ["d1", "d2"])
        return pa.table(
            {
                id_col: out[id_col],
                "canonical_id": out[f"{id_col}_min"],
                "group_size": out[f"{id_col}_count"],
            }
        )

    rows = declare_schema(
        ds.map_batches(digest, batch_format="pyarrow"),
        pa.schema(
            [_arrow_schema(ds).field(id_col), pa.field("d1", pa.int64()), pa.field("d2", pa.int64())]
        ),
    )
    return co_partition(rows, ["d1"], groups)


class SimHash:
    """map_batches: adds a 64-bit simhash over ASCII word tokens.

    Vectorized batch-wide: tokens exploded once, hashed with the
    splitmix64(horner) family (SQL-reproducible, functions/texthash.py),
    per-document ±1 bit votes accumulated with one reduceat — no per-document
    Python loop."""

    def __init__(self, text_col: str, out_col: str = "simhash"):
        import re

        self.text_col = text_col
        self.out_col = out_col
        self.tok = re.compile(r"[0-9A-Za-z_]+")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..aggregator.sketches import splitmix64
        from ..functions.texthash import horner_texts

        from ..stages.text import _explode, _texts

        lens, _, _, flat = _explode([self.tok.findall(t) for t in _texts(batch[self.text_col].to_pylist())])
        n = len(lens)
        out = np.zeros(n, dtype=np.uint64)
        if flat:
            h = splitmix64(horner_texts([w.lower() for w in flat]))
            ar = np.arange(64, dtype=np.uint64)
            votes = (2 * ((h[:, None] >> ar) & np.uint64(1)).astype(np.int32)) - 1
            off = np.zeros(n, dtype=np.int64)
            np.cumsum(lens[:-1], out=off[1:])
            nonempty = lens > 0
            scores = np.zeros((n, 64), dtype=np.int32)
            scores[nonempty] = np.add.reduceat(votes, off[nonempty], axis=0)
            out[nonempty] = ((scores[nonempty] > 0).astype(np.uint64) << ar).sum(axis=1)
        return batch.append_column(self.out_col, pa.array(out.view(np.int64), type=pa.int64()))


def ngram_jaccard(text_a: str, text_b: str, n: int = 5) -> float:
    sa = set(text_a[i : i + n] for i in range(max(1, len(text_a) - n + 1)))
    sb = set(text_b[i : i + n] for i in range(max(1, len(text_b) - n + 1)))
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


def lsh_candidate_pairs(ds, text_col: str, id_col: str, num_perm=64, bands=16,
                        shingle=5):
    """Candidate near-duplicate pairs: docs sharing any LSH band bucket.

    One groupby shuffle over compact (id, band, band_hash) rows, pairs emitted
    inside each bucket, then a second small shuffle to dedupe pairs seen in
    several bands. Output: (a, b) with a < b. Recall at Jaccard J is
    1-(1-J^r)^b (r=num_perm/bands): ~1-5e-21 at J=.99, ~0.9998 at J=.8."""
    from ..functions.relational import distinct

    id_field = _arrow_schema(ds).field(id_col)
    sig = declare_schema(
        ds.map_batches(MinHashBands(text_col, id_col, num_perm, bands, shingle), batch_format="pyarrow"),
        pa.schema([id_field, pa.field("band", pa.int32()), pa.field("band_hash", pa.int64())]),
    )
    pair_schema = pa.schema([id_field.with_name("a"), id_field.with_name("b")])

    def bucket_pairs(t: pa.Table) -> pa.Table:
        t, starts, _ = sort_by_key(t, ["band", "band_hash"], [(id_col, "ascending")])
        ii, jj = _pairs_within(starts, len(t))
        return pa.table([t[id_col].take(ii), t[id_col].take(jj)], schema=pair_schema)

    pairs = declare_schema(co_partition(sig, ["band", "band_hash"], bucket_pairs), pair_schema)
    return distinct(pairs, ["a", "b"])


def _pairs_within(starts: np.ndarray, n: int):
    """Row index pairs (i, j), i < j, of every two rows of one run of a
    table whose runs start at ``starts``."""
    ii, jj = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for lo, hi in zip(starts, np.append(starts[1:], n)):
        if hi - lo > 1:
            iu, ju = np.triu_indices(hi - lo, 1)
            ii.append(lo + iu)
            jj.append(lo + ju)
    return np.concatenate(ii), np.concatenate(jj)


def verified_neardup_pairs(ds, text_col: str, id_col: str, threshold: float,
                           shingle=5, num_perm=64, bands=16,
                           broadcast_cutoff: int = 200_000):
    """MinHash-LSH candidates -> exact n-gram-Jaccard verification: the full
    near-dup pipeline (candidate generation is sub-quadratic and shuffles only
    signatures; only candidate pairs ever fetch payload text).  Output:
    (a, b, jaccard) for verified pairs with J >= threshold over
    whitespace-normalized text (same normalization as the signatures).

    Text fetch has two modes, like the join's small-mode pruning:
      * candidate set <= broadcast_cutoff pairs (the common case — near-dup
        pairs are rare relative to the corpus): the candidate doc ids are
        broadcast once with ``ray.put``, the corpus scan semi-filters to
        candidate docs (bounded: <= 2 x cutoff rows), their texts broadcast,
        and verification is ONE map_batches over the pairs — no hash joins.
      * bigger candidate sets fall back to two bucketed hash joins, which
        never hold more than a bucket of texts per task.

    Reference analogue: Chronon has no corpus dedup; the shape mirrors the
    standard MinHash-LSH + verify design (Broder). At thresholds below ~0.8
    LSH recall decays (see lsh_candidate_pairs) — widen bands/perms then."""
    import ray

    from ..functions.relational import bucketed_left_join
    from ..functions.texthash import normalize_ws

    cand = lsh_candidate_pairs(ds, text_col, id_col, num_perm, bands, shingle).materialize()  # compact (a, b)
    n_cand = cand.count()
    docs = ds.select_columns([id_col, text_col])

    def verify_frame(g: pa.Table, ta, tb) -> pa.Table:
        j = np.fromiter(
            (ngram_jaccard(x, y, shingle) for x, y in zip(ta, tb)),
            dtype=np.float64, count=len(g),
        )
        return g.select(["a", "b"]).append_column("jaccard", pa.array(np.round(j, 6))).filter(j >= threshold)

    if n_cand <= broadcast_cutoff:
        id_tbl = pa.concat_tables(
            cand.select_columns(["a", "b"]).iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
        wanted = np.unique(
            np.concatenate([
                id_tbl["a"].to_numpy(zero_copy_only=False),
                id_tbl["b"].to_numpy(zero_copy_only=False),
            ])
        )
        wanted_ref = ray.put(wanted)

        def semi(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(np.isin(ids, ray.get(wanted_ref))))

        hits = pa.concat_tables(
            docs.map_batches(semi, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )  # bounded: <= 2 x broadcast_cutoff rows
        texts = dict(
            zip(
                hits[id_col].to_pylist(),
                normalize_ws(hits[text_col].to_pylist()),
            )
        )
        texts_ref = ray.put(texts)

        def verify_bcast(g: pa.Table) -> pa.Table:
            lut = ray.get(texts_ref)
            ta = [lut.get(x, "") for x in g["a"].to_pylist()]
            tb = [lut.get(x, "") for x in g["b"].to_pylist()]
            return verify_frame(g, ta, tb)

        return cand.map_batches(verify_bcast, batch_format="pyarrow")

    a_side = docs.rename_columns({id_col: "a", text_col: "__text_a"})
    b_side = docs.rename_columns({id_col: "b", text_col: "__text_b"})
    withl = bucketed_left_join(cand, a_side, on=["a"], how="inner")
    withr = bucketed_left_join(withl, b_side, on=["b"], how="inner")

    def verify(g: pa.Table) -> pa.Table:
        return verify_frame(g, normalize_ws(g["__text_a"].to_pylist()), normalize_ws(g["__text_b"].to_pylist()))

    return withr.map_batches(verify, batch_format="pyarrow")


def cosine_neardup_pairs(ds, tau: float, id_col: str = "vec_id",
                         emb_col: str = "embedding", num_blocks: int | None = None):
    """Exhaustive embedding-cosine near-duplicate pairs: every unordered pair
    (a < b) with cosine similarity >= tau, as (a, b, sim) rounded to 6 dp.

    Distributed all-pairs over BLOCK pairs: the (id, embedding) projection is
    materialized into the object store once as B blocks, then each of the
    B*(B+1)/2 (block_i, block_j) combinations is one Ray task doing a dense
    float64 matmul — a worker only ever holds two blocks, never the corpus.
    This is the exact verifier; for sub-quadratic scale bucket first
    (lsh_bucketed_topk hyperplane signs / minhash) and verify buckets with
    this on the residual. Raw Ray tasks are used because the Dataset API has
    no self-cross-product; the partitioning assumption is only that one block
    pair fits a worker (SURVEY.md s2 custom-operator rule (c))."""
    import ray

    proj = ds.select_columns([id_col, emb_col])
    if num_blocks:
        proj = proj.repartition(num_blocks)
    refs = proj.materialize().to_arrow_refs()

    @ray.remote
    def block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        def mat(t):
            from .ann import vecs_to_numpy

            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            m = vecs_to_numpy(t[emb_col])
            n = np.linalg.norm(m, axis=1, keepdims=True)
            return ids, m / np.maximum(n, 1e-30)

        ida, ma = mat(ta)
        idb, mb = mat(tb)
        s = ma @ mb.T
        if same:
            # within one block both orientations are present: keep a < b once
            keep = (s >= tau) & (ida[:, None] < idb[None, :])
            ii, jj = np.nonzero(keep)
            a, b = ida[ii], idb[jj]
        else:
            # across blocks each unordered pair appears exactly once; orient it
            keep = s >= tau
            ii, jj = np.nonzero(keep)
            a = np.minimum(ida[ii], idb[jj])
            b = np.maximum(ida[ii], idb[jj])
        return pa.table({
            "a": pa.array(a, type=pa.int64()),
            "b": pa.array(b, type=pa.int64()),
            "sim": pa.array(np.round(s[ii, jj], 6), type=pa.float64()),
        })

    out_refs = []
    for i in range(len(refs)):
        for j in range(i, len(refs)):
            out_refs.append(block_pair.remote(refs[i], refs[j], i == j))
    import ray.data

    return ray.data.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# Perceptual-hash near-duplicate pairs (image dedup by phash hamming distance)
# ---------------------------------------------------------------------------

def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit population count (SWAR; numpy has no bit_count)."""
    x = x.astype(np.uint64, copy=True)
    x -= (x >> np.uint64(1)) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def phash_neardup_pairs(ds, id_col: str = "image_id", phash_col: str = "phash",
                        max_dist: int = 3, num_bands: int = 4):
    """Image near-duplicate pairs by perceptual-hash hamming distance.

    LSH banding with COMPLETE recall: split the 64-bit phash into
    ``num_bands`` equal bands; two hashes within hamming distance
    ``max_dist`` < num_bands must share at least one untouched band
    (pigeonhole), so grouping by (band_idx, band_value) surfaces every
    qualifying pair.  Verification is an exact vectorized popcount(xor).

    Scale shape: one distinct exchange over (id, phash), one groupby over
    compact (band_idx, band_val, id, phash) rows — payloads never ride —
    then a pair-level distinct (a pair can match in several bands).  Hot
    band values (e.g. an all-zero band) create quadratic groups: the
    standard LSH caveat, bounded here by the 16-bit band cardinality; salt
    or widen num_bands for adversarial corpora.  Reference analogue: the
    hot-key analysis in spark Analyzer FrequentItems
    (spark/src/main/scala/ai/chronon/spark/Analyzer.scala:116-190) — the
    reference has no image dedup; this is an engine-native addition."""
    assert 0 < num_bands <= 64 and 64 % num_bands == 0
    assert max_dist < num_bands, "banding recall guarantee needs max_dist < num_bands"
    from ..functions.relational import distinct

    band_bits = 64 // num_bands
    mask = np.uint64((1 << band_bits) - 1)

    src = _arrow_schema(ds)
    uniq = distinct(
        declare_schema(ds.select_columns([id_col, phash_col]), pa.schema([src.field(id_col), src.field(phash_col)])),
        [id_col, phash_col],
    )

    def explode_bands(batch: pa.Table) -> pa.Table:
        ph = batch[phash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ph)
        tiled = batch.select([id_col, phash_col]).take(
            pa.array(np.tile(np.arange(n, dtype=np.int64), num_bands))
        )
        band_idx = np.repeat(np.arange(num_bands, dtype=np.int32), n)
        vals = np.concatenate(
            [(ph >> np.uint64(b * band_bits)) & mask for b in range(num_bands)]
        ) if n else np.zeros(0, np.uint64)
        tiled = tiled.append_column("__band", pa.array(band_idx))
        return tiled.append_column("__bval", pa.array(vals.astype(np.int64)))

    bands = declare_schema(
        uniq.map_batches(explode_bands, batch_format="pyarrow"),
        pa.schema([src.field(id_col), src.field(phash_col), pa.field("__band", pa.int32()),
                   pa.field("__bval", pa.int64())]),
    )

    pair_schema = pa.schema([("id_a", pa.string()), ("id_b", pa.string()), ("dist", pa.int64())])

    def pairs_in_group(t: pa.Table) -> pa.Table:
        # a call may hold several (band, bval) groups: pair only within
        t, starts, _ = sort_by_key(t, ["__band", "__bval"])
        ii, jj = _pairs_within(starts, len(t))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        ph = t[phash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = popcount64(ph[ii] ^ ph[jj])
        keep = d <= max_dist
        a, b = ids[ii[keep]], ids[jj[keep]]
        swap = a > b
        return pa.table([np.where(swap, b, a), np.where(swap, a, b), d[keep]], schema=pair_schema)

    cand = declare_schema(co_partition(bands, ["__band", "__bval"], pairs_in_group), pair_schema)
    # a pair can match in up to num_bands bands: one distinct exchange
    return distinct(cand, ["id_a", "id_b", "dist"])
