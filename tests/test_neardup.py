"""Near-duplicate pair operators: LSH-verified Jaccard pairs and exhaustive
block-pair cosine pairs must equal a local brute-force recompute."""

import itertools

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def doc_table(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(7)
    words = [f"w{i:03d}" for i in range(400)]  # big vocab: random pairs J ~ 0
    texts = [
        " ".join(rng.choice(words, size=40).tolist()) for _ in range(60)
    ]
    # inject near-dups: copies with one word changed (J ~ 0.9+)
    for src, dst in [(0, 50), (3, 51), (7, 52)]:
        t = texts[src].split()
        t[5] = "omega"
        texts[dst] = " ".join(t)
    texts[53] = texts[9]  # exact dup
    t = pa.table({"doc_id": pa.array(range(60), type=pa.int64()),
                  "text": pa.array(texts)})
    path = tmp_path_factory.mktemp("nd") / "docs.parquet"
    pq.write_table(t, str(path))
    return str(path), texts


def _brute_pairs(texts, thresh):
    from raywin.functions.texthash import normalize_ws
    from raywin.stages.dedup import ngram_jaccard

    norm = normalize_ws(pd.Series(texts)).tolist()
    out = set()
    for a, b in itertools.combinations(range(len(texts)), 2):
        if ngram_jaccard(norm[a], norm[b], 5) >= thresh:
            out.add((a, b))
    return out


def test_verified_neardup_pairs(ray_session, exchange_block_rows, doc_table):
    import ray.data

    from raywin.stages.dedup import verified_neardup_pairs

    exchange_block_rows(128)
    path, texts = doc_table
    ds = ray.data.read_parquet(path)
    got = verified_neardup_pairs(ds, "text", "doc_id", threshold=0.6).to_pandas()
    got_pairs = set(zip(got["a"].astype(int), got["b"].astype(int)))
    expect = _brute_pairs(texts, 0.6)
    # exact precision (verify stage recomputes true Jaccard) ...
    assert got_pairs <= expect
    # ... and full recall at high J (the injected dups, J ~ 0.9+; LSH recall
    # at J=0.9 with 16 bands x 4 rows is 1-(1-0.9^4)^16 ~ 0.9996)
    assert {(0, 50), (3, 51), (7, 52), (9, 53)} <= got_pairs
    assert (got["jaccard"] >= 0.6).all()


def test_cosine_neardup_pairs(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.stages.dedup import cosine_neardup_pairs

    rng = np.random.default_rng(11)
    n, d = 120, 16
    E = rng.normal(size=(n, d))
    E[100] = E[5] + rng.normal(scale=0.01, size=d)  # near-dup
    E[101] = E[30]  # exact dup
    t = pa.table({"vec_id": pa.array(range(n), type=pa.int64()),
                  "embedding": pa.array(E.tolist(),
                                        type=pa.list_(pa.float32()))})
    path = tmp_path / "emb.parquet"
    pq.write_table(t, str(path))

    ds = ray.data.read_parquet(str(path))
    got = cosine_neardup_pairs(ds, tau=0.5, num_blocks=3).to_pandas()
    got = got.sort_values(["a", "b"]).reset_index(drop=True)

    En = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    En = En / np.linalg.norm(En, axis=1, keepdims=True)
    S = En @ En.T
    iu, ju = np.triu_indices(n, 1)
    keep = S[iu, ju] >= 0.5
    exp = pd.DataFrame({"a": iu[keep], "b": ju[keep],
                        "sim": np.round(S[iu, ju][keep], 6)})
    exp = exp.sort_values(["a", "b"]).reset_index(drop=True)
    assert len(got) == len(exp) >= 2
    assert (got["a"].to_numpy() == exp["a"].to_numpy()).all()
    assert (got["b"].to_numpy() == exp["b"].to_numpy()).all()
    assert np.allclose(got["sim"], exp["sim"], atol=1e-9)


@pytest.mark.parametrize("cutoff", [5_000_000, 0])  # local numpy CC / distributed rounds
def test_minhash_transitive_closure(ray_session, tmp_path, cutoff):
    """An A-B-C transitive chain (A~B and B~C near-dup, A!~C directly) must
    cluster into ONE component on both CC paths — the fixpoint property the
    single-round propagation lacked."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.stages.dedup import minhash_lsh_clusters

    rng = np.random.default_rng(11)
    words = [f"w{i:03d}" for i in range(400)]
    base = rng.choice(words, size=60).tolist()
    a = " ".join(base)
    b_t = list(base); b_t[:6] = ["x1", "x2", "x3", "x4", "x5", "x6"]
    b = " ".join(b_t)                     # shares 90% with A
    c_t = list(b_t); c_t[-6:] = ["y1", "y2", "y3", "y4", "y5", "y6"]
    c = " ".join(c_t)                     # shares 90% with B, 80% with A
    others = [" ".join(rng.choice(words, size=60).tolist()) for _ in range(20)]
    texts = [a, b, c] + others
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)})
    path = str(tmp_path / "chain.parquet")
    pq.write_table(t, path)

    ds = ray.data.read_parquet(path)
    out = minhash_lsh_clusters(
        ds, "text", "doc_id", local_edge_cutoff=cutoff
    ).to_pandas().set_index("doc_id")["cluster"].sort_index()
    assert len(out) == len(texts)
    # chain endpoints need not share a bucket directly; closure links them
    assert out.loc[0] == out.loc[1] == out.loc[2] == 0
    # unrelated docs stay out of the chain's cluster
    assert (out.loc[3:] != 0).all()


def test_minhash_nonconvergence_warns(ray_session, tmp_path):
    """With max_rounds too small for the component's hop depth, the
    distributed CC path must WARN instead of silently under-clustering."""
    import warnings

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.stages.dedup import minhash_lsh_clusters

    rng = np.random.default_rng(13)
    words = [f"w{i:03d}" for i in range(400)]
    # chain of 6 docs, each ~90% similar to its neighbor only
    cur = rng.choice(words, size=60).tolist()
    texts = [" ".join(cur)]
    for step in range(5):
        cur = list(cur)
        cur[step * 6 : step * 6 + 6] = [f"z{step}_{j}" for j in range(6)]
        texts.append(" ".join(cur))
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts)})
    path = str(tmp_path / "deep_chain.parquet")
    pq.write_table(t, path)
    ds = ray.data.read_parquet(path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        minhash_lsh_clusters(
            ds, "text", "doc_id", local_edge_cutoff=0, max_rounds=2
        ).to_pandas()
    assert any("fixpoint" in str(w.message) for w in caught)


def test_pixel_dedup_groups(ray_session, exchange_block_rows):
    """Exact image dedup groups by decoded-pixel digest: same pixels under
    the same codec merge (even across different blobs being byte-identical),
    same pixels under a quantizing codec do NOT merge with the lossless
    original, and distinct images stay singletons."""
    import ray.data

    from raywin.stages.dedup import pixel_dedup_groups
    from raywin.stages.images import make_pixels, png_encode, qimg_encode

    exchange_block_rows(2)
    px_a = make_pixels("a", 8, 8)
    px_b = make_pixels("b", 12, 12)
    rows = pd.DataFrame(
        {
            "image_id": ["a1", "a2", "a3", "b1", "b2", "c1"],
            "bytes": [
                png_encode(px_a), png_encode(px_a), png_encode(px_a),
                png_encode(px_b),
                qimg_encode(px_b),  # quantized round trip != png pixels
                png_encode(make_pixels("c", 8, 8)),
            ],
            "fmt": ["png", "png", "png", "png", "qimg", "png"],
        }
    )
    out = (
        pixel_dedup_groups(ray.data.from_pandas(rows))
        .to_pandas().sort_values("image_id").reset_index(drop=True)
    )
    assert out["image_id"].tolist() == ["a1", "a2", "a3", "b1", "b2", "c1"]
    assert out["canonical_id"].tolist() == ["a1", "a1", "a1", "b1", "b2", "c1"]
    assert out["group_size"].tolist() == [3, 3, 3, 1, 1, 1]
