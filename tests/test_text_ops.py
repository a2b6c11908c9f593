"""Unit edge cases for the round-3 corpus-prep stages (the catalog oracle
covers the bulk behavior; these pin the degenerate inputs)."""

import numpy as np
import pandas as pd
import pyarrow as pa

from raywin.stages.text import PiiScrub, RepetitionStats


def test_repetition_stats_edges():
    t = pa.table(
        {
            "text": [
                None,                      # null -> zeros
                "one",                     # single token: no bigrams
                "a b a b a b",             # bigrams: ab,ba,ab,ba,ab -> 2 distinct / 5
                "x y z w",                 # all distinct
            ]
        }
    )
    out = RepetitionStats("text")(t)
    assert out["n_bigrams"].to_pylist() == [0, 0, 5, 3]
    assert out["dup_bigram_frac"].to_pylist() == [0.0, 0.0, 1.0 - 2 / 5, 0.0]
    assert out["top_bigram_frac"].to_pylist() == [0.0, 0.0, 3 / 5, 1 / 3]


def test_pii_scrub_edges():
    t = pa.table(
        {
            "text": [
                "mail a.b+c@ex-ample.co.uk now",
                "call +1 (555) 010-1234 or 555 010 9999 today",
                "no pii here",
                None,
            ]
        }
    )
    out = PiiScrub("text")(t)
    assert out["n_emails"].to_pylist() == [1, 0, 0, 0]
    assert out["n_phones"].to_pylist() == [0, 2, 0, 0]
    assert out["clean_text"].to_pylist() == [
        "mail <EMAIL> now",
        "call <PHONE> or <PHONE> today",
        "no pii here",
        "",
    ]


def test_paragraph_dedup(ray_session, exchange_block_rows):
    """Cross-document paragraph winner rule + row-count preservation."""
    import ray.data

    from raywin.stages.dedup import dedup_paragraphs

    exchange_block_rows(2)
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "alpha beta\n\ngamma",
                "alpha beta\n\ndelta",   # first para loses to doc 1
                "alpha beta\n\ngamma",   # everything loses -> empty survivor
            ],
        }
    )
    out = (
        dedup_paragraphs(ray.data.from_pandas(docs), "text", "doc_id")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["clean_text"].tolist() == ["alpha beta\n\ngamma", "delta", ""]
    assert out["n_paras"].tolist() == [2, 2, 2]
    assert out["n_dropped"].tolist() == [0, 1, 2]


def test_duplicate_span_stats(ray_session, exchange_block_rows):
    """Corpus-wide 5-gram duplication: identical docs share every gram."""
    import ray.data

    from raywin.stages.text import duplicate_span_stats

    exchange_block_rows(2)
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4],
            "text": [
                "a b c d e f",        # grams: abcde, bcdef
                "a b c d e f",        # exact copy: every gram dup
                "z y x w v u t",      # unique grams
                "tiny doc",           # < 5 tokens: no grams, excluded
            ],
        }
    )
    out = (
        duplicate_span_stats(ray.data.from_pandas(docs), "text", "doc_id",
                             n=5, hot=2)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3]
    assert out["n_grams"].tolist() == [2, 2, 3]
    assert out["dup_gram_frac"].tolist() == [1.0, 1.0, 0.0]
    assert out["max_gram_freq"].tolist() == [2, 2, 1]


def test_token_count_edges_vs_oracle():
    """TokenCount (Python re) must tokenize identically to the DuckDB/RE2
    oracle on contraction, quote, and whitespace edge cases."""
    import duckdb

    from raywin.stages.text import TokenCount

    texts = [
        "don't stop, it's 2024's best-seller!",
        "''quoted'' 'sx 'll alone ' and trailing'",
        "tabs\tand\nnewlines\r\n  multiple   spaces",
        "digits123mixed456 !!!'!! ,,,''",
        "", None, "'", "'s", "x'sx'llx're",
        "a'd b'm c've d're e'll f's g't",
    ]
    t = pa.table({"doc_id": np.arange(len(texts)), "text": texts})
    out = TokenCount("text")(t).to_pandas()

    con = duckdb.connect()
    con.register("documents", t)
    from raywin.pipelines.catalog import TOKEN_COUNTS_SQL

    exp = con.execute(TOKEN_COUNTS_SQL).df().sort_values("doc_id").reset_index(drop=True)
    got = out[["doc_id", "n_ws_tokens", "n_bpe_tokens", "punct_token_ratio"]]
    got = got.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got.astype({"n_ws_tokens": "int64", "n_bpe_tokens": "int64"}),
        exp.astype({"n_ws_tokens": "int64", "n_bpe_tokens": "int64"}),
        check_exact=False,
    )
    # spot-check the rule itself: "don't" -> don / 't ; "2024's" -> 2024 / 's
    row = out.loc[0]
    assert row["n_ws_tokens"] == 5
    assert row["n_bpe_tokens"] == 12


def test_lm_quality_matches_brute(ray_session):
    """Unigram-LM scores vs a per-token Python recompute over the real
    sf0.001 corpus: n_tokens exact, avg_neg_logp equal to the shared
    4-decimal rounding, perplexity derived from the rounded score."""
    import math
    import re

    import numpy as np
    import ray.data

    from raywin.stages.text import lm_quality

    sf = "/root/testdata/sf0.001"
    pdf = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    tok = re.compile(r"[A-Za-z0-9]+")
    docs = {
        r.doc_id: [t.lower() for t in tok.findall(r.text or "")]
        for r in pdf.itertuples()
    }
    cnt: dict = {}
    for terms in docs.values():
        for t in terms:
            cnt[t] = cnt.get(t, 0) + 1
    total = sum(cnt.values())
    want = {}
    for doc, terms in docs.items():
        if terms:
            s = sum(math.log(total) - math.log(cnt[t]) for t in terms)
            avg = round(s / len(terms), 4)
            want[doc] = (len(terms), avg, round(math.exp(avg), 2))
        else:
            want[doc] = (0, None, None)

    ds = ray.data.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    got = lm_quality(ds, "text", "doc_id").to_pandas().set_index("doc_id")
    assert len(got) == len(want)
    for doc, (ntok, avg, ppl) in want.items():
        row = got.loc[doc]
        assert row["n_tokens"] == ntok
        if avg is None:
            assert np.isnan(row["avg_neg_logp"]) and np.isnan(row["unigram_ppl"])
        else:
            assert row["avg_neg_logp"] == avg
            assert row["unigram_ppl"] == ppl


def test_decontaminate_counts(ray_session):
    """Synthetic corpus with a known contamination structure: exact distinct
    5-gram overlap counts against a string-gram brute force."""
    import ray.data

    from raywin.stages.text import decontaminate

    bench_text = "alpha beta gamma delta epsilon zeta eta theta"
    cand = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                # shares grams 1-3 of the bench doc (IOTA breaks gram 4)
                "alpha beta gamma delta epsilon zeta eta IOTA",
                # one shared gram, repeated twice -> still 1 DISTINCT overlap
                "alpha beta gamma delta epsilon X alpha beta gamma delta epsilon",
                "totally different text with five tokens here",
                "short",            # < 5 tokens: zero grams
                None,               # null text
            ],
        }
    )
    bench = ray.data.from_pandas(pd.DataFrame({"doc_id": [0], "text": [bench_text]}))
    out = (
        decontaminate(ray.data.from_pandas(cand), bench, "text", "doc_id")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out["n_grams"].tolist() == [4, 6, 3, 0, 0]
    assert out["n_overlap"].tolist() == [3, 1, 0, 0, 0]
    assert out["contaminated"].tolist() == [True, True, False, False, False]


def test_lm_quality_empty_docs(ray_session):
    """Zero-token documents get NaN score/perplexity, count 0 — and don't
    perturb the model built from the rest of the corpus."""
    import math

    import numpy as np
    import ray.data

    from raywin.stages.text import lm_quality

    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["b b a", "", None]}
    )
    out = (
        lm_quality(ray.data.from_pandas(df), "text", "doc_id")
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out["n_tokens"].tolist() == [3, 0, 0]
    # model: a=1, b=2, total=3
    want = round((2 * (math.log(3) - math.log(2)) + (math.log(3) - math.log(1))) / 3, 4)
    assert out.loc[1, "avg_neg_logp"] == want
    assert np.isnan(out.loc[2, "avg_neg_logp"]) and np.isnan(out.loc[3, "unigram_ppl"])


def test_span_removal_hand(ray_session, exchange_block_rows):
    """Canonical-occurrence rule: duplicated n-grams survive only at their
    first (doc, start); covered tokens elsewhere are removed."""
    import ray.data

    from raywin.stages.dedup import remove_duplicate_spans

    exchange_block_rows(2)
    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3, 4, 5],
            "text": [
                "a b c d e",    # owns gram (a b c) -> untouched
                "x a b c y",    # loses (a b c): tokens 1..3 removed
                "a b c",        # loses everything
                "hi",           # < n tokens: no grams
                "",             # token-free survivor
            ],
        }
    )
    out = (
        remove_duplicate_spans(ray.data.from_pandas(docs), "text", "doc_id",
                               n=3)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2, 3, 4, 5]
    assert out["clean_text"].tolist() == ["a b c d e", "x y", "", "hi", ""]
    assert out["n_tokens"].tolist() == [5, 5, 3, 1, 0]
    assert out["n_removed"].tolist() == [0, 3, 3, 0, 0]


def test_span_removal_matches_brute(ray_session, exchange_block_rows):
    """Randomized corpus vs a positional brute-force recompute (overlapping
    duplicated spans, same-doc repeats, punctuation tokenization)."""
    import re

    import ray.data

    from raywin.stages.dedup import remove_duplicate_spans

    exchange_block_rows(64)
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(12)]  # tiny vocab: dense gram collisions
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(0, 25))).tolist())
        + (". " if i % 3 == 0 else "")
        for i in range(40)
    ]
    n = 4
    toks = [re.findall(r"[0-9a-z_]+", t.lower()) for t in texts]
    occ: dict = {}
    for d, tk in enumerate(toks):
        for s in range(len(tk) - n + 1):
            occ.setdefault(tuple(tk[s : s + n]), []).append((d, s))
    removed = [set() for _ in texts]
    for lst in occ.values():
        if len(lst) >= 2:
            for d, s in sorted(lst)[1:]:
                removed[d].update(range(s, s + n))
    exp_text = [
        " ".join(w for j, w in enumerate(tk) if j not in rm)
        for tk, rm in zip(toks, removed)
    ]
    docs = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = (
        remove_duplicate_spans(ray.data.from_pandas(docs), "text", "doc_id",
                               n=n)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert out["clean_text"].tolist() == exp_text
    assert out["n_tokens"].tolist() == [len(tk) for tk in toks]
    assert out["n_removed"].tolist() == [len(rm) for rm in removed]
