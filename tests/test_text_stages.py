"""The text stages over Arrow batches, each against a per-row Python
reference: the stages called directly on arbitrary text (property test),
their declared schemas on an empty table, and the Dataset-level text
operators over an int64 id column holding a null."""

import math
import re
from collections import Counter

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from raywin.stages.text import (
    _STOPWORDS,
    Fingerprint,
    LangId,
    PiiScrub,
    QualityScore,
    RepetitionStats,
    TextStats,
    TokenCount,
    _DocFreqPartials,
    _TermFreqPartials,
)

WS = " \t\n\r\f\v"
# single characters (every ASCII whitespace class, apostrophes, non-ASCII
# letters whose lowercase or class differs from ASCII) and whole words the
# patterns look for (stopwords, contractions, emails, phones)
FRAGMENTS = list("aZ09_'’.,!@-+()%" + WS + "éßÀÿÄİKΣ ") + [
    "the", "La", "der", "el", "de", "don't", "it's", "'ll", "a.b@ex.co", "+1 (555) 010-1234",
]
texts_st = st.lists(
    st.one_of(st.none(), st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join)), max_size=12
)


def _ratio(num, den):
    return num / den if den else None


def ref_text_stats(t):
    toks = re.findall(r"[A-Za-z0-9]+", t)
    n = len(t)
    return {
        "n_chars2": n,
        "n_tokens": len(toks),
        "avg_token_len": _ratio(sum(map(len, toks)), len(toks)),
        "alpha_ratio": _ratio(sum(c.isascii() and c.isalpha() for c in t), n),
        "digit_ratio": _ratio(sum(c in "0123456789" for c in t), n),
        "upper_ratio": _ratio(sum("A" <= c <= "Z" for c in t), n),
    }


def ref_token_count(t):
    bpe = len(re.findall(r"'(?:[sdmt]|ll|ve|re)|[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v']+|'", t))
    punct = len(re.findall(r"[^A-Za-z0-9 \t\n\r\f\v']+|'", t)) - len(re.findall(r"'(?:[sdmt]|ll|ve|re)", t))
    return {
        "n_ws_tokens": len(re.findall(r"[^ \t\n\r\f\v]+", t)),
        "n_bpe_tokens": bpe,
        "punct_token_ratio": _ratio(punct, bpe),
    }


def ref_quality(t):
    toks = re.findall(r"[0-9A-Za-z_]+", t)
    n = len(t)
    ls = math.sqrt(min(n, 2000) / 2000.0)
    al = sum(c.isascii() and c.isalpha() for c in t) / max(n, 1)
    dr = len({w.lower() for w in toks}) / max(len(toks), 1)
    return {"quality_score": 0.4 * ls + 0.4 * al + 0.2 * dr}


def ref_langid(t):
    toks = re.findall(r"[a-zà-ÿäöüß]+", t.lower())
    score = {lang: sum(w in stop for w in toks) for lang, stop in _STOPWORDS.items()}
    best = max(score, key=lambda lang: (score[lang], lang))
    return {"lang_guess": best if score[best] else "unknown"}


def ref_repetition(t):
    toks = re.findall(r"[0-9a-z_]+", t.lower())
    bigrams = Counter(zip(toks, toks[1:]))
    nb = len(toks) - 1 if toks else 0
    return {
        "n_bigrams": nb,
        "dup_bigram_frac": 1.0 - len(bigrams) / nb if nb else 0.0,
        "top_bigram_frac": max(bigrams.values()) / nb if nb else 0.0,
    }


def ref_pii(t):
    email, phone = PiiScrub.EMAIL, PiiScrub.PHONE
    t1 = re.sub(email, "<EMAIL>", t)
    return {
        "n_emails": len(re.findall(email, t)),
        "n_phones": len(re.findall(phone, t1)),
        "clean_text": re.sub(phone, "<PHONE>", t1),
    }


def ref_fingerprint(t):
    h = 14695981039346656037
    for c in re.sub(f"[{WS}]+", " ", t).strip(" "):
        h = (h * 1000003 + ord(c)) % (1 << 64)
    return {"fingerprint": h - (1 << 64) if h >= 1 << 63 else h}


STAGES = [
    (TextStats, ref_text_stats),
    (TokenCount, ref_token_count),
    (QualityScore, ref_quality),
    (LangId, ref_langid),
    (RepetitionStats, ref_repetition),
    (PiiScrub, ref_pii),
    (Fingerprint, ref_fingerprint),
]


PARTIALS = {
    _DocFreqPartials: pa.schema([("term", pa.string()), ("pdf", pa.int64())]),
    _TermFreqPartials: pa.schema([("term", pa.string()), ("ptf", pa.int64())]),
}


def _table(texts):
    return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts, pa.string())})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(texts=texts_st)
def test_stages_match_per_row_reference(texts):
    """Every stage keeps the input columns, appends its declared schema
    and gives each row what the per-row reference gives (floats bit for
    bit: the same IEEE operations in the same order)."""
    t = _table(texts)
    for cls, ref in STAGES:
        stage = cls("text")
        out = stage(t)
        assert out.schema == pa.schema(list(t.schema) + list(stage.schema)), cls.__name__
        assert out.select(t.column_names).equals(t)
        got = out.select(stage.schema.names).to_pylist()
        assert got == [ref(x or "") for x in texts], cls.__name__


@settings(max_examples=100, deadline=None)
@given(texts=texts_st)
def test_term_partials_match_per_row_reference(texts):
    """TF-IDF and LM pass-1 partials: per distinct lowercased [A-Za-z0-9]+
    term, the number of rows holding it and its number of occurrences."""
    terms = [[w.lower() for w in re.findall(r"[A-Za-z0-9]+", x or "")] for x in texts]
    pdf = _DocFreqPartials("text")(_table(texts))
    ptf = _TermFreqPartials("text")(_table(texts))
    assert pdf.schema == PARTIALS[_DocFreqPartials] and ptf.schema == PARTIALS[_TermFreqPartials]
    assert dict(zip(*pdf.to_pydict().values())) == Counter(w for row in terms for w in set(row))
    assert dict(zip(*ptf.to_pydict().values())) == Counter(w for row in terms for w in row)


@pytest.mark.parametrize("cls", [cls for cls, _ in STAGES] + list(PARTIALS))
def test_empty_table_gives_declared_schema(cls):
    """A zero-row batch goes through the same code and comes out typed."""
    t = _table([])
    stage = cls("text")
    out = stage(t)
    assert len(out) == 0
    assert out.schema == (PARTIALS[cls] if cls in PARTIALS else pa.schema(list(t.schema) + list(stage.schema)))


# ------------------------------------------- Dataset operators, null int ids


IDS = [[1, None, 3], [4, 5]]
TEXTS = [
    ["Alpha beta gamma delta epsilon zeta eta theta iota kappa", "beta gamma DELTA epsilon zeta eta", ""],
    ["alpha beta alpha beta gamma delta epsilon lambda mu nu xi omicron pi rho", None],
]
BENCH = "gamma delta epsilon zeta eta theta iota"


def _null_id_ds():
    import ray.data

    return ray.data.from_arrow([
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts, pa.string())})
        for ids, texts in zip(IDS, TEXTS)
    ])


def _blocks(ds) -> list:
    import ray

    return [ray.get(ref) for bundle in ds.iter_internal_ref_bundles() for ref, _ in bundle.blocks]


def _rows(ds) -> list[dict]:
    blocks = _blocks(ds)
    for b in blocks:
        assert isinstance(b, pa.Table)
        assert b.schema.field("doc_id").type == pa.int64()
    return [r for b in blocks for r in b.to_pylist()]


def _docs():
    return [(d, t or "") for ids, texts in zip(IDS, TEXTS) for d, t in zip(ids, texts)]


def _key(r):
    return tuple((k, -1 if v is None else v) for k, v in sorted(r.items()))


def _same(got, want):
    assert sorted(map(_key, got)) == sorted(map(_key, want))


def test_lm_quality_keeps_null_int_ids(ray_session):
    from raywin.stages.text import lm_quality

    terms = {d: [w.lower() for w in re.findall(r"[A-Za-z0-9]+", t)] for d, t in _docs()}
    cnt = Counter(w for ws in terms.values() for w in ws)
    total = sum(cnt.values())
    want = []
    for d, ws in terms.items():
        avg = round(sum(math.log(total) - math.log(cnt[w]) for w in ws) / len(ws), 4) if ws else None
        want.append({"doc_id": d, "n_tokens": len(ws), "avg_neg_logp": avg,
                     "unigram_ppl": None if avg is None else round(math.exp(avg), 2)})
    _same(_rows(lm_quality(_null_id_ds(), "text", "doc_id")), want)


def test_chunk_documents_keeps_null_int_ids(ray_session):
    from raywin.stages.text import chunk_documents

    want = []
    for d, t in _docs():
        toks = re.findall(r"[0-9a-z_]+", t.lower())
        for k in range(math.ceil(len(toks) / 3)):  # stride 3: chunks start while k * 3 < n_tokens
            part = toks[k * 3 : k * 3 + 4]
            want.append({"doc_id": d, "chunk_idx": k, "n_chunk_tokens": len(part), "chunk_text": " ".join(part)})
    _same(_rows(chunk_documents(_null_id_ds(), "text", "doc_id", chunk=4, stride=3)), want)


def test_decontaminate_keeps_null_int_ids(ray_session):
    import ray.data

    from raywin.stages.text import decontaminate

    def grams(t):
        toks = re.findall(r"[0-9a-z_]+", t.lower())
        return {tuple(toks[i : i + 3]) for i in range(len(toks) - 2)}

    bench = grams(BENCH)
    want = [{"doc_id": d, "n_grams": len(grams(t)), "n_overlap": len(grams(t) & bench),
             "contaminated": bool(grams(t) & bench)} for d, t in _docs()]
    bench_ds = ray.data.from_arrow(pa.table({"doc_id": [0], "text": [BENCH]}))
    _same(_rows(decontaminate(_null_id_ds(), bench_ds, "text", "doc_id", n=3)), want)


def test_tfidf_top_terms_keeps_null_int_ids(ray_session):
    from raywin.stages.text import tfidf_top_terms

    docs = _docs()
    terms = [[w.lower() for w in re.findall(r"[A-Za-z0-9]+", t)] for _, t in docs]
    df = Counter(w for ws in terms for w in set(ws))
    want = []
    for (d, _), ws in zip(docs, terms):
        scored = sorted(((-n * math.log(len(docs) / df[w]), w) for w, n in Counter(ws).items()))
        want += [{"doc_id": d, "term": w, "rank": i + 1, "tfidf": -s} for i, (s, w) in enumerate(scored[:2])]
    got = _rows(tfidf_top_terms(_null_id_ds(), "text", "doc_id", k=2))
    _same([dict(r, tfidf=round(r["tfidf"], 9)) for r in got], [dict(r, tfidf=round(r["tfidf"], 9)) for r in want])
