"""Text analysis stages: token counting, quality scoring, language-ID,
document fingerprinting.  All vectorized pandas/numpy inside map_batches
tasks; each stage is an instance whose regexes compile once, in its
constructor."""

from __future__ import annotations

import numpy as np
import pandas as pd

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "et", "de", "un", "une", "est", "que", "pour", "dans"},
    "de": {"der", "die", "und", "das", "ist", "ein", "eine", "zu", "mit", "von"},
    "es": {"el", "la", "y", "de", "que", "en", "un", "una", "es", "por"},
}


class TextStats:
    """Adds n_chars2, n_tokens, avg_token_len, alpha_ratio, digit_ratio,
    upper_ratio, quality_score. SQL-oracle-friendly definitions:
    n_tokens = count of [A-Za-z0-9]+ runs."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.tok = re.compile(r"[A-Za-z0-9]+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].fillna("")
        toks = s.str.findall(self.tok)
        n_tok = toks.str.len().astype("int64")
        # tokens are maximal [A-Za-z0-9] runs, so the summed token length IS
        # the alnum char count — one vectorized str.count, no per-row lambda
        tok_chars = s.str.count(r"[A-Za-z0-9]").astype("int64")
        n_chars = s.str.len().astype("int64")
        batch["n_chars2"] = n_chars
        batch["n_tokens"] = n_tok
        batch["avg_token_len"] = np.where(n_tok > 0, tok_chars / n_tok.clip(lower=1), np.nan)
        batch["alpha_ratio"] = np.where(
            n_chars > 0, s.str.count(r"[A-Za-z]") / n_chars.clip(lower=1), np.nan
        )
        batch["digit_ratio"] = np.where(
            n_chars > 0, s.str.count(r"[0-9]") / n_chars.clip(lower=1), np.nan
        )
        batch["upper_ratio"] = np.where(
            n_chars > 0, s.str.count(r"[A-Z]") / n_chars.clip(lower=1), np.nan
        )
        return batch


_WS = " \\t\\n\\r\\f\\v"  # explicit ASCII whitespace: Python re and RE2 agree


class TokenCount:
    """Whitespace + BPE-style pre-tokenizer token counts (the brief's
    "token counting (whitespace + a BPE-ish regex)" item).

    n_ws_tokens  = maximal non-whitespace runs.
    n_bpe_tokens = matches of a GPT-2-style pre-tokenizer: contraction
    suffixes ('s 't 're 've 'll 'd 'm), letter runs, digit runs, and
    punctuation runs — the split BPE merge tables operate on.  Alternatives
    are disjoint-prefixed, so leftmost-first (Python re) and
    leftmost-longest (RE2 POSIX mode) tokenize identically, and the
    whitespace class is spelled out in ASCII so both engines agree on any
    input.  punct_token_ratio = punctuation runs / bpe tokens."""

    BPE_PAT = f"'(?:[sdmt]|ll|ve|re)|[A-Za-z]+|[0-9]+|[^A-Za-z0-9{_WS}']+|'"
    WS_PAT = f"[^{_WS}]+"
    PUNCT_PAT = f"[^A-Za-z0-9{_WS}']+|'"

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].fillna("")
        n_bpe = s.str.count(self.BPE_PAT).astype("int64")
        # contraction matches start with ' and are not punct runs; a lone '
        # (not followed by a contraction suffix) counts as punctuation
        n_contr = s.str.count("'(?:[sdmt]|ll|ve|re)").astype("int64")
        n_punct = s.str.count(self.PUNCT_PAT).astype("int64") - n_contr
        batch["n_ws_tokens"] = s.str.count(self.WS_PAT).astype("int64")
        batch["n_bpe_tokens"] = n_bpe
        batch["punct_token_ratio"] = np.where(
            n_bpe > 0, n_punct / n_bpe.clip(lower=1), np.nan
        )
        return batch


class QualityScore:
    """Heuristic document quality in [0,1]: length band + alpha ratio +
    repetition penalty (distinct-token ratio).  ASCII token class + explicit
    IEEE expression order so the DuckDB oracle reproduces it exactly."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.tok = re.compile(r"[0-9A-Za-z_]+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].reset_index(drop=True).fillna("")
        toks = s.str.findall(self.tok)
        exl = toks.explode().dropna().str.lower()
        n = len(batch)
        n_tok = toks.str.len().to_numpy()
        distinct = np.zeros(n, dtype=np.int64)
        if len(exl):
            g = exl.groupby(level=0).nunique()
            distinct[g.index.to_numpy()] = g.to_numpy()
        dr = distinct.astype(np.float64) / np.maximum(n_tok, 1)
        ln = s.str.len().to_numpy()
        ls = np.sqrt(np.minimum(ln, 2000).astype(np.float64) / 2000.0)
        al = s.str.count(r"[A-Za-z]").to_numpy().astype(np.float64) / np.maximum(ln, 1)
        batch["quality_score"] = 0.4 * ls + 0.4 * al + 0.2 * dr
        return batch


class LangId:
    """Stopword-heuristic language guess over a fixed language set —
    vectorized: tokens exploded once, one isin per language, positional
    add.at accumulation (no per-document Python loop)."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.tok = re.compile(r"[a-zà-ÿäöüß]+")
        self.langs = sorted(_STOPWORDS)  # tie -> lexicographically LARGEST wins
        self.stop = _STOPWORDS

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].reset_index(drop=True).fillna("").str.lower()
        toks = s.str.findall(self.tok)
        ex = toks.explode().dropna()
        n = len(batch)
        scores = np.zeros((n, len(self.langs)), dtype=np.int64)
        if len(ex):
            pos = ex.index.to_numpy()
            for j, lang in enumerate(self.langs):
                hit = ex.isin(self.stop[lang]).to_numpy()
                np.add.at(scores[:, j], pos[hit], 1)
        # argmax with ties to the LARGEST lang name (matches
        # max(langs, key=lambda l: (score, l)))
        rev_pick = scores.shape[1] - 1 - np.argmax(scores[:, ::-1], axis=1)
        best = scores[np.arange(n), rev_pick]
        lang_arr = np.asarray(self.langs, dtype=object)
        batch["lang_guess"] = np.where(best > 0, lang_arr[rev_pick], "unknown")
        return batch


class RepetitionStats:
    """Gopher-style repetition quality signals over lowercase word tokens:
    duplicate-bigram fraction and top-bigram share — the standard "document
    is boilerplate/spam" filters in LLM corpus prep (Rae et al. 2021 §A1.1).

    Vectorized: tokens exploded once; consecutive-pair mask builds all
    bigrams batch-wide; per-doc distinct/top counts via pandas groupby —
    no per-document Python loop.  SQL-reproducible (list_distinct +
    unnest counts)."""

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.tok = re.compile(r"[0-9a-z_]+")

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].reset_index(drop=True).fillna("").str.lower()
        toks = s.str.findall(self.tok)
        n = len(batch)
        n_tok = toks.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode().dropna()
        n_bg = np.maximum(n_tok - 1, 0)
        dup_frac = np.zeros(n, dtype=np.float64)
        top_frac = np.zeros(n, dtype=np.float64)
        if len(ex):
            vals = ex.to_numpy()
            pos = ex.index.to_numpy()
            same = pos[1:] == pos[:-1]
            if same.any():
                first = vals[:-1][same]
                second = vals[1:][same]
                bpos = pos[:-1][same]
                codes, _ = pd.factorize(
                    pd.Series(first, dtype=object) + "\x1f" + pd.Series(second, dtype=object)
                )
                df = pd.DataFrame({"p": bpos, "c": codes})
                per = df.groupby("p")["c"]
                distinct = per.nunique()
                topc = df.groupby(["p", "c"]).size().groupby(level=0).max()
                idx = distinct.index.to_numpy()
                nb = n_bg[idx].astype(np.float64)
                dup_frac[idx] = 1.0 - distinct.to_numpy() / nb
                top_frac[idx] = topc.to_numpy() / nb
        batch["n_bigrams"] = n_bg
        batch["dup_bigram_frac"] = dup_frac
        batch["top_bigram_frac"] = top_frac
        return batch


class PiiScrub:
    """PII scrubbing for corpus prep: emails then phone-like digit runs are
    replaced with placeholder tokens, with per-row match counts.  Patterns
    compiled once, in the constructor; RE2-safe
    syntax so the DuckDB oracle (regexp_replace/regexp_extract_all) matches
    byte for byte.  Order is part of the contract: emails are counted and
    replaced on the original text, phones on the email-scrubbed text."""

    EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
    PHONE = r"\+?[0-9][0-9()\- ]{6,}[0-9]"

    def __init__(self, text_col: str = "text", out_col: str = "clean_text"):
        import re

        self.text_col = text_col
        self.out_col = out_col
        self.email = re.compile(self.EMAIL)
        self.phone = re.compile(self.PHONE)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[self.text_col].fillna("")
        batch["n_emails"] = s.str.count(self.email).astype("int64")
        s1 = s.str.replace(self.email, "<EMAIL>", regex=True)
        batch["n_phones"] = s1.str.count(self.phone).astype("int64")
        batch[self.out_col] = s1.str.replace(self.phone, "<PHONE>", regex=True)
        return batch


_GRAM_TOK_PAT = r"[0-9a-z_]+"


def _word_gram_hashes(texts: pd.Series, n: int, with_starts: bool = False):
    """Vectorized word n-gram hashes over lowercase `[0-9a-z_]+` tokens:
    returns (gh: uint64[m], pos: int64[m]) where gh[i] is the Horner hash of
    n consecutive token hashes and pos[i] the 0-based row the gram belongs
    to.  With ``with_starts`` also returns start: int64[m], the gram's
    0-based token offset WITHIN its row's token stream (what span-removal
    needs to address covered tokens).  Hash = FNV offset seeded Horner with
    multiplier 1000003 over `horner_texts` token hashes — collision-free in
    practice at 64 bits; oracles compare the chr(31)-joined gram STRINGS
    instead (same construction, DUPLICATE_SPANS_SQL / DECONTAMINATE_SQL)."""
    import re

    from ..functions.texthash import horner_texts

    tok_re = re.compile(_GRAM_TOK_PAT)
    s = texts.reset_index(drop=True).fillna("").str.lower()
    toks = s.str.findall(tok_re)
    ex = toks.explode().dropna()
    empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
    if len(ex) == 0:
        return empty + (empty[1],) if with_starts else empty
    th = horner_texts(ex.tolist())  # uint64 token hashes, vectorized
    pos = ex.index.to_numpy()
    m = len(th) - n + 1
    if m <= 0:
        return empty + (empty[1],) if with_starts else empty
    with np.errstate(over="ignore"):
        gh = np.full(m, np.uint64(14695981039346656037), dtype=np.uint64)
        for j in range(n):
            gh = gh * np.uint64(1000003) + th[j : j + m]
    # a gram is valid only when all n tokens belong to the same document
    valid = pos[:m] == pos[n - 1 :]
    if not with_starts:
        return gh[valid], pos[:m][valid].astype(np.int64)
    # token index within its row: arange minus each row's first exploded slot
    row_first = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
    counts = np.diff(np.r_[row_first, len(pos)])
    tok_idx = np.arange(len(pos), dtype=np.int64) - np.repeat(row_first, counts)
    return gh[valid], pos[:m][valid].astype(np.int64), tok_idx[:m][valid]


def chunk_documents(ds, text_col: str, id_col: str, chunk: int = 32,
                    stride: int = 24):
    """Fixed-size overlapping token-window chunking (the context-window prep
    step before packing/embedding): chunk k of a document covers tokens
    [k*stride, k*stride + chunk); chunks are emitted while k*stride <
    n_tokens, so every token lands in >= 1 chunk and the final chunk may be
    short.  Tokens are the engine's standard lowercase `[0-9a-z_]+` rule so
    the SQL oracle reproduces chunks exactly.

    Scale shape: pure flat_map — one map_batches, no shuffle; output rows ~
    n_tokens / stride.  Returns (id, chunk_idx, n_chunk_tokens,
    chunk_text); token-free docs emit no chunks."""
    import re

    tok_re = re.compile(_GRAM_TOK_PAT)

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].fillna("").str.lower().str.findall(tok_re)
        counts = toks.str.len().to_numpy(dtype=np.int64)
        n_chunks = np.where(counts > 0, (counts - 1) // stride + 1, 0)
        total = int(n_chunks.sum())
        off = np.zeros(len(n_chunks), dtype=np.int64)
        np.cumsum(n_chunks[:-1], out=off[1:])
        cidx = np.arange(total, dtype=np.int64) - np.repeat(off, n_chunks)
        rows = np.repeat(np.arange(len(counts)), n_chunks)
        tok_lists = toks.to_numpy()
        texts_out = [
            " ".join(tok_lists[r][k * stride : k * stride + chunk])
            for r, k in zip(rows, cidx)
        ]
        return pd.DataFrame(
            {
                id_col: np.repeat(batch[id_col].to_numpy(), n_chunks),
                "chunk_idx": cidx,
                "n_chunk_tokens": np.minimum(
                    chunk, counts[rows] - cidx * stride
                ).astype("int64"),
                "chunk_text": texts_out,
            }
        )

    return ds.map_batches(explode, batch_format="pandas")


def duplicate_span_stats(ds, text_col: str, id_col: str, n: int = 5,
                         hot: int = 2):
    """Cross-document duplicated-span signal (Lee et al. 2022 / Gopher
    repetition, corpus-wide): for each document, the fraction of its word
    n-grams that occur >= `hot` times in the WHOLE corpus, plus the max
    corpus frequency any of its n-grams reaches — the standard 'this text
    is boilerplate copied across the crawl' filter.

    Scale shape: only (doc_id, gram_hash) rows ride the exchanges (8 B/gram,
    never text).  One shuffle keyed by gram hash — all occurrences of a gram
    land in one bucket, so counting and flagging happen in the same task —
    then one shuffle keyed by doc for the per-document fraction."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..stages.shuffle import _arrow_schema, co_partition, declare_schema

    def grams(batch: pa.Table) -> pa.Table:
        gh, gpos = _word_gram_hashes(batch[text_col].to_pandas(), n)
        return pa.table({id_col: batch[id_col].take(gpos), "gh": gh.view(np.int64)})

    def flag(t: pa.Table) -> pa.Table:
        _, inv, cnt = np.unique(t["gh"].to_numpy(), return_inverse=True, return_counts=True)
        return pa.table({id_col: t[id_col], "dup": cnt[inv] >= hot, "freq": cnt[inv]})

    def per_doc(t: pa.Table) -> pa.Table:
        agg = t.group_by(id_col).aggregate([("dup", "count"), ("dup", "sum"), ("freq", "max")])
        n_grams = agg["dup_count"]
        return pa.table({
            id_col: agg[id_col],
            "n_grams": n_grams,
            "dup_gram_frac": pc.divide(agg["dup_sum"].cast(pa.float64()), n_grams.cast(pa.float64())),
            "max_gram_freq": agg["freq_max"],
        })

    rows = ds.map_batches(grams, batch_format="pyarrow")
    id_field = _arrow_schema(ds).field(id_col)
    flagged = co_partition(declare_schema(rows, pa.schema([id_field, pa.field("gh", pa.int64())])), ["gh"], flag)
    flags = pa.schema([id_field, pa.field("dup", pa.bool_()), pa.field("freq", pa.int64())])
    return co_partition(declare_schema(flagged, flags), [id_col], per_doc)


class Fingerprint:
    """Deterministic 64-bit document fingerprint: Horner polynomial hash of
    the whitespace-normalized text's code points — fully vectorized (one
    concatenated codepoint array per batch, no per-byte Python loop) and
    SQL-reproducible (functions/texthash.py defines the DuckDB equivalent)."""

    def __init__(self, text_col: str = "text", out_col: str = "fingerprint"):
        self.text_col = text_col
        self.out_col = out_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        from ..functions.texthash import horner_texts, normalize_ws, to_signed

        norm = normalize_ws(batch[self.text_col])
        batch[self.out_col] = to_signed(horner_texts(norm.tolist()))
        return batch


class _DocFreqPartials:
    """map_batches combiner for TF-IDF pass 1: per-batch document-frequency
    partials — one (term, pdf) row per distinct term per batch, so the term
    exchange that follows moves vocabulary-sized data, never token streams."""

    TERM_PAT = r"[A-Za-z0-9]+"

    def __init__(self, text_col: str = "text"):
        import re

        self.text_col = text_col
        self.tok = re.compile(self.TERM_PAT)

    def doc_terms(self, batch: pd.DataFrame):
        """(term_lists, exploded_lowercased_terms) for a batch — terms are
        ASCII-only runs, so Python .lower() and DuckDB lower() agree on any
        input (no locale/unicode case-folding divergence)."""
        lists = batch[self.text_col].fillna("").map(self.tok.findall)
        lens = lists.map(len).to_numpy()
        flat = (
            np.asarray([t.lower() for row in lists for t in row], dtype=object)
            if lens.sum()
            else np.empty(0, dtype=object)
        )
        return lens, flat

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        lens, flat = self.doc_terms(batch)
        doc_idx = np.repeat(np.arange(len(batch)), lens)
        if not len(flat):
            return pd.DataFrame({"term": pd.Series([], dtype=object), "pdf": pd.Series([], dtype="int64")})
        pairs = pd.DataFrame({"d": doc_idx, "term": flat}).drop_duplicates()
        vc = pairs["term"].value_counts(sort=False)
        return pd.DataFrame({"term": vc.index.to_numpy(dtype=object), "pdf": vc.to_numpy().astype("int64")})


class _TfIdfTopK:
    """TF-IDF pass 2: re-tokenize each doc, score tf * ln(n_docs / df)
    against the broadcast idf table, emit the top-k terms per doc (ties:
    higher tfidf first, then term ascending).  Entirely local to the batch —
    a doc's tokens never leave the block, so no shuffle at any corpus size."""

    def __init__(self, df_ref, n_docs: int, k: int, text_col: str, id_col: str):
        self.inner = _DocFreqPartials(text_col)
        self.df_ref = df_ref
        self.n_docs = n_docs
        self.df_map = None  # term -> idf, built on the first batch of each task
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.df_map is None:
            import ray

            terms, dfs = ray.get(self.df_ref)
            self.df_map = dict(zip(terms, np.log(self.n_docs / dfs)))
        lens, flat = self.inner.doc_terms(batch)
        if not len(flat):
            return pd.DataFrame(
                {self.id_col: batch[self.id_col].iloc[:0], "term": pd.Series([], dtype=object),
                 "rank": pd.Series([], dtype="int64"), "tfidf": pd.Series([], dtype="float64")}
            )
        doc_ids = batch[self.id_col].to_numpy()[np.repeat(np.arange(len(batch)), lens)]
        tf = (
            pd.DataFrame({self.id_col: doc_ids, "term": flat})
            .groupby([self.id_col, "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )
        idf = tf["term"].map(self.df_map).to_numpy()
        tf["tfidf"] = tf["tf"].to_numpy() * idf
        tf = tf.sort_values([self.id_col, "tfidf", "term"], ascending=[True, False, True])
        tf["rank"] = tf.groupby(self.id_col, sort=False).cumcount() + 1
        out = tf[tf["rank"] <= self.k]
        return pd.DataFrame(
            {self.id_col: out[self.id_col].to_numpy(), "term": out["term"].to_numpy(),
             "rank": out["rank"].to_numpy().astype("int64"),
             "tfidf": out["tfidf"].to_numpy().astype("float64")}
        )


def tfidf_top_terms(ds, text_col: str, id_col: str, k: int = 3,
                    broadcast_cutoff: int = 5_000_000):
    """Top-k TF-IDF terms per document: (id, term, rank, tfidf).

    Scale shape: pass 1 streams the corpus once emitting per-batch
    document-frequency PARTIALS (vocabulary-sized, never token streams) into
    one small term-keyed exchange; the combined idf table is broadcast with
    ``ray.put`` (count-gated at ``broadcast_cutoff`` terms, same gate
    pattern as the join's small mode); pass 2 streams the corpus again,
    scoring and top-k'ing fully inside each batch — a document's tokens
    never ride a shuffle.  Tokens are ASCII [A-Za-z0-9]+ runs lowercased
    (identical semantics in Python re and DuckDB RE2/lower)."""
    import ray
    from ray.data.aggregate import Sum

    dfreq = (
        ds.map_batches(_DocFreqPartials(text_col), batch_format="pandas")
        .groupby("term")
        .aggregate(Sum("pdf", alias_name="df"))
        .materialize()
    )
    n_terms = dfreq.count()
    if n_terms > broadcast_cutoff:
        raise ValueError(
            f"vocabulary {n_terms} exceeds broadcast_cutoff={broadcast_cutoff}: "
            "raise the cutoff (the idf table is ~40 B/term) or pre-filter "
            "terms by min document frequency before broadcasting"
        )
    dft = dfreq.to_pandas()
    n_docs = ds.count()
    df_ref = ray.put(
        (dft["term"].to_numpy(dtype=object), dft["df"].to_numpy().astype(np.float64))
    )
    return ds.map_batches(_TfIdfTopK(df_ref, n_docs, k, text_col, id_col), batch_format="pandas")


class _TermFreqPartials:
    """map_batches combiner for the unigram LM pass 1: per-batch TERM
    FREQUENCY partials (one (term, ptf) row per distinct term per batch) —
    the exchange that follows moves vocabulary-sized data, never the token
    stream.  Same token semantics as TF-IDF (`_DocFreqPartials.doc_terms`)."""

    def __init__(self, text_col: str = "text"):
        self.inner = _DocFreqPartials(text_col)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        _, flat = self.inner.doc_terms(batch)
        if not len(flat):
            return pd.DataFrame(
                {"term": pd.Series([], dtype=object), "ptf": pd.Series([], dtype="int64")}
            )
        vc = pd.Series(flat, dtype=object).value_counts(sort=False)
        return pd.DataFrame(
            {"term": vc.index.to_numpy(dtype=object), "ptf": vc.to_numpy().astype("int64")}
        )


class _LmScore:
    """Unigram LM pass 2: score each document's tokens against the broadcast
    corpus term-frequency table — per-token surprisal -ln p(t) computed as
    ln(total) - ln(cnt_t) so both engines evaluate the identical doubles.
    Entirely local to the batch (no shuffle at any corpus size).

    Cross-engine determinism: the per-doc MEAN surprisal is a float sum whose
    accumulation order differs between numpy (pairwise) and DuckDB
    (sequential); both agree to ~1e-12, so the emitted score is rounded to 4
    decimals ON BOTH SIDES — far coarser than the divergence, far finer than
    the harness's round(6) hash."""

    def __init__(self, tf_ref, total_tokens: int, text_col: str, id_col: str):
        self.inner = _DocFreqPartials(text_col)
        self.tf_ref = tf_ref
        self.cnt_map = None  # term -> ln count, built on the first batch of each task
        self.ln_total = float(np.log(total_tokens)) if total_tokens else 0.0
        self.id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.cnt_map is None:
            import ray

            terms, cnts = ray.get(self.tf_ref)
            self.cnt_map = pd.Series(np.log(cnts), index=terms)
        lens, flat = self.inner.doc_terms(batch)
        n = len(batch)
        n_tok = lens.astype(np.int64)
        avg = np.full(n, np.nan)
        if len(flat):
            doc_idx = np.repeat(np.arange(n), lens)
            # per-token surprisal; vocabulary lookup vectorized on the
            # unique terms of the batch only
            uniq, inv = np.unique(flat, return_inverse=True)
            ln_cnt = self.cnt_map.reindex(uniq).to_numpy()
            val = self.ln_total - ln_cnt[inv]
            sums = np.bincount(doc_idx, weights=val, minlength=n)
            nz = n_tok > 0
            avg[nz] = np.round(sums[nz] / n_tok[nz], 4)
        ppl = np.round(np.exp(avg), 2)
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "n_tokens": n_tok,
                "avg_neg_logp": avg,
                "unigram_ppl": ppl,
            }
        )


def lm_quality(ds, text_col: str, id_col: str, broadcast_cutoff: int = 5_000_000):
    """CCNet-style unigram language-model quality score per document
    (Wenzek et al. 2020 train a 5-gram KenLM; the unigram variant keeps the
    same pipeline shape with a corpus-derived model — no external data):
    (id, n_tokens, avg_neg_logp, unigram_ppl).  High perplexity = the
    document's vocabulary is atypical for the corpus (gibberish / spam);
    the standard corpus-prep quality filter alongside Gopher repetition.

    Scale shape (same as tfidf_top_terms): pass 1 streams the corpus once
    emitting per-batch term-frequency PARTIALS into one vocabulary-sized
    term exchange; the model (term -> count) is broadcast with ray.put
    (count-gated); pass 2 streams the corpus scoring fully inside each
    batch — a document's tokens never ride a shuffle."""
    import ray
    from ray.data.aggregate import Sum

    tf = (
        ds.map_batches(_TermFreqPartials(text_col), batch_format="pandas")
        .groupby("term")
        .aggregate(Sum("ptf", alias_name="tf"))
        .materialize()
    )
    n_terms = tf.count()
    if n_terms > broadcast_cutoff:
        raise ValueError(
            f"vocabulary {n_terms} exceeds broadcast_cutoff={broadcast_cutoff}: "
            "raise the cutoff (~40 B/term) or min-count-prune the vocabulary "
            "before broadcasting"
        )
    tft = tf.to_pandas()
    total = int(tft["tf"].sum())
    tf_ref = ray.put(
        (tft["term"].to_numpy(dtype=object), tft["tf"].to_numpy().astype(np.float64))
    )
    return ds.map_batches(_LmScore(tf_ref, total, text_col, id_col), batch_format="pandas")


class _ContamScore:
    """Decontamination pass 2: count each candidate document's distinct word
    n-grams that appear in the broadcast benchmark gram set.  Entirely local
    to the batch — membership is a searchsorted probe against the sorted
    benchmark hash array, no shuffle at any corpus size."""

    def __init__(self, bench_ref, n: int, min_overlap: int,
                 text_col: str, id_col: str):
        self.bench_ref = bench_ref  # sorted uint64 gram hashes
        self.n = n
        self.min_overlap = min_overlap
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        import ray

        n_rows = len(batch)
        n_grams = np.zeros(n_rows, dtype=np.int64)
        n_overlap = np.zeros(n_rows, dtype=np.int64)
        gh, pos = _word_gram_hashes(batch[self.text_col], self.n)
        if len(gh):
            # distinct (doc, gram) pairs: sort by (pos, gh), drop adjacent dups
            order = np.lexsort((gh, pos))
            gh, pos = gh[order], pos[order]
            keep = np.ones(len(gh), dtype=bool)
            keep[1:] = (pos[1:] != pos[:-1]) | (gh[1:] != gh[:-1])
            gh, pos = gh[keep], pos[keep]
            np.add.at(n_grams, pos, 1)
            bench = ray.get(self.bench_ref)
            if len(bench):
                idx = np.searchsorted(bench, gh)
                idx[idx == len(bench)] = 0
                hit = bench[idx] == gh
                np.add.at(n_overlap, pos[hit], 1)
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].to_numpy(),
                "n_grams": n_grams,
                "n_overlap": n_overlap,
                "contaminated": n_overlap >= self.min_overlap,
            }
        )


def decontaminate(ds, bench_ds, text_col: str, id_col: str, n: int = 5,
                  min_overlap: int = 1, broadcast_cutoff: int = 50_000_000):
    """Benchmark decontamination (GPT-3 appx C / PaLM style): flag every
    candidate document sharing >= `min_overlap` distinct word n-grams with a
    held-out benchmark set, so evaluation data can be excluded from the
    training split.  Output: (id, n_grams, n_overlap, contaminated) — one
    row per candidate doc, zero-gram docs included (never contaminated).

    Scale shape: the benchmark side (small by construction) streams once
    emitting per-batch distinct gram hashes into one gram-keyed exchange;
    the distinct set is broadcast with ray.put (count-gated, 8 B/gram);
    the candidate corpus then streams ONCE with all scoring local to the
    batch — candidate text and grams never ride a shuffle."""
    import pyarrow as pa
    import ray
    from ray.data.aggregate import Count

    def bench_grams(batch: pd.DataFrame) -> pa.Table:
        gh, _ = _word_gram_hashes(batch[text_col], n)
        return pa.table({"gh": pa.array(np.unique(gh).view(np.int64), type=pa.int64())})

    uniq = (
        bench_ds.map_batches(bench_grams, batch_format="pandas")
        .groupby("gh")
        .aggregate(Count(alias_name="c"))
        .materialize()
    )
    n_bench = uniq.count()
    if n_bench > broadcast_cutoff:
        raise ValueError(
            f"benchmark gram set {n_bench} exceeds broadcast_cutoff="
            f"{broadcast_cutoff}: shard the benchmark or raise the cutoff "
            "(8 B/gram broadcast)"
        )
    ghs = np.sort(uniq.to_pandas()["gh"].to_numpy().view(np.uint64))
    bench_ref = ray.put(ghs)
    return ds.map_batches(
        _ContamScore(bench_ref, n, min_overlap, text_col, id_col), batch_format="pandas"
    )
