"""Text analysis stages: token counting, quality scoring, language-ID,
document fingerprinting.  Every stage takes and returns a ``pa.Table``:
regexes are Python ``re`` (compiled once, in the constructor) applied per
document, counts and ratios are numpy arrays over the batch, and each
output column has a fixed Arrow type (id columns keep the input's), so a
zero-row batch gives typed empty output through the same code."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

from .shuffle import _seq_within

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "fr": {"le", "la", "et", "de", "un", "une", "est", "que", "pour", "dans"},
    "de": {"der", "die", "und", "das", "ist", "ein", "eine", "zu", "mit", "von"},
    "es": {"el", "la", "y", "de", "que", "en", "un", "una", "es", "por"},
}


def _texts(texts) -> list[str]:
    """A sequence of strings with null as ''."""
    return [t or "" for t in texts]


def _lens(xs) -> np.ndarray:
    return np.fromiter(map(len, xs), np.int64, len(xs))


def _count(rx, texts: list[str]) -> np.ndarray:
    """Non-overlapping matches of ``rx`` per text (pandas' ``str.count``)."""
    return np.fromiter((len(rx.findall(t)) for t in texts), np.int64, len(texts))


def _explode(lists):
    """Per-row lists flattened: each row's item count, and each item's row,
    0-based position within its row and value."""
    counts = _lens(lists)
    rows = np.repeat(np.arange(len(lists)), counts)
    return counts, rows, _seq_within(counts), [x for row in lists for x in row]


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, NaN (a null once appended) where den is 0."""
    return np.where(den > 0, num / np.maximum(den, 1), np.nan)


def _append(batch: pa.Table, schema: pa.Schema, arrays) -> pa.Table:
    """``batch`` with one column per field of ``schema`` (NaN as null)."""
    for f, a in zip(schema, arrays):
        batch = batch.append_column(f, pa.array(a, type=f.type, from_pandas=True))
    return batch


_F64, _I64 = pa.float64(), pa.int64()


class TextStats:
    """Adds n_chars2, n_tokens, avg_token_len, alpha_ratio, digit_ratio,
    upper_ratio. SQL-oracle-friendly definitions: n_tokens = count of
    [A-Za-z0-9]+ runs; a ratio over zero tokens or chars is null."""

    schema = pa.schema([("n_chars2", _I64), ("n_tokens", _I64), ("avg_token_len", _F64),
                        ("alpha_ratio", _F64), ("digit_ratio", _F64), ("upper_ratio", _F64)])

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(r"[A-Za-z0-9]+")
        self.classes = [re.compile(p) for p in ("[A-Za-z0-9]", "[A-Za-z]", "[0-9]", "[A-Z]")]

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = _texts(batch[self.text_col].to_pylist())
        n_tok, n_chars = _count(self.tok, s), _lens(s)
        # tokens are maximal [A-Za-z0-9] runs, so the summed token length IS
        # the alnum char count
        tok_chars, alpha, digit, upper = (_count(c, s) for c in self.classes)
        return _append(batch, self.schema, [
            n_chars, n_tok, _ratio(tok_chars, n_tok),
            _ratio(alpha, n_chars), _ratio(digit, n_chars), _ratio(upper, n_chars),
        ])


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
    CONTR_PAT = "'(?:[sdmt]|ll|ve|re)"

    schema = pa.schema([("n_ws_tokens", _I64), ("n_bpe_tokens", _I64), ("punct_token_ratio", _F64)])

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.ws, self.bpe, self.punct, self.contr = (
            re.compile(p) for p in (self.WS_PAT, self.BPE_PAT, self.PUNCT_PAT, self.CONTR_PAT)
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = _texts(batch[self.text_col].to_pylist())
        n_bpe = _count(self.bpe, s)
        # contraction matches start with ' and are not punct runs; a lone '
        # (not followed by a contraction suffix) counts as punctuation
        n_punct = _count(self.punct, s) - _count(self.contr, s)
        return _append(batch, self.schema, [_count(self.ws, s), n_bpe, _ratio(n_punct, n_bpe)])


class QualityScore:
    """Heuristic document quality in [0,1]: length band + alpha ratio +
    repetition penalty (distinct-token ratio).  ASCII token class + explicit
    IEEE expression order so the DuckDB oracle reproduces it exactly."""

    schema = pa.schema([("quality_score", _F64)])

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(r"[0-9A-Za-z_]+")
        self.alpha = re.compile(r"[A-Za-z]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        s = _texts(batch[self.text_col].to_pylist())
        toks = [self.tok.findall(t) for t in s]
        distinct = np.fromiter((len({w.lower() for w in tk}) for tk in toks), np.int64, len(toks))
        dr = distinct.astype(np.float64) / np.maximum(_lens(toks), 1)
        ln = _lens(s)
        ls = np.sqrt(np.minimum(ln, 2000).astype(np.float64) / 2000.0)
        al = _count(self.alpha, s).astype(np.float64) / np.maximum(ln, 1)
        return _append(batch, self.schema, [0.4 * ls + 0.4 * al + 0.2 * dr])


class LangId:
    """Stopword-heuristic language guess over a fixed language set: the
    language whose stopwords make up most of a document's lowercase
    tokens, ties to the lexicographically largest name, "unknown" when no
    token is a stopword."""

    schema = pa.schema([("lang_guess", pa.string())])

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(r"[a-zà-ÿäöüß]+")
        self.langs = sorted(_STOPWORDS)  # tie -> lexicographically LARGEST wins
        self.stop = _STOPWORDS

    def __call__(self, batch: pa.Table) -> pa.Table:
        toks = [self.tok.findall(t.lower()) for t in _texts(batch[self.text_col].to_pylist())]
        scores = np.array(
            [[sum(w in self.stop[lang] for w in tk) for lang in self.langs] for tk in toks], dtype=np.int64
        ).reshape(len(toks), len(self.langs))
        # argmax with ties to the LARGEST lang name (matches
        # max(langs, key=lambda l: (score, l)))
        rev_pick = scores.shape[1] - 1 - np.argmax(scores[:, ::-1], axis=1)
        best = scores[np.arange(len(toks)), rev_pick]
        return _append(batch, self.schema, [np.where(best > 0, np.asarray(self.langs)[rev_pick], "unknown")])


class RepetitionStats:
    """Gopher-style repetition quality signals over lowercase word tokens:
    duplicate-bigram fraction and top-bigram share — the standard "document
    is boilerplate/spam" filters in LLM corpus prep (Rae et al. 2021 §A1.1).
    A document with fewer than two tokens has no bigrams and scores 0.
    SQL-reproducible (list_distinct + unnest counts)."""

    schema = pa.schema([("n_bigrams", _I64), ("dup_bigram_frac", _F64), ("top_bigram_frac", _F64)])

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(r"[0-9a-z_]+")

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        toks = [self.tok.findall(t.lower()) for t in _texts(batch[self.text_col].to_pylist())]
        n_bg = np.maximum(_lens(toks) - 1, 0)
        dup_frac = np.zeros(len(toks))
        top_frac = np.zeros(len(toks))
        for i in np.flatnonzero(n_bg):
            c = Counter(zip(toks[i], toks[i][1:]))
            dup_frac[i] = 1.0 - len(c) / n_bg[i]
            top_frac[i] = max(c.values()) / n_bg[i]
        return _append(batch, self.schema, [n_bg, dup_frac, top_frac])


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
        self.text_col = text_col
        self.schema = pa.schema([("n_emails", _I64), ("n_phones", _I64), (out_col, pa.string())])
        self.email = re.compile(self.EMAIL)
        self.phone = re.compile(self.PHONE)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # subn's count is the number of matches: neither pattern matches ''
        emails = [self.email.subn("<EMAIL>", t) for t in _texts(batch[self.text_col].to_pylist())]
        phones = [self.phone.subn("<PHONE>", t) for t, _ in emails]
        return _append(batch, self.schema, [[n for _, n in emails], [n for _, n in phones], [t for t, _ in phones]])


_GRAM_TOK_PAT = r"[0-9a-z_]+"


def _word_gram_hashes(texts, n: int, with_starts: bool = False):
    """Vectorized word n-gram hashes over a sequence of texts (null as ''),
    tokens lowercase `[0-9a-z_]+`: returns (gh: uint64[m], pos: int64[m])
    where gh[i] is the Horner hash of n consecutive token hashes and pos[i]
    the 0-based row the gram belongs to.  With ``with_starts`` also returns
    start: int64[m], the gram's 0-based token offset WITHIN its row's token
    stream (what span-removal needs to address covered tokens).  Hash = FNV
    offset seeded Horner with multiplier 1000003 over `horner_texts` token
    hashes — collision-free in practice at 64 bits; oracles compare the
    chr(31)-joined gram STRINGS instead (same construction,
    DUPLICATE_SPANS_SQL / DECONTAMINATE_SQL)."""
    from ..functions.texthash import horner_texts

    tok_re = re.compile(_GRAM_TOK_PAT)
    _, pos, tok_idx, flat = _explode([tok_re.findall(t.lower()) for t in _texts(texts)])
    th = horner_texts(flat)  # uint64 token hashes, vectorized
    m = len(th) - n + 1
    if m <= 0:
        empty = (np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        return empty + (empty[1],) if with_starts else empty
    with np.errstate(over="ignore"):
        gh = np.full(m, np.uint64(14695981039346656037), dtype=np.uint64)
        for j in range(n):
            gh = gh * np.uint64(1000003) + th[j : j + m]
    # a gram is valid only when all n tokens belong to the same document
    valid = pos[:m] == pos[n - 1 :]
    out = gh[valid], pos[:m][valid]
    return out + (tok_idx[:m][valid],) if with_starts else out


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
    tok_re = re.compile(_GRAM_TOK_PAT)

    def explode(batch: pa.Table) -> pa.Table:
        toks = [tok_re.findall(t.lower()) for t in _texts(batch[text_col].to_pylist())]
        counts = _lens(toks)
        n_chunks = np.where(counts > 0, (counts - 1) // stride + 1, 0)
        rows = np.repeat(np.arange(len(toks)), n_chunks)
        cidx = _seq_within(n_chunks)
        return pa.table({
            id_col: batch[id_col].take(rows),
            "chunk_idx": cidx,
            "n_chunk_tokens": np.minimum(chunk, counts[rows] - cidx * stride),
            "chunk_text": pa.array(
                [" ".join(toks[r][k * stride : k * stride + chunk]) for r, k in zip(rows, cidx)], pa.string()
            ),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


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
    import pyarrow.compute as pc

    from ..stages.shuffle import _arrow_schema, co_partition, declare_schema

    def grams(batch: pa.Table) -> pa.Table:
        gh, gpos = _word_gram_hashes(batch[text_col].to_pylist(), n)
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
        self.schema = pa.schema([(out_col, _I64)])

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.texthash import horner_texts, normalize_ws, to_signed

        norm = normalize_ws(batch[self.text_col].to_pylist())
        return _append(batch, self.schema, [to_signed(horner_texts(norm))])


class _DocFreqPartials:
    """map_batches combiner for TF-IDF pass 1: per-batch document-frequency
    partials — one (term, pdf) row per distinct term per batch, so the term
    exchange that follows moves vocabulary-sized data, never token streams."""

    TERM_PAT = r"[A-Za-z0-9]+"

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.tok = re.compile(self.TERM_PAT)

    def doc_terms(self, texts):
        """``_explode`` of each text's lowercased terms (null as '') — terms
        are ASCII-only runs, so Python .lower() and DuckDB lower() agree on
        any input (no locale/unicode case-folding divergence)."""
        return _explode([[w.lower() for w in self.tok.findall(t)] for t in _texts(texts)])

    def row_terms(self, batch: pa.Table) -> pa.Table:
        """(row, term) per term occurrence of the batch's texts."""
        _, rows, _, flat = self.doc_terms(batch[self.text_col].to_pylist())
        return pa.table({"row": rows, "term": pa.array(flat, pa.string())})

    def __call__(self, batch: pa.Table) -> pa.Table:
        agg = self.row_terms(batch).group_by("term").aggregate([("row", "count_distinct")])
        return pa.table({"term": agg["term"], "pdf": agg["row_count_distinct"]})


class _TfIdfTopK:
    """TF-IDF pass 2: re-tokenize each doc, score tf * ln(n_docs / df)
    against the broadcast idf table, emit the top-k terms per doc (ties:
    higher tfidf first, then term ascending).  Entirely local to the batch —
    a doc's tokens never leave the block, so no shuffle at any corpus size."""

    def __init__(self, df_ref, n_docs: int, k: int, text_col: str, id_col: str):
        self.inner = _DocFreqPartials(text_col)
        self.df_ref = df_ref
        self.n_docs = n_docs
        self.idf = None  # term -> idf, built on the first batch of each task
        self.k = k
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .shuffle import sort_by_key

        if self.idf is None:
            import ray

            terms, dfs = ray.get(self.df_ref)
            self.idf = dict(zip(terms, np.log(self.n_docs / dfs)))
        tf = self.inner.row_terms(batch).group_by(["row", "term"]).aggregate([([], "count_all")])
        idf = np.array([self.idf.get(t, np.nan) for t in tf["term"].to_pylist()], dtype=np.float64)
        scored = tf.select(["row", "term"]).append_column("tfidf", pa.array(tf["count_all"].to_numpy() * idf))
        scored, _, rank = sort_by_key(scored, ["row"], [("tfidf", "descending"), ("term", "ascending")])
        top = rank < self.k
        scored = scored.filter(top)
        return pa.table({
            self.id_col: batch[self.id_col].take(scored["row"]), "term": scored["term"],
            "rank": rank[top] + 1, "tfidf": scored["tfidf"],
        })


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
        ds.map_batches(_DocFreqPartials(text_col), batch_format="pyarrow")
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
    return ds.map_batches(_TfIdfTopK(df_ref, n_docs, k, text_col, id_col), batch_format="pyarrow")


class _TermFreqPartials:
    """map_batches combiner for the unigram LM pass 1: per-batch TERM
    FREQUENCY partials (one (term, ptf) row per distinct term per batch) —
    the exchange that follows moves vocabulary-sized data, never the token
    stream.  Same token semantics as TF-IDF (`_DocFreqPartials.doc_terms`)."""

    def __init__(self, text_col: str = "text"):
        self.inner = _DocFreqPartials(text_col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vc = pc.value_counts(self.inner.row_terms(batch)["term"])
        return pa.table({"term": vc.field("values"), "ptf": vc.field("counts")})


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
        self.ln_cnt = None  # term -> ln count, built on the first batch of each task
        self.ln_total = float(np.log(total_tokens)) if total_tokens else 0.0
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.ln_cnt is None:
            import ray

            terms, cnts = ray.get(self.tf_ref)
            self.ln_cnt = dict(zip(terms, np.log(cnts)))
        n_tok, rows, _, flat = self.inner.doc_terms(batch[self.inner.text_col].to_pylist())
        # per-token surprisal, summed per doc
        val = self.ln_total - np.array([self.ln_cnt.get(t, np.nan) for t in flat], dtype=np.float64)
        sums = np.bincount(rows, weights=val, minlength=len(n_tok))
        with np.errstate(invalid="ignore"):
            avg = np.round(sums / n_tok, 4)  # a token-free doc: 0 / 0 -> null
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_tokens": n_tok,
            "avg_neg_logp": pa.array(avg, from_pandas=True),
            "unigram_ppl": pa.array(np.round(np.exp(avg), 2), from_pandas=True),
        })


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
        ds.map_batches(_TermFreqPartials(text_col), batch_format="pyarrow")
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
    return ds.map_batches(_LmScore(tf_ref, total, text_col, id_col), batch_format="pyarrow")


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

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        n_rows = len(batch)
        n_grams = np.zeros(n_rows, dtype=np.int64)
        n_overlap = np.zeros(n_rows, dtype=np.int64)
        gh, pos = _word_gram_hashes(batch[self.text_col].to_pylist(), self.n)
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
        return pa.table({
            self.id_col: batch[self.id_col],
            "n_grams": n_grams,
            "n_overlap": n_overlap,
            "contaminated": n_overlap >= self.min_overlap,
        })


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
    import ray
    from ray.data.aggregate import Count

    def bench_grams(batch: pa.Table) -> pa.Table:
        gh, _ = _word_gram_hashes(batch[text_col].to_pylist(), n)
        return pa.table({"gh": pa.array(np.unique(gh).view(np.int64), type=pa.int64())})

    uniq = (
        bench_ds.map_batches(bench_grams, batch_format="pyarrow")
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
        _ContamScore(bench_ref, n, min_overlap, text_col, id_col), batch_format="pyarrow"
    )
