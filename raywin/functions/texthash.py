"""Deterministic text hashing used by the corpus stages (fingerprint,
simhash, minhash) — ONE definition with two implementations that agree
bit-for-bit:

  * vectorized numpy (uint64 wraparound arithmetic) for the Ray stages —
    whole batches hashed with no per-document Python loop
  * SQL-expression builders (HUGEINT arithmetic mod 2**64) so every stage
    has a DuckDB oracle the driver can hash-compare against

Core primitive: Horner polynomial hash over Unicode code points,
    h = ((INIT * B + c0) * B + c1) ... mod 2**64,   B = 1000003
optionally finalized with splitmix64.  Text normalization collapses ASCII
whitespace runs to one space and trims spaces — deliberately ASCII-only and
case-preserving so Python and DuckDB regex/casing semantics cannot diverge.

This replaces the reference's pluggable hash choices (FastHashing.scala uses
xxHash; MinHash/SimHash literature uses arbitrary families) with one
cross-engine-reproducible family.
"""

from __future__ import annotations

import re

import numpy as np

from ..aggregator.npfast import concat_ranges
from ..aggregator.sketches import splitmix64

HORNER_B = 1000003
HORNER_INIT = 14695981039346656037  # FNV-64 offset basis (just a fixed seed)
_B64 = np.uint64(HORNER_B)
_U64 = 1 << 64
_P53 = 1 << 53

WS_PATTERN = "[ \t\n\r\f\v]+"  # explicit ASCII class: python \s and RE2 \s
# disagree on Unicode whitespace
TOKEN_PATTERN = "[0-9A-Za-z_]+"  # explicit ASCII class: python \w is Unicode

_POW_CACHE: dict[int, np.ndarray] = {}


def _pows(n: int) -> np.ndarray:
    """[B^0, B^1, ..., B^n] mod 2**64 (cached, grown on demand)."""
    cur = _POW_CACHE.get(0)
    if cur is None or len(cur) <= n:
        size = max(n + 1, 1024)
        out = np.empty(size, dtype=np.uint64)
        out[0] = 1
        np.multiply.accumulate(np.full(size - 1, _B64), out=out[1:])
        _POW_CACHE[0] = out
    return _POW_CACHE[0]


def normalize_ws(texts) -> list[str]:
    """A sequence of texts (null as '') with ASCII whitespace runs collapsed
    to ' ' and spaces stripped."""
    sub = re.compile(WS_PATTERN).sub
    return [sub(" ", t or "").strip(" ") for t in texts]


def codepoints_concat(texts) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate texts into one uint64 codepoint array + offsets."""
    lst = list(texts)
    joined = "".join(lst)
    cp = np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32).astype(np.uint64)
    lens = np.fromiter((len(t) for t in lst), dtype=np.int64, count=len(lst))
    off = np.zeros(len(lst) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    return cp, off


def horner_segments(cp: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Horner hash of each [off[i], off[i+1]) codepoint segment, vectorized:
    h_i = INIT * B^len + sum_j c_j * B^(end-1-j)   (all mod 2**64)."""
    lens = np.diff(off)
    nd = len(lens)
    if nd == 0:
        return np.zeros(0, dtype=np.uint64)
    P = _pows(int(lens.max()) if nd else 0)
    with np.errstate(over="ignore"):
        ends = np.repeat(off[1:], lens)
        e = ends - 1 - np.arange(len(cp), dtype=np.int64)
        terms = cp * P[e]
        sums = np.zeros(nd, dtype=np.uint64)
        nonempty = lens > 0
        if nonempty.any():
            red = np.add.reduceat(terms, off[:-1][nonempty])
            sums[nonempty] = red
        return np.uint64(HORNER_INIT % _U64) * P[lens] + sums


def horner_texts(texts) -> np.ndarray:
    cp, off = codepoints_concat(texts)
    return horner_segments(cp, off)


def window_horner(cp: np.ndarray, off: np.ndarray, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Horner hashes of every width-w codepoint window per segment; segments
    shorter than w (including empty) contribute ONE hash of the whole
    segment.  Returns (hashes, per-segment offsets) — fully vectorized."""
    lens = np.diff(off)
    nd = len(lens)
    n_sh = np.maximum(lens - w + 1, 1)
    sh_off = np.zeros(nd + 1, dtype=np.int64)
    np.cumsum(n_sh, out=sh_off[1:])
    out = np.empty(int(sh_off[-1]), dtype=np.uint64)
    if nd == 0:
        return out, sh_off
    P = _pows(w)
    N = len(cp)
    long = lens >= w
    with np.errstate(over="ignore"):
        if N >= w:
            # hash of window starting at j: INIT*B^w + sum_t cp[j+t]*B^(w-1-t)
            acc = np.full(N - w + 1, np.uint64(HORNER_INIT % _U64) * P[w], dtype=np.uint64)
            for t in range(w):
                acc += cp[t : N - w + 1 + t] * P[w - 1 - t]
            ends_rep = np.repeat(off[1:], lens)[: N - w + 1]
            valid = ends_rep - np.arange(N - w + 1, dtype=np.int64) >= w
            # valid windows are doc-ordered and contiguous per long segment
            li = np.flatnonzero(long)
            idx = concat_ranges(sh_off[:-1][li], n_sh[li])
            out[idx] = acc[valid]
        if (~long).any():
            # short segments: single whole-segment hash
            short_all = horner_segments(cp, off)
            si = np.flatnonzero(~long)
            out[sh_off[:-1][si]] = short_all[si]
    return out, sh_off


def minhash_seeds(num_perm: int) -> np.ndarray:
    """Fixed permutation seeds: splitmix64(1..num_perm)."""
    return splitmix64(np.arange(1, num_perm + 1, dtype=np.uint64))


def to_signed(h: np.ndarray) -> np.ndarray:
    return h.astype(np.uint64).view(np.int64)


# --------------------------------------------------------------------------
# SQL builders (DuckDB): HUGEINT arithmetic mod 2**64, bit-identical to the
# numpy side.  All helpers assume NONNEGATIVE inputs < 2**64.
# --------------------------------------------------------------------------


def sql_norm(col: str) -> str:
    return f"trim(regexp_replace(coalesce({col}, ''), '{WS_PATTERN}', ' ', 'g'), ' ')"


def sql_codepoints(expr: str) -> str:
    return f"list_transform(regexp_extract_all({expr}, '.'), __ch -> unicode(__ch))"


def sql_horner(list_expr: str) -> str:
    """Horner hash of a codepoint list, mod 2**64 (HUGEINT)."""
    return (
        f"list_reduce(list_prepend(CAST({HORNER_INIT} AS HUGEINT), {list_expr}), "
        f"(__a, __x) -> (__a * {HORNER_B} + __x) % CAST({_U64} AS HUGEINT))"
    )


def sql_mulmod64(a: str, b: str) -> str:
    """(a * b) mod 2**64 without overflowing HUGEINT (splits a at 2**32)."""
    return (
        f"((({a}) % 4294967296 * ({b}) + "
        f"((({a}) // 4294967296 * (({b}) % 4294967296)) % 4294967296) * 4294967296) "
        f"% CAST({_U64} AS HUGEINT))"
    )


def sql_splitmix64_ctes(src_cte: str, in_col: str, keep: str, out_cte: str,
                        out_col: str = "h") -> str:
    """CTE chain applying splitmix64 to `in_col` of `src_cte`; emits
    `out_cte` with columns `keep` + `out_col`.  Expanded in steps because the
    inlined expression would blow up combinatorially."""
    g = 0x9E3779B97F4A7C15
    m1 = 0xBF58476D1CE4E5B9
    m2 = 0x94D049BB133111EB
    return f"""
__sm0_{out_cte} AS (SELECT {keep}, (({in_col}) + {g}) % CAST({_U64} AS HUGEINT) AS z
                    FROM {src_cte}),
__sm1_{out_cte} AS (SELECT {keep}, xor(z, z // 1073741824) AS z FROM __sm0_{out_cte}),
__sm2_{out_cte} AS (SELECT {keep}, {sql_mulmod64('z', str(m1))} AS z FROM __sm1_{out_cte}),
__sm3_{out_cte} AS (SELECT {keep}, xor(z, z // 134217728) AS z FROM __sm2_{out_cte}),
__sm4_{out_cte} AS (SELECT {keep}, {sql_mulmod64('z', str(m2))} AS z FROM __sm3_{out_cte}),
{out_cte} AS (SELECT {keep}, xor(z, z // 2147483648) AS {out_col} FROM __sm4_{out_cte})"""


def sql_to_signed(expr: str) -> str:
    """uint64-valued HUGEINT -> BIGINT two's-complement reinterpretation."""
    return (
        f"CAST(CASE WHEN ({expr}) >= {1 << 63} THEN ({expr}) - {_U64} "
        f"ELSE ({expr}) END AS BIGINT)"
    )
