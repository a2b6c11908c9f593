"""Vectorized partition-local aggregation kernel.

This is the compute kernel that runs inside each ``co_partition`` call
(stages/shuffle.py) after the hash(entity)xtime exchange.  Given one call's
co-partitioned (events, queries), every key whole, it evaluates every
AggregationPart at every query timestamp under the sawtooth membership rule

    round(q - w, tail_hop) <= ev.ts < round(q, head_rounding)

(reference NaiveAggregator.scala:38-44; head_rounding=1 for TEMPORAL).

Design — everything is numpy over the whole partition, no per-row Python in
the hot ops (reference mutates Array[Any] rows one at a time,
RowAggregator.scala:25-29; we instead exploit Arrow/numpy columns):

  * events sorted once by (entity_code, ts, tie); queries by (entity_code, ts)
  * per-query window bounds found with ONE composite-key ``np.searchsorted``
    per (window, side) over the whole partition
  * each part's engine is chosen from what its ScalarOp declares:
      - POSITION a ``timed`` op (first/last/first_k/last_k): direct slices of
        the sorted, null-compressed value array (no aggregation tree at all)
      - PREFIX   an op whose ``ufunc`` is np.add (sum/count/average): cumsum
        arrays, result = prefix[r]-prefix[l]
      - SEGTREE  an op with a VectorIR in ``_VECTOR_IRS`` (min/max/variance/
        skew/kurtosis/top_k/bottom_k): disjoint binary-block segment tree
        with *vectorized* monoid merges; O(log n) lockstep merge rounds for
        all queries at once
      - PERCENTILE ``ApproxPercentile``: exact, the k-th smallest of each
        window for every query at once with a wavelet matrix over the
        values' ranks (``_range_kth``)
      - OBJECT   everything else (unique_count/histogram/sketches/bucketed/
        element-wise/map): hop-tile IRs (one ``fold_segments`` call per
        part) + per-query python merges — mirrors the reference
        HopsAggregator -> SawtoothAggregator stitch
        (HopsAggregator.scala:33-165, SawtoothAggregator.scala:64-139)

Every engine answers a part with one Arrow array of the part's declared
type (``output_type``): numeric answers are wrapped from their numpy
vectors with a null mask, list answers from flat values plus offsets, and
only the object engine builds a Python object per answer.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import AggregationPart, Operation
from .scalar_ops import (
    ApproxPercentile, BottomK, Kurtosis, Max, Min, ScalarOp, Skew, TopK, Variance,
    make_scalar_op,
)
from .npfast import concat_ranges, cumsum1d
from .windowing import FiveMinuteResolution, round_down

_NEG_INF = np.iinfo(np.int64).min // 4

_MAX_EXACT = float(1 << 52)

_FLOAT_OUT = {
    Operation.AVERAGE,
    Operation.VARIANCE,
    Operation.SKEW,
    Operation.KURTOSIS,
}
_INT_OUT = {
    Operation.COUNT,
    Operation.UNIQUE_COUNT,
    Operation.APPROX_UNIQUE_COUNT,
    Operation.BOUNDED_UNIQUE_COUNT,
}


def output_type(part: AggregationPart, input_type: pa.DataType) -> pa.DataType:
    """The Arrow type of a part's answers over an input column of
    ``input_type``."""
    op = part.operation
    if pa.types.is_map(input_type) and part.bucket is None and not part.element_wise:
        # per-key map aggregation: map<key, out-of-scalar-op-on-values>
        inner = AggregationPart(op, part.input_column, part.window, part.arg_map)
        return pa.map_(input_type.key_type, output_type(inner, input_type.item_type))
    if pa.types.is_list(input_type) and not part.element_wise and op not in (
        Operation.HISTOGRAM, Operation.APPROX_HISTOGRAM_K
    ):
        input_type = input_type.value_type  # auto-explode: element semantics
    # element-wise parts answer a list of the op's answer over each element
    elem = input_type.value_type if part.element_wise else input_type
    if op in _INT_OUT:
        base = pa.int64()
    elif op in _FLOAT_OUT:
        base = pa.float64()
    elif op is Operation.SUM:
        base = pa.int64() if pa.types.is_integer(input_type) else pa.float64()
    elif op in (Operation.HISTOGRAM, Operation.APPROX_HISTOGRAM_K):
        base = pa.map_(pa.string(), pa.int64())
    elif op is Operation.APPROX_PERCENTILE:
        base = pa.list_(pa.float64())
    elif op in (Operation.TOP_K, Operation.BOTTOM_K):
        # numeric inputs run the float64 segtree engine (ints coerce to
        # float); non-numeric inputs run the object engine and keep their type
        if pa.types.is_integer(elem) or pa.types.is_floating(elem):
            base = pa.list_(pa.float64())
        else:
            base = pa.list_(elem)
    elif op in (Operation.FIRST_K, Operation.LAST_K):
        base = pa.list_(elem)
    else:  # MIN MAX FIRST LAST
        base = elem
    if part.element_wise:
        base = pa.list_(base)
    if part.bucket is not None:
        base = pa.map_(pa.string(), base)
    return base


def _array(vals: np.ndarray, typ: pa.DataType, null: np.ndarray) -> pa.Array:
    """One answer per query as a column of ``typ``: null where ``null`` and,
    for float answers, where NaN."""
    if vals.dtype.kind == "f":
        null = null | np.isnan(vals)
    return pa.array(vals, type=typ, mask=null)


def _lists(lengths: np.ndarray, values: np.ndarray, typ: pa.DataType, null: np.ndarray) -> pa.Array:
    """A list column of ``typ``: row i holds the next ``lengths[i]`` of
    ``values`` (NaN values are null), and is null where ``null``."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int32)
    np.cumsum(lengths, out=offsets[1:])
    return pa.ListArray.from_arrays(
        offsets, pa.array(values, type=typ.value_type, from_pandas=True), type=typ, mask=pa.array(null)
    )


def to_arrow(values, typ: pa.DataType) -> pa.Array:
    """Per-row Python answers (None or NaN for null) as one column of
    ``typ``; a map cell given as a dict is written as its sorted items, and
    a NaN inside a map stays a value."""
    if pa.types.is_map(typ):
        return pa.array([sorted(v.items()) if isinstance(v, dict) else v for v in values], type=typ)
    return pa.array(values, type=typ, from_pandas=True)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round-half-away-from-zero, matching DuckDB's round()/CAST-to-int —
    np.rint would round half-to-even and diverge at exact .5 ties."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def detect_decimal(vals: np.ndarray, valid: np.ndarray, max_scale: int = 4):
    """If every valid value is (within fp noise) a decimal with <= max_scale
    fractional digits, return (digits d, int64 scaled values with invalid->0);
    else None.

    Enables EXACT fixed-point aggregation: float SUM/AVERAGE/moments computed
    as int64/bigint sums are bitwise-deterministic across partitionings and
    merge orders, unlike float accumulation (the reference aggregates Scala
    Doubles sequentially, SimpleAggregators.scala:69-88 — deterministic only
    single-threaded; exact ints are the distributed-safe equivalent)."""
    if vals is None or vals.dtype.kind != "f":
        return None
    v = np.where(valid, vals, 0.0)
    if not np.isfinite(v).all():
        return None
    for d in range(max_scale + 1):
        scaled = v * (10.0**d)
        m = np.max(np.abs(scaled)) if len(scaled) else 0.0
        if m >= _MAX_EXACT:
            return None
        r = round_half_away(scaled)
        # tolerance: fp noise of products/parquet decode, far below 0.5.
        # The 1e-6 floor shrinks with the scaled magnitude: data whose
        # values are ALL tiny (max |scaled| << 1) must not be swallowed
        # as "decimal zero" — for real decimal data the accepting scale
        # has max |scaled| >= ~1, so the floor stays 1e-6 there.
        if np.max(np.abs(scaled - r), initial=0.0) <= min(1e-6, m * 1e-3) + m * 1e-11:
            return d, r.astype(np.int64)
    return None


def _power_prefix(sv: np.ndarray, p: int):
    """Exact exclusive prefix sums of sv**p: int64 when bounds allow, else
    arbitrary-precision Python ints (object dtype)."""
    n = len(sv)
    m = int(np.max(np.abs(sv))) if n else 0
    if n * (m**p) < (1 << 62):
        a = sv.astype(np.int64) ** p
        cs = np.zeros(n + 1, dtype=np.int64)
        cs[1:] = np.cumsum(a)
        return cs
    a = sv.astype(object) ** p
    cs = np.zeros(n + 1, dtype=object)
    if n:
        cs[1:] = np.cumsum(a)
    return cs


def _mix_codes(combined_codes: list[np.ndarray]) -> np.ndarray:
    """Radix-mix per-column factor codes into joint entity codes (int64,
    encounter order).

    Re-factorizes the running mix whenever the next radix step could overflow
    int64 (3+ high-cardinality key columns) — after a re-factorize the running
    codes are < n_rows, so ``mixed * card + codes`` stays < n_rows**2 < 2**62
    for any realistic partition.  Encounter order is preserved: factorize of
    the mixed values yields the same first-seen ordering as factorize of the
    key tuples themselves."""
    mixed = combined_codes[0].astype(np.int64)
    run_card = int(mixed.max()) + 1 if len(mixed) else 1
    for ci in range(1, len(combined_codes)):
        codes = combined_codes[ci]
        card = int(codes.max()) + 1 if len(codes) else 1
        if run_card * card >= (1 << 62):
            mixed, _ = pd.factorize(mixed)
            mixed = mixed.astype(np.int64)
            run_card = int(mixed.max()) + 1 if len(mixed) else 1
        mixed = mixed * np.int64(card) + codes
        run_card *= card
    joint, _ = pd.factorize(mixed)
    return joint


def factorize_multi(columns_list: list[list[np.ndarray]]) -> tuple[list[np.ndarray], int]:
    """Jointly factorize tuples of key columns across several frames.

    Returns per-frame int64 entity codes and the number of distinct entities.
    """
    lens = [len(cols[0]) if cols else 0 for cols in columns_list]
    ncols = len(columns_list[0])
    combined_codes = []
    for ci in range(ncols):
        concat = np.concatenate([np.asarray(cols[ci], dtype=object) for cols in columns_list])
        codes, _ = pd.factorize(concat, use_na_sentinel=False)
        combined_codes.append(codes)
    if ncols == 1:
        joint = combined_codes[0]
    else:
        joint = _mix_codes(combined_codes)
    n_entities = int(joint.max()) + 1 if len(joint) else 0
    out, off = [], 0
    for ln in lens:
        out.append(joint[off : off + ln].astype(np.int64))
        off += ln
    return out, n_entities


class _ArrowFrame:
    """Lazy column-access facade over a pyarrow Table — the kernel hot path.

    Numeric columns convert zero-copy (or near) to numpy; string / list
    columns convert to object arrays ONLY when an aggregation part actually
    touches them; map columns go through the per-column pandas conversion
    (``maps_as_pydicts``) so cells reach the kernel as dicts.  Passthrough
    columns (the left side's payload) are never converted at all — the caller
    reorders the original Arrow table with ``Table.take``.  Replaces the old
    whole-table ``to_pandas(maps_as_pydicts="strict")`` that boxed every
    string and list cell per co-partitioned group."""

    __slots__ = ("table", "_order", "_cache")

    def __init__(self, table: pa.Table, order: np.ndarray | None = None):
        self.table = table
        self._order = order  # lazy take: applied per requested column
        self._cache: dict[str, np.ndarray] = {}

    def __len__(self):
        return self.table.num_rows if self._order is None else len(self._order)

    @property
    def names(self):
        return self.table.column_names

    def np_col(self, name: str) -> np.ndarray:
        if name not in self._cache:
            col = self.table.column(name)
            if self._order is not None:
                col = col.take(self._order)
            t = col.type
            if pa.types.is_map(t):
                arr = col.to_pandas(maps_as_pydicts="strict").to_numpy()
            else:
                arr = col.to_numpy(zero_copy_only=False)
            self._cache[name] = arr
        return self._cache[name]

    def take(self, order: np.ndarray) -> "_ArrowFrame":
        if self._order is not None:
            order = np.asarray(self._order)[order]
        return _ArrowFrame(self.table, order)


def _factorize_frames(evf, qf, key_cols: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Joint entity codes for (events, queries) key tuples.

    Per-column ``dictionary_encode`` over the concatenated native buffers —
    dense codes with no per-cell Python boxing (encounter-order codes match
    ``pd.factorize(use_na_sentinel=False)`` exactly when the column has no
    nulls).  Null-bearing key columns fall back to the object path, where
    null is a key of its own."""
    import pyarrow.compute as pc

    n_ev = len(evf)
    combined_codes: list[np.ndarray] = []
    for c in key_cols:
        ev_col = evf.table.column(c)
        q_col = qf.table.column(c)
        if evf._order is not None:
            ev_col = ev_col.take(evf._order)
        if qf._order is not None:
            q_col = q_col.take(qf._order)
        if ev_col.null_count or q_col.null_count:
            break
        try:
            concat = pa.chunked_array(
                list(ev_col.chunks) + list(q_col.chunks)
            ).combine_chunks()
            codes = pc.dictionary_encode(concat).indices.to_numpy(
                zero_copy_only=False
            )
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
            break
        combined_codes.append(codes.astype(np.int64))
    else:
        if len(combined_codes) == 1:
            joint = combined_codes[0]
        else:
            joint = _mix_codes(combined_codes).astype(np.int64)
        return joint[:n_ev], joint[n_ev:]
    (ev_ent, q_ent), _ = factorize_multi(
        [
            [evf.np_col(c) for c in key_cols],
            [qf.np_col(c) for c in key_cols],
        ]
    )
    return ev_ent, q_ent


class _Column:
    """Per-input-column preprocessed state over the sorted events."""

    def __init__(self, raw: np.ndarray, ts_sorted: np.ndarray, typ: pa.DataType):
        self.raw = raw
        # from the column's type, so an all-null column picks its engine too
        self.is_list = isinstance(typ, (pa.ListType, pa.LargeListType, pa.FixedSizeListType))
        self.is_map = pa.types.is_map(typ) or pa.types.is_struct(typ)  # cells are dicts
        if raw.dtype.kind == "f":
            self.valid = ~np.isnan(raw)
            self.numeric = raw
        elif raw.dtype.kind in "iub":
            self.valid = np.ones(len(raw), dtype=bool)
            self.numeric = raw
        else:  # object / string / list / map: None and nan are nulls
            self.valid = ~pd.isna(raw)  # scalar-aware: lists/dicts are not-na
            self.numeric = None
        self._list_stats = None
        # exclusive prefix count of valid values: cum_valid[i] = #valid in [0, i)
        self.cum_valid = np.zeros(len(raw) + 1, dtype=np.int64)
        self.cum_valid[1:] = cumsum1d(self.valid)
        self.comp_vals = raw[self.valid]  # null-compressed values, still ts-sorted
        self.comp_ts = ts_sorted[self.valid]
        self._cumsum = None
        self._decimal = False  # False = not probed; None = not decimal
        self._dec_prefix: dict[int, np.ndarray] = {}

    @property
    def decimal(self):
        """(digits, int64-scaled null-compressed values) or None."""
        if self._decimal is False:
            self._decimal = detect_decimal(
                self.comp_vals.astype(np.float64) if self.numeric is not None and len(self.comp_vals) else None,
                np.ones(len(self.comp_vals), dtype=bool),
            ) if self.numeric is not None else None
        return self._decimal

    def dec_prefix(self, p: int) -> np.ndarray:
        """Exact exclusive prefix sums of scaled**p over compressed values."""
        if p not in self._dec_prefix:
            self._dec_prefix[p] = _power_prefix(self.decimal[1], p)
        return self._dec_prefix[p]

    def compress(self, l: np.ndarray, r: np.ndarray):
        """Map raw index ranges to null-compressed index ranges."""
        return self.cum_valid[l], self.cum_valid[r]

    def list_stats(self):
        """Per-row (element_sum, element_count) for list columns with element
        nulls skipped — vectorized via one concatenation + reduceat (the
        auto-explode fast path for SUM/COUNT/AVERAGE over e.g. an embedding
        column; reference ColumnAggregator.scala:79-116 VectorDispatcher)."""
        if self._list_stats is None:
            n = len(self.raw)
            sums = np.zeros(n, dtype=np.float64)
            cnts = np.zeros(n, dtype=np.int64)
            idx = np.flatnonzero(self.valid)
            arrs = [np.asarray(self.raw[i], dtype=np.float64) for i in idx]
            lens = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=len(arrs))
            if len(arrs) and lens.sum():
                flat = np.concatenate([a for a in arrs if len(a)])
                off = np.zeros(len(arrs), dtype=np.int64)
                np.cumsum(lens[:-1], out=off[1:])
                nanm = np.isnan(flat)
                nz = lens > 0
                seg_sums = np.add.reduceat(np.where(nanm, 0.0, flat), off[nz])
                seg_cnts = np.add.reduceat((~nanm).astype(np.int64), off[nz])
                sums[idx[nz]] = seg_sums
                cnts[idx[nz]] = seg_cnts
            self._list_stats = (sums, cnts)
        return self._list_stats

    @property
    def cumsum(self) -> np.ndarray:
        if self._cumsum is None:
            if self.numeric is None:
                raise TypeError("sum/average over non-numeric column")
            vals = np.where(self.valid, self.numeric, 0)
            dtype = np.int64 if vals.dtype.kind in "iub" else np.float64
            cs = np.zeros(len(vals) + 1, dtype=dtype)
            cs[1:] = cumsum1d(vals, dtype=dtype)
            self._cumsum = cs
        return self._cumsum


# ---------------------------------------------------------------------------
# SEGTREE engine: vectorized monoid merges over disjoint binary blocks
# ---------------------------------------------------------------------------


class VectorIR:
    """Struct-of-arrays IR with validity; vectorized commutative merge."""

    fields: tuple[str, ...] = ()

    def __init__(self, op: ScalarOp):
        self.op = op

    def leaf(self, vals: np.ndarray) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def combine(self, a: dict, b: dict) -> dict:
        raise NotImplementedError

    def finalize(self, state: dict, valid: np.ndarray, typ: pa.DataType) -> pa.Array:
        raise NotImplementedError


class MinMaxIR(VectorIR):
    fields = ("v",)

    def __init__(self, op):
        super().__init__(op)
        self.is_min = op.ufunc is np.minimum

    def leaf(self, vals):
        return {"v": vals.copy()}

    def combine(self, a, b):
        take_b = b["v"] < a["v"] if self.is_min else b["v"] > a["v"]
        return {"v": np.where(take_b, b["v"], a["v"])}

    def finalize(self, state, valid, typ):
        return _array(state["v"], typ, ~valid)


class MomentsIR(VectorIR):
    """Welford (variance) / 4-moment (skew, kurtosis) vectorized merge
    (formulas from SimpleAggregators.scala:163-247, 872-975)."""

    def __init__(self, op):
        super().__init__(op)
        self.four = not isinstance(op, Variance)
        self.fields = ("n", "m1", "m2", "m3", "m4") if self.four else ("n", "m1", "m2")

    def leaf(self, vals):
        v = vals.astype(np.float64)
        n = np.ones(len(v))
        z = np.zeros(len(v))
        out = {"n": n, "m1": v, "m2": z}
        if self.four:
            out["m3"] = z.copy()
            out["m4"] = z.copy()
        return out

    def combine(self, a, b):
        an, bn = a["n"], b["n"]
        n = an + bn
        delta = b["m1"] - a["m1"]
        m1 = (an * a["m1"] + bn * b["m1"]) / n
        m2 = a["m2"] + b["m2"] + delta * (delta / n) * an * bn
        out = {"n": n, "m1": m1, "m2": m2}
        if self.four:
            d2 = delta * delta
            m3 = (
                a["m3"]
                + b["m3"]
                + d2 * delta * an * bn * (an - bn) / (n * n)
                + 3.0 * delta * (an * b["m2"] - bn * a["m2"]) / n
            )
            m4 = (
                a["m4"]
                + b["m4"]
                + d2 * d2 * an * bn * (an * an - an * bn + bn * bn) / (n**3)
                + 6.0 * d2 * (an * an * b["m2"] + bn * bn * a["m2"]) / (n * n)
                + 4.0 * delta * (an * b["m3"] - bn * a["m3"]) / n
            )
            out["m3"] = m3
            out["m4"] = m4
        return out

    def finalize(self, state, valid, typ):
        n, m2 = state["n"], state["m2"]
        with np.errstate(invalid="ignore", divide="ignore"):
            if not self.four:
                out = m2 / n
            elif isinstance(self.op, Skew):
                out = np.where((n < 3) | (m2 == 0), np.nan, np.sqrt(n) * state["m3"] / m2**1.5)
            else:
                out = np.where((n < 4) | (m2 == 0), np.nan, n * state["m4"] / (m2 * m2) - 3)
        return _array(out, typ, ~valid)


class TopKIR(VectorIR):
    """(n, k) value matrices padded with +/-inf->nan; merge = concat+sort+slice."""

    fields = ("v",)

    def __init__(self, op):
        super().__init__(op)
        self.k = op.k
        self.desc = isinstance(op, TopK)

    def leaf(self, vals):
        n = len(vals)
        m = np.full((n, self.k), np.nan)
        m[:, 0] = vals.astype(np.float64)
        return {"v": m}

    def combine(self, a, b):
        cat = np.concatenate([a["v"], b["v"]], axis=1)
        if self.desc:
            cat = -np.sort(-cat, axis=1)  # descending, nans stay last
        else:
            cat = np.sort(cat, axis=1)
        return {"v": cat[:, : self.k]}

    def finalize(self, state, valid, typ):
        v = state["v"]
        keep = valid[:, None] & ~np.isnan(v)  # row-major: each row's values in order
        return _lists(keep.sum(axis=1), v[keep], typ, ~valid)


# the SEGTREE engine's state for each op class it serves
_VECTOR_IRS = {
    Min: MinMaxIR, Max: MinMaxIR,
    Variance: MomentsIR, Skew: MomentsIR, Kurtosis: MomentsIR,
    TopK: TopKIR, BottomK: TopKIR,
}


class SegTree:
    """Bottom-up segment tree of VectorIR states; queries answered for all
    rows at once with O(log n) vectorized merge rounds."""

    def __init__(self, ir: VectorIR, vals: np.ndarray):
        self.ir = ir
        n = len(vals)
        self.n = n
        self.levels: list[dict] = []
        if n == 0:
            return
        state = ir.leaf(vals)
        self.levels.append(state)
        while n > 1:
            half = n // 2
            a = {f: state[f][0 : 2 * half : 2] for f in ir.fields}
            b = {f: state[f][1 : 2 * half : 2] for f in ir.fields}
            merged = ir.combine(a, b)
            if n % 2:
                merged = {f: np.concatenate([merged[f], state[f][-1:]]) for f in ir.fields}
            state = merged
            n = (n + 1) // 2
            self.levels.append(state)

    def query(self, l: np.ndarray, r: np.ndarray):
        """Aggregate over [l, r) per row; returns (state, valid)."""
        nq = len(l)
        ir = self.ir
        valid = np.zeros(nq, dtype=bool)
        if self.n == 0 or nq == 0:
            return None, valid
        acc = {f: np.zeros((nq,) + self.levels[0][f].shape[1:], dtype=self.levels[0][f].dtype) for f in ir.fields}
        l = l.copy()
        r = r.copy()
        for level in self.levels:
            if not (l < r).any():
                break
            m1 = ((l & 1) == 1) & (l < r)
            self._absorb(acc, valid, level, l, m1)
            l = np.where(m1, l + 1, l)
            m2 = ((r & 1) == 1) & (l < r)
            r = np.where(m2, r - 1, r)
            self._absorb(acc, valid, level, r, m2)
            l >>= 1
            r >>= 1
        return acc, valid

    def _absorb(self, acc, valid, level, idx, mask):
        rows = np.flatnonzero(mask)
        if len(rows) == 0:
            return
        g = idx[rows]
        a_valid = valid[rows]
        copy_rows, copy_g = rows[~a_valid], g[~a_valid]
        for f in self.ir.fields:
            acc[f][copy_rows] = level[f][copy_g]
        valid[copy_rows] = True
        both, bg = rows[a_valid], g[a_valid]
        if len(both):
            merged = self.ir.combine(
                {f: acc[f][both] for f in self.ir.fields},
                {f: level[f][bg] for f in self.ir.fields},
            )
            for f in self.ir.fields:
                acc[f][both] = merged[f]


# ---------------------------------------------------------------------------
# OBJECT engine helpers
# ---------------------------------------------------------------------------


class _Nested(ScalarOp):
    """An op whose IR nests the IRs of an inner op; the object engine
    serves it.  Its clone is ScalarOp's default full copy."""

    def __init__(self, inner: ScalarOp):
        self.inner = inner
        self.timed = inner.timed
        self.order_sensitive = inner.order_sensitive


class BucketedOp(_Nested):
    """Sub-key aggregation: IR = {bucket: inner_ir}; output map[bucket->out]
    (reference BucketedColumnAggregator.scala:1-94)."""

    def prepare(self, vb, ts=None):
        v, b = vb
        return {b: self.inner.prepare(v, ts)}

    def update(self, ir, vb, ts=None):
        v, b = vb
        sub = ir.get(b)
        ir[b] = self.inner.prepare(v, ts) if sub is None else self.inner.update(sub, v, ts)
        return ir

    def merge(self, ir1, ir2):
        for b, sub in ir2.items():
            if b in ir1:
                ir1[b] = self.inner.merge(ir1[b], sub)
            else:
                ir1[b] = sub
        return ir1

    def finalize(self, ir):
        return {b: self.inner.finalize(sub) for b, sub in ir.items()}


class ExplodeOp(_Nested):
    """Auto-explode list inputs: every element updates the inner op, as if
    each were its own row (reference ColumnAggregator.scala:79-116
    VectorDispatcher).  Element nulls are skipped."""

    def _fold(self, ir, vec, ts):
        for v in vec:
            if v is None or (isinstance(v, float) and v != v):
                continue
            ir = self.inner.prepare(v, ts) if ir is None else self.inner.update(ir, v, ts)
        return ir

    def prepare(self, vec, ts=None):
        return self._fold(None, vec, ts)

    def update(self, ir, vec, ts=None):
        return self._fold(ir, vec, ts)

    def merge(self, ir1, ir2):
        if ir1 is None:
            return ir2
        if ir2 is None:
            return ir1
        return self.inner.merge(ir1, ir2)

    def finalize(self, ir):
        return None if ir is None else self.inner.finalize(ir)


class MapColumnOp(_Nested):
    """Aggregate a map<key, value> column per key: IR = {key: inner_ir},
    output map<key, out> (reference MapColumnAggregator.scala:1-75)."""

    def prepare(self, m, ts=None):
        return self.update({}, m, ts)

    def update(self, ir, m, ts=None):
        for k, v in m.items():
            if v is None or (isinstance(v, float) and v != v):
                continue
            sub = ir.get(k)
            ir[k] = self.inner.prepare(v, ts) if sub is None else self.inner.update(sub, v, ts)
        return ir

    def merge(self, ir1, ir2):
        for k, sub in ir2.items():
            if k in ir1:
                ir1[k] = self.inner.merge(ir1[k], sub)
            else:
                ir1[k] = sub
        return ir1

    def finalize(self, ir):
        return {k: self.inner.finalize(sub) for k, sub in ir.items()}


class ElementWiseOp(_Nested):
    """Aggregate list columns element-wise (reference ElementWiseAggregator.scala)."""

    def prepare(self, vec, ts=None):
        return [self.inner.prepare(v, ts) for v in vec]

    def update(self, ir, vec, ts=None):
        for i, v in enumerate(vec):
            if i < len(ir):
                ir[i] = self.inner.update(ir[i], v, ts)
            else:
                ir.append(self.inner.prepare(v, ts))
        return ir

    def merge(self, ir1, ir2):
        for i, sub in enumerate(ir2):
            if i < len(ir1):
                ir1[i] = self.inner.merge(ir1[i], sub)
            else:
                ir1.append(sub)
        return ir1

    def finalize(self, ir):
        return [self.inner.finalize(sub) for sub in ir]


def _part_op(part: AggregationPart, col: "_Column") -> ScalarOp:
    """The part's ScalarOp over its input column: wrapped for element-wise,
    list (exploded) and map parts, then for a bucket."""
    op = make_scalar_op(part)
    if part.element_wise:
        op = ElementWiseOp(op)
    elif part.bucket is None and col.is_list:
        op = ExplodeOp(op)
    elif part.bucket is None and col.is_map:
        op = MapColumnOp(op)
    return op if part.bucket is None else BucketedOp(op)


class _TileTwoStack:
    """Two-stack sliding window over HOP-TILE IRs (banker's queue, the
    TwoStackLite trick applied at tile granularity): tile indices are pushed
    and evicted monotonically, each tile is cloned+merged an amortized O(1)
    number of times, and a window query costs at most two clones — replacing
    the old per-query loop that cloned and merged EVERY tile in the window.

    Mutation discipline: ScalarOp.merge may mutate its FIRST argument and may
    return an alias of either argument, so every stored IR is cloned before
    it becomes a merge's first argument, and query results are cloned before
    the caller may merge partial-tile IRs into them."""

    __slots__ = ("op", "front_idx", "front_ir", "back_idx", "back_irs", "back_ir")

    def __init__(self, op):
        from collections import deque

        self.op = op
        self.front_idx = deque()  # ascending tile index, oldest first
        self.front_ir = deque()   # suffix IRs: front_ir[i] folds tiles i..end
        self.back_idx: list[int] = []
        self.back_irs: list = []
        self.back_ir = None

    def push(self, t: int, ir):
        self.back_idx.append(t)
        self.back_irs.append(ir)
        leaf = self.op.clone(ir)
        self.back_ir = leaf if self.back_ir is None else self.op.merge(self.back_ir, leaf)

    def _flip(self):
        self.front_idx.extend(self.back_idx)
        irs: list = [None] * len(self.back_idx)
        acc = None
        for i in range(len(self.back_idx) - 1, -1, -1):
            leaf = self.op.clone(self.back_irs[i])
            acc = leaf if acc is None else self.op.merge(leaf, acc)
            irs[i] = acc
        self.front_ir.extend(irs)
        self.back_idx, self.back_irs, self.back_ir = [], [], None

    def evict_before(self, t0: int):
        while True:
            while self.front_idx and self.front_idx[0] < t0:
                self.front_idx.popleft()
                self.front_ir.popleft()
            if self.front_idx or not self.back_idx or self.back_idx[0] >= t0:
                return
            self._flip()

    def query_cloned(self):
        """Merged IR of every tile in the buffer, safe for the caller to
        mutate; None when empty."""
        front = self.front_ir[0] if self.front_ir else None
        if front is None:
            return None if self.back_ir is None else self.op.clone(self.back_ir)
        leaf = self.op.clone(front)
        if self.back_ir is None:
            return leaf
        return self.op.merge(leaf, self.op.clone(self.back_ir))


# ---------------------------------------------------------------------------
# The partition aggregator
# ---------------------------------------------------------------------------


class PartitionAggregator:
    """Evaluates agg parts for one co-partitioned (events, queries) group."""

    def __init__(
        self,
        key_cols: list[str],
        parts: list[AggregationPart],
        resolution=FiveMinuteResolution,
        head_rounding: int = 1,
        tie_breaker: str | None = None,
        dedupe_queries: bool = False,
    ):
        self.key_cols = key_cols
        self.parts = parts
        self.resolution = resolution
        self.head_rounding = head_rounding
        self.tie_breaker = tie_breaker
        self.dedupe_queries = dedupe_queries

    def aggregate_tables(
        self, events: pa.Table, queries: pa.Table, extra_key_cols=()
    ) -> tuple[np.ndarray, dict[str, pa.Array]]:
        """events: key_cols + ts + inputs; queries: key_cols + ts +
        passthrough.  Returns (q_order, {output column: answers}): one Arrow
        array per part, of ``output_type(part, <its input column's type in
        events>)``, with one answer per row of ``queries.take(q_order)``.

        The caller reorders the queries table with ``queries.take(q_order)``
        — passthrough columns never leave Arrow.  extra_key_cols joins the
        entity factorization (hot-key time chunking passes CHUNK_COL so
        chunk partitions stay separate even when two chunks of one key
        hash-collide into the same bucket)."""
        evf, qf = _ArrowFrame(events), _ArrowFrame(queries)
        ev_ent, q_ent = _factorize_frames(
            evf, qf, self.key_cols + list(extra_key_cols)
        )
        ev_ts = evf.np_col("ts").astype(np.int64)
        q_ts = qf.np_col("ts").astype(np.int64)

        if self.tie_breaker and self.tie_breaker in evf.names:
            tie = evf.np_col(self.tie_breaker)
            ev_order = np.lexsort((tie, ev_ts, ev_ent))
        else:
            ev_order = np.lexsort((ev_ts, ev_ent))
        q_order = np.lexsort((q_ts, q_ent))

        ev_ent_s, ev_ts_s = ev_ent[ev_order], ev_ts[ev_order]
        q_ent_s, q_ts_s = q_ent[q_order], q_ts[q_order]
        if self.dedupe_queries and len(q_ts_s):
            # dedupe (entity, ts) inside the co-partition shuffle — saves a
            # dedicated DISTINCT exchange (uniqSort analogue, GroupBy.scala:311)
            keep = np.ones(len(q_ts_s), dtype=bool)
            keep[1:] = (np.diff(q_ent_s) != 0) | (np.diff(q_ts_s) != 0)
            q_order = q_order[keep]
            q_ent_s, q_ts_s = q_ent_s[keep], q_ts_s[keep]
        events_s = evf.take(ev_order)

        n = len(ev_ts_s)
        if n:
            tmin = int(ev_ts_s.min())
            span = int(ev_ts_s.max()) - tmin + 2
            max_ent = int(max(ev_ent_s.max(initial=0), q_ent_s.max(initial=0))) + 1
            assert max_ent * span < (1 << 62), "composite key overflow; repartition finer"
            ev_key = ev_ent_s * np.int64(span) + (ev_ts_s - tmin)
        else:
            tmin, span, ev_key = 0, 1, np.zeros(0, dtype=np.int64)

        def bound_idx(bound_ts: np.ndarray) -> np.ndarray:
            off = np.clip(bound_ts - tmin, 0, span - 1)
            return np.searchsorted(ev_key, q_ent_s * np.int64(span) + off, side="left")

        # cache: (lower, upper) raw index bounds per (window_millis, hop)
        bounds_cache: dict = {}
        cols: dict[str, _Column] = {}
        segtrees: dict = {}

        def get_bounds(part: AggregationPart):
            if part.window.unbounded:
                key = ("unbounded",)
                if key not in bounds_cache:
                    upper = (
                        q_ts_s
                        if self.head_rounding == 1
                        else round_down(q_ts_s, self.head_rounding)
                    )
                    bounds_cache[key] = (bound_idx(np.full_like(q_ts_s, _NEG_INF)), bound_idx(upper))
                return bounds_cache[key]
            hop = self.resolution.tail_hop(part.window)
            key = (part.window.millis, hop)
            if key not in bounds_cache:
                upper_ts = (
                    q_ts_s if self.head_rounding == 1 else round_down(q_ts_s, self.head_rounding)
                )
                lower_ts = round_down(q_ts_s - part.window.millis, hop)
                bounds_cache[key] = (bound_idx(lower_ts), bound_idx(upper_ts))
            return bounds_cache[key]

        def get_col(name: str) -> _Column:
            if name not in cols:
                cols[name] = _Column(events_s.np_col(name), ev_ts_s, events.schema.field(name).type)
            return cols[name]

        results: dict[str, pa.Array] = {}
        for part in self.parts:
            typ = output_type(part, events.schema.field(part.input_column).type)
            results[part.output_column] = self._eval_part(
                part, typ, ev_ts_s, ev_ent_s, get_col, get_bounds, segtrees, len(q_ts_s)
            )
        return q_order, results

    # -- engines ----------------------------------------------------------

    def _eval_part(self, part, typ, ev_ts_s, ev_ent_s, get_col, get_bounds, segtrees, nq):
        if len(ev_ts_s) == 0:
            return pa.nulls(nq, typ)
        col = get_col(part.input_column)
        op = _part_op(part, col)
        if isinstance(op, _Nested):
            if isinstance(op, ExplodeOp) and op.inner.ufunc is np.add:
                return self._list_prefix_engine(part, typ, col, get_bounds)
            return self._object_engine(part, typ, op, col, ev_ts_s, ev_ent_s, get_col, get_bounds, nq)
        if op.timed:
            return self._position_engine(part, typ, col, get_bounds, nq)
        if op.ufunc is np.add:
            return self._prefix_engine(part, typ, col, get_bounds)
        vector_ir = _VECTOR_IRS.get(type(op))
        # over strings only a comparison (an extremum) has a vector state
        if vector_ir is not None and (col.numeric is not None or op.ufunc is not None):
            if vector_ir is MomentsIR and col.decimal is not None:
                return self._exact_moments_engine(part, typ, col, get_bounds)
            return self._segtree_engine(part, typ, vector_ir(op), col, get_bounds, segtrees, nq)
        if isinstance(op, ApproxPercentile):
            return self._percentile_engine(part, typ, col, get_bounds, nq)
        return self._object_engine(part, typ, op, col, ev_ts_s, ev_ent_s, get_col, get_bounds, nq)

    def _prefix_engine(self, part, typ, col, get_bounds):
        l, r = get_bounds(part)
        cnt = col.cum_valid[r] - col.cum_valid[l]
        empty = cnt == 0
        if part.operation is Operation.COUNT:
            return _array(cnt, typ, empty)
        if col.numeric is not None and col.numeric.dtype.kind == "f" and col.decimal is not None:
            # EXACT fixed-point sum: bitwise-deterministic across partition
            # and merge order (matches an oracle summing scaled BIGINTs)
            d, _ = col.decimal
            lv, rv = col.compress(l, r)
            cs = col.dec_prefix(1)
            s = (cs[rv] - cs[lv]).astype(np.float64) / np.float64(10.0**d)
        else:
            cs = col.cumsum
            s = cs[r] - cs[l]
        if part.operation is not Operation.SUM:
            with np.errstate(invalid="ignore", divide="ignore"):
                s = s.astype(np.float64) / np.maximum(cnt, 1)
        return _array(s, typ, empty)

    def _list_prefix_engine(self, part, typ, col, get_bounds):
        """Exploded SUM/COUNT/AVERAGE over a list column: per-row element
        sums/counts precomputed once, then the usual prefix-difference — the
        whole window aggregate without materializing the explosion."""
        sums, cnts = col.list_stats()
        cs_sum = np.zeros(len(sums) + 1, dtype=np.float64)
        cs_sum[1:] = cumsum1d(sums, dtype=np.float64)
        cs_cnt = np.zeros(len(cnts) + 1, dtype=np.int64)
        cs_cnt[1:] = cumsum1d(cnts, dtype=np.int64)
        l, r = get_bounds(part)
        cnt = cs_cnt[r] - cs_cnt[l]
        empty = cnt == 0
        if part.operation is Operation.COUNT:
            return _array(cnt, typ, empty)
        s = cs_sum[r] - cs_sum[l]
        if part.operation is not Operation.SUM:
            with np.errstate(invalid="ignore", divide="ignore"):
                s = s / np.maximum(cnt, 1)
        return _array(s, typ, empty)

    def _position_engine(self, part, typ, col, get_bounds, nq):
        l, r = get_bounds(part)
        lv, rv = col.compress(l, r)
        has = rv > lv
        vals = col.comp_vals
        op = part.operation
        if op in (Operation.FIRST, Operation.LAST):
            if len(vals) == 0:  # every value in the partition is null:
                # the placeholder index 0 below would be out of bounds
                return pa.nulls(nq, typ)
            idx = np.where(has, np.where(op is Operation.FIRST, lv, rv - 1), 0)
            return _array(vals[idx], typ, ~has)
        k = int(part.arg("k"))
        if op is Operation.LAST_K:
            start = np.maximum(lv, rv - k)
            lengths = np.where(has, rv - start, 0)
            # flat indices: rv-1, rv-2, ... descending ts (most recent first)
            flat = concat_ranges(rv - 1, lengths, step=-1)
        else:  # FIRST_K
            end = np.minimum.reduce([rv, lv + k])
            lengths = np.where(has, end - lv, 0)
            flat = concat_ranges(lv, lengths)
        return _lists(lengths, vals[flat], typ, ~has)

    def _segtree_engine(self, part, typ, ir, col, get_bounds, segtrees, nq):
        tree_key = (part.input_column, part.operation, part.arg("k"))
        if tree_key not in segtrees:
            segtrees[tree_key] = SegTree(ir, col.comp_vals)
        tree = segtrees[tree_key]
        l, r = get_bounds(part)
        lv, rv = col.compress(l, r)
        state, valid = tree.query(lv, rv)
        if state is None:
            return pa.nulls(nq, typ)
        return tree.ir.finalize(state, valid, typ)

    def _exact_moments_engine(self, part, typ, col, get_bounds):
        """Variance/skew/kurtosis from EXACT integer power sums of the
        fixed-point-scaled values, finalized with a fixed double-op sequence.

        The power sums are order-independent integers, so the result is
        bitwise identical however the partition was ordered or merged — and
        matches an oracle computing sum(sv^k) in BIGINT/HUGEINT then applying
        the same double expressions:
            M2 = s2 - s1*(s1/n);  M3 = s3 - (3*m)*s2 + ((2*m)*m)*s1
            M4 = s4 - (4*m)*s3 + ((6*m)*m)*s2 - (((3*m)*m)*m)*s1
            var = M2/n;  skew = sqrt(n)*M3/(M2*sqrt(M2));
            kurt = n*M4/(M2*M2) - 3            (m = s1/n)
        """
        op = part.operation
        d, _ = col.decimal
        l, r = get_bounds(part)
        lv, rv = col.compress(l, r)
        n = (rv - lv).astype(np.float64)
        scale = np.float64(10.0**d)

        def psum(p):
            cs = col.dec_prefix(p)
            sf = (cs[rv] - cs[lv]).astype(np.float64)
            return sf / (scale**p)

        s1 = psum(1)
        s2 = psum(2)
        with np.errstate(invalid="ignore", divide="ignore"):
            m = s1 / n
            m2 = s2 - s1 * m
            if op is Operation.VARIANCE:
                out = np.where(n >= 1, m2 / n, np.nan)
            elif op is Operation.SKEW:
                s3 = psum(3)
                m3 = s3 - (3 * m) * s2 + ((2 * m) * m) * s1
                out = np.where(
                    (n >= 3) & (m2 > 0), np.sqrt(n) * m3 / (m2 * np.sqrt(m2)), np.nan
                )
            else:
                s3 = psum(3)
                s4 = psum(4)
                m4 = s4 - (4 * m) * s3 + ((6 * m) * m) * s2 - (((3 * m) * m) * m) * s1
                out = np.where((n >= 4) & (m2 > 0), n * m4 / (m2 * m2) - 3, np.nan)
        return _array(out, typ, n < 1)

    def _percentile_engine(self, part, typ, col, get_bounds, nq):
        """Exact percentiles of every query's window: the k-th smallest of
        the window's non-null values, for all queries at once
        (``_range_kth``).  Ties take the earlier event, so an answer depends
        on the window alone, not on which other keys share the kernel call.

        interpolation="disc" answers with the value at nearest rank
        k = ceil(p*cnt)-1, clamped to [0, cnt-1] (SQL quantile_disc), so
        the answers are data elements; the default linear rule reads
        lo = int(p*(cnt-1)) and hi = min(lo+1, cnt-1) and answers v_lo when
        frac = p*(cnt-1) - lo is 0, else v_lo*(1-frac) + v_hi*frac.  The
        sketch size ``k`` is not read here: only the online sketch
        (``ApproxPercentile``) is approximate."""
        import json as _json

        pct = part.arg("percentiles")
        if isinstance(pct, str):
            pct = _json.loads(pct)
        pct = np.asarray(list(pct) if pct else [0.5], dtype=np.float64)[:, None]
        l, r = get_bounds(part)
        lv, rv = col.compress(l, r)
        live = rv > lv
        if not live.any():
            return pa.nulls(nq, typ)
        vals = col.comp_vals.astype(np.float64)
        order = np.argsort(vals, kind="stable")
        ranks = np.empty(len(vals), dtype=np.int64)
        ranks[order] = np.arange(len(vals))
        lv, rv = lv[live], rv[live]
        cnt = rv - lv
        if part.arg("interpolation") == "disc":
            k = np.clip(np.ceil(pct * cnt).astype(np.int64) - 1, 0, cnt - 1)
            res = vals[order[_range_kth(ranks, lv, rv, k)]]
        else:
            pos = pct * (cnt - 1)
            lo = pos.astype(np.int64)
            frac = pos - lo
            both = order[_range_kth(ranks, lv, rv, np.stack([lo, np.minimum(lo + 1, cnt - 1)]))]
            v_lo, v_hi = vals[both]
            with np.errstate(invalid="ignore"):
                res = np.where(frac == 0, v_lo, v_lo * (1 - frac) + v_hi * frac)
        # res is (percentiles x live windows): row i of the column is res[:, i]
        return _lists(live * len(pct), res.T.ravel(), typ, ~live)

    def _object_engine(self, part, typ, op, col, ev_ts_s, ev_ent_s, get_col, get_bounds, nq):
        valid = col.valid
        if part.bucket is not None:
            bcol = get_col(part.bucket)
            valid = valid & bcol.valid
        l, r = get_bounds(part)
        out = np.empty(nq, dtype=object)
        if part.window.unbounded:
            hop = self.resolution.hop_sizes[0]
        else:
            hop = self.resolution.tail_hop(part.window)
        # hop tiles over the sorted events (contiguous per (entity, hop))
        hop_start = round_down(ev_ts_s, hop)
        tile_break = np.ones(len(ev_ts_s), dtype=bool)
        tile_break[1:] = (np.diff(hop_start) != 0) | (np.diff(ev_ent_s) != 0)
        tile_idx = cumsum1d(tile_break) - 1
        tile_bounds = np.flatnonzero(tile_break)
        tile_bounds = np.append(tile_bounds, len(ev_ts_s))
        n_tiles = len(tile_bounds) - 1

        # per query: its first and last tile t0, t1; the whole tiles
        # ft0..ft1 inside [l, r); and the raw rows of the partial head tile
        # (of the one tile, when a partial window stays inside it) and of
        # the partial tail tile
        live = l < r
        t0 = tile_idx[np.minimum(l, len(ev_ts_s) - 1)]
        t1 = tile_idx[np.maximum(r - 1, 0)]
        head = live & (tile_bounds[t0] < l)
        tail = live & (tile_bounds[t1 + 1] > r)
        ft0, ft1 = t0 + head, t1 - tail
        single = (t0 == t1) & (head | tail)
        has_head, has_tail = head | single, tail & ~single
        whole = live & (ft0 <= ft1)
        needed = np.flatnonzero(np.cumsum(
            np.bincount(ft0[whole], minlength=n_tiles + 1)
            - np.bincount(ft1[whole] + 1, minlength=n_tiles + 1))[:n_tiles] > 0)
        # one fold over the needed tiles, then every head and tail piece
        lo = np.concatenate([tile_bounds[needed], l[has_head], tile_bounds[t1[has_tail]]])
        hi = np.concatenate([tile_bounds[needed + 1],
                             np.where(single, r, tile_bounds[t0 + 1])[has_head], r[has_tail]])
        lengths = hi - lo
        rows = concat_ranges(lo, lengths)
        seg = np.repeat(np.arange(len(lo)), lengths)
        keep = valid[rows]
        rows, seg = rows[keep], seg[keep]
        starts = np.flatnonzero(np.diff(seg, prepend=-1))
        vals = col.raw[rows]
        if part.bucket is not None:  # (value, bucket) rows, kept 1-D
            vals = np.fromiter(zip(vals, bcol.raw[rows]), dtype=object, count=len(rows))
        irs = np.full(len(lo), None, dtype=object)  # None: no valid row
        irs[seg[starts]] = np.fromiter(
            op.fold_segments(vals, ev_ts_s[rows], starts), dtype=object, count=len(starts))
        k, h = len(needed), len(needed) + int(has_head.sum())
        tiles = np.full(n_tiles, None, dtype=object)
        tiles[needed] = irs[:k]
        head_ir, tail_ir = np.full(nq, None, dtype=object), np.full(nq, None, dtype=object)
        head_ir[has_head], tail_ir[has_tail] = irs[k:h], irs[h:]
        live, has_head = live.tolist(), has_head.tolist()
        t0, ft0, ft1 = t0.tolist(), ft0.tolist(), ft1.tolist()

        def merged(ir, subs):
            for sub in subs:
                if sub is not None:
                    ir = sub if ir is None else op.merge(ir, sub)
            return ir

        def with_tiles(ir, a, b):
            # tile IRs are shared by queries: merge clones of tiles a..b
            return merged(ir, (op.clone(tiles[t]) for t in range(a, b + 1) if tiles[t] is not None))

        if op.order_sensitive:
            # lossy sketches give different (equally valid) results under a
            # different merge fold; keep them on the fixed ascending-tile
            # fold so outputs are reproducible run to run AND SQL-oracle-
            # mirrorable.  Amortization WITHOUT changing the fold: queries
            # sharing a window-start tile share an incrementally-extended
            # ascending prefix fold (identical merge sequence per query, so
            # bitwise-identical outputs); sawtooth lows are hop-aligned, so
            # the start tile is never partial on the temporal path and the
            # cache hits for every query inside a hop.
            cache_t0 = None
            cache_t1 = -1
            cache_ir = None
            for i in range(nq):
                if not live[i]:
                    out[i] = None
                    continue
                if has_head[i]:
                    # non-hop-aligned low (or single partial tile): exact
                    # per-query ascending fold
                    ir = with_tiles(head_ir[i], ft0[i], ft1[i])
                else:
                    if cache_t0 != t0[i] or cache_t1 > ft1[i]:
                        cache_t0, cache_t1, cache_ir = t0[i], t0[i] - 1, None
                    cache_ir = with_tiles(cache_ir, cache_t1 + 1, ft1[i])
                    cache_t1 = max(cache_t1, ft1[i])
                    ir = None if cache_ir is None else op.clone(cache_ir)
                ir = merged(ir, (tail_ir[i],))
                out[i] = None if ir is None else op.finalize(ir)
            return to_arrow(out, typ)

        # queries arrive sorted by (entity, ts) and bounds come from one
        # composite searchsorted, so [t0, t1] advances monotonically — a
        # two-stack over full tiles gives amortized O(1) clone+merge per
        # tile; only the (<= 2) partial head/tail tiles aggregate raw.
        # Merge order vs the old ascending-tile loop differs only for
        # equal-ts ties, which always share a hop tile, so results match.
        stack = _TileTwoStack(op)
        pushed = -1
        for i in range(nq):
            if not live[i]:
                out[i] = None
                continue
            stack.evict_before(ft0[i])
            ir = None
            if ft1[i] >= ft0[i]:
                for t in range(max(pushed + 1, ft0[i]), ft1[i] + 1):
                    if tiles[t] is not None:
                        stack.push(t, tiles[t])
                pushed = max(pushed, ft1[i])
                ir = stack.query_cloned()
            ir = merged(ir, (head_ir[i], tail_ir[i]))
            out[i] = None if ir is None else op.finalize(ir)
        return to_arrow(out, typ)


def _range_kth(ranks: np.ndarray, lv: np.ndarray, rv: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The k-th smallest (0-based) of ranks[lv:rv] for every query at once.

    ``ranks`` is a permutation of 0..n-1; k broadcasts against lv and rv and
    0 <= k < rv - lv.  This is a wavelet matrix descent (Claude & Navarro,
    SPIRE 2012): level by level from the top bit, ``zeros`` counts the
    zero bits before each position, a query whose k falls among its range's
    zeros keeps that bit 0 and narrows to them, else sets it and narrows to
    the ones; then the level is stably partitioned zeros first.  Each level
    is built, read by every query, and dropped: O((n + queries) log n)
    numpy work and O(n + queries) memory."""
    shape = np.broadcast(lv, k).shape
    dt = np.int32 if len(ranks) < (1 << 31) - 1 else np.int64
    l = np.broadcast_to(lv, shape).astype(dt).ravel()
    r = np.broadcast_to(rv, shape).astype(dt).ravel()
    k = np.broadcast_to(k, shape).astype(dt).ravel()
    res = np.zeros(len(k), dtype=dt)
    cur = ranks.astype(dt)
    zeros = np.zeros(len(ranks) + 1, dtype=dt)
    for bit in reversed(range(max(len(ranks) - 1, 0).bit_length())):
        one = (cur & (1 << bit)) != 0
        np.cumsum(~one, dtype=dt, out=zeros[1:])
        zl, zr = zeros[l], zeros[r]
        in_zeros = zr - zl
        right = k >= in_zeros
        res |= right.astype(dt) << bit
        k -= np.where(right, in_zeros, 0)
        l = np.where(right, zeros[-1] + l - zl, zl)
        r = np.where(right, zeros[-1] + r - zr, zr)
        cur = np.concatenate((cur[~one], cur[one]))
    return res.reshape(shape)
