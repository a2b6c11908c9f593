"""Entity-source pipelines: PITC aggregation over MUTABLE data.

Reference semantics (spark/.../GroupBy.scala:100-142 snapshotEntities,
:171-274 temporalEntities; CDC row convention api/py/ai/chronon/query.py:66-72):

  * snapshot_table: one row per (key, row, ds) — entity state as of that
    day's end, each row carrying its own ``ts`` (creation time).
  * mutation_table: CDC rows (keys, values, ts, mutation_ts, is_before); an
    update is TWO rows (old value is_before=true, new value is_before=false);
    insert = false-only, delete = true-only.  ``ts`` is the ROW's timestamp,
    ``mutation_ts`` when the change happened.
  * SNAPSHOT accuracy: features as of each ds = aggregate that day's snapshot.
  * TEMPORAL accuracy: feature at query ts = aggregate of the entity state at
    that millisecond = previous-day snapshot + same-day mutations with
    mutation_ts < ts applied as signed contributions (is_before = -1) — the
    reference's SawtoothMutationAggregator.scala:185-222 topology collapsed
    into signed prefix sums.

Windowed aggregations filter on the ROW ts with the sawtooth daily tail
(round_down(q - w, DAY) <= ts < q), mirroring mergeTailHops
(SawtoothMutationAggregator.scala:147-178).  Supported operations are the
DELETABLE (abelian-group) set — SUM / COUNT / AVERAGE — whose IRs admit CDC
reversal (api.thrift:156-167); the reference's fast mutation path has the
same restriction.

Scale shape: ONE co-partitioning shuffle of (queries ∪ snapshots ∪
mutations) hash-bucketed by entity key; inside each bucket everything —
including the windowed-mutation sweep — is sorted composite-searchsorted
numpy (the 2-D constraint {mutation_ts < q AND ts in window} decomposes
into max(mutation_ts, ts) < q minus at-most-two fixed day-boundary lo
passes).  Sums use EXACT scaled-int64 fixed-point
arithmetic when values are decimal-like, so results are bitwise-reproducible
and match a DuckDB recompute oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..api import MILLIS_DAY, EntitySource, GroupBy, Operation
from ..aggregator.kernel import detect_decimal, factorize_multi
from ..aggregator.scalar_ops import make_scalar_op
from ..aggregator.windowing import round_down
from ..sources.io import read_parquet
from ..stages.shuffle import SIDE_COL, _arrow_schema, co_partition, declare_schema

_HIST_TYPE = pa.map_(pa.string(), pa.int64())


def snapshot_entity_features(group_by: GroupBy):
    """SNAPSHOT accuracy over an EntitySource: one feature row per (keys, ds)
    aggregating that day's snapshot rows (GroupBy.scala:100-142)."""
    src = group_by.sources[0]
    assert isinstance(src, EntitySource)
    if not group_by.aggregations:
        # no-aggregation GroupBy = keyed passthrough of the scanned snapshot
        # (reference GroupBy.scala:137-141: `if (aggregations == null) inputDf`)
        from ..sources.io import scan_source

        return scan_source(src)
    ds_ = read_parquet(src.snapshot_table)
    parts = group_by.agg_parts()
    key_cols = group_by.key_columns

    _VEC = {
        Operation.SUM, Operation.COUNT, Operation.AVERAGE, Operation.MIN,
        Operation.MAX, Operation.VARIANCE, Operation.UNIQUE_COUNT,
        Operation.BOUNDED_UNIQUE_COUNT,
    }
    generic = [p for p in parts if p.operation not in _VEC]
    scalar_ops = {p.output_column: make_scalar_op(p) for p in generic}

    def agg_fn(t: pa.Table) -> pd.DataFrame:
        g = t.to_pandas()  # pandas groupby reductions: the kernel
        if generic:
            # timed ops (FIRST/LAST/…_K) read rows in ts order; stable sort
            # keeps insertion order among ts ties like the row-based reference
            g = g.sort_values("ts", kind="stable") if "ts" in g else g
        groups = g.groupby(key_cols + ["ds"], sort=False)
        frames = {}
        for part in parts:
            op = part.operation
            col = groups[part.input_column]
            if op is Operation.SUM:
                # null for an all-null group, as SQL's sum()
                frames[part.output_column] = col.sum(min_count=1)
            elif op is Operation.COUNT:
                frames[part.output_column] = col.count()
            elif op is Operation.AVERAGE:
                frames[part.output_column] = col.mean()
            elif op is Operation.MIN:
                frames[part.output_column] = col.min()
            elif op is Operation.MAX:
                frames[part.output_column] = col.max()
            elif op is Operation.VARIANCE:
                frames[part.output_column] = col.var(ddof=0)
            elif op is Operation.UNIQUE_COUNT:
                frames[part.output_column] = col.nunique()
            elif op is Operation.BOUNDED_UNIQUE_COUNT:
                k = int(part.arg("k") or 8)
                frames[part.output_column] = col.nunique().clip(upper=k)
            else:
                # full op set via the scalar-op IR machinery (the reference's
                # snapshotEntities runs the whole RowAggregator op table,
                # GroupBy.scala:100-142); groups are one entity-day of
                # snapshot rows, so the per-group reduce is tiny
                def reduce_group(sub: pd.DataFrame, sop=scalar_ops[part.output_column],
                                 vcol=part.input_column):
                    vals = sub[vcol].to_numpy()
                    keep = pd.notna(vals)
                    if not keep.any():
                        return None
                    ts = sub["ts"].to_numpy() if "ts" in sub else np.zeros(len(vals), dtype=np.int64)
                    ir, = sop.fold_segments(vals[keep], ts[keep], np.zeros(1, dtype=np.int64))
                    return sop.finalize(ir)

                frames[part.output_column] = groups[
                    [part.input_column] + (["ts"] if "ts" in g else [])
                ].apply(reduce_group)
        return pd.DataFrame(frames).reset_index()

    return co_partition(ds_, key_cols, agg_fn)


class EntityKernel:
    """Per-bucket temporal-entities merge: previous-day snapshot base +
    signed same-day mutation deltas at each query timestamp, with optional
    sawtooth windows over the row ts."""

    def __init__(self, key_cols, parts, left_names):
        self.key_cols = key_cols
        self.parts = parts
        self.left_names = left_names
        for part in parts:
            # SUM/COUNT/AVERAGE/HISTOGRAM, as the reference's CDC-reversible
            # set; it raises "Operation is not deletable" for the rest too
            # (BaseAggregator.scala:60-62)
            if not make_scalar_op(part).deletable:
                raise NotImplementedError(
                    f"temporal entities requires deletable ops, got {part.operation}"
                )
        self.out_fields = [
            pa.field(p.output_column, _HIST_TYPE if p.operation is Operation.HISTOGRAM else pa.float64())
            for p in parts
        ]

    def __call__(self, group: pa.Table) -> pa.Table:
        side = group[SIDE_COL].to_numpy(zero_copy_only=False)
        queries = group.filter(pa.array(side == 0)).select(self.left_names)
        out_schema = pa.schema(list(queries.schema) + self.out_fields)
        if queries.num_rows == 0:
            return out_schema.empty_table()
        snaps = group.filter(pa.array(side == 1))
        muts = group.filter(pa.array(side == 2))

        def col(t: pa.Table, name: str) -> np.ndarray:
            return t[name].to_numpy(zero_copy_only=False)

        (q_k, s_k, m_k), _ = factorize_multi(
            [[col(t, c) for c in self.key_cols] for t in (queries, snaps, muts)]
        )
        q_ts = col(queries, "ts").astype(np.int64)
        q_day = (q_ts // MILLIS_DAY) * MILLIS_DAY
        # snapshot of day D covers queries of day D+1: snap day-end == q day-start
        s_day = pd.to_datetime(col(snaps, "ds")).to_numpy().astype("datetime64[ms]").astype(np.int64) + MILLIS_DAY
        s_ts = col(snaps, "ts").astype(np.int64)
        m_mts = col(muts, "mutation_ts").astype(np.int64)
        m_ts = col(muts, "ts").astype(np.int64)
        m_day = (m_mts // MILLIS_DAY) * MILLIS_DAY
        m_sign = np.where(col(muts, "is_before"), -1, 1).astype(np.int64)

        # jointly factorize (key, day) segments across the three frames into
        # DENSE codes (composite searchsorted keys must stay within int64)
        days = np.concatenate([q_day, s_day, m_day]) // MILLIS_DAY
        dmin = days.min() if len(days) else 0
        nd = int(days.max() - dmin) + 1 if len(days) else 1
        mixed = np.concatenate([q_k, s_k, m_k]) * np.int64(nd) + (days - dmin)
        seg_all, _ = pd.factorize(mixed)
        seg_all = seg_all.astype(np.int64)
        q_seg, s_seg, m_seg = np.split(seg_all, [len(q_k), len(q_k) + len(s_k)])

        # sort once per side
        s_order = np.lexsort((s_ts, s_seg))
        s_seg_s, s_ts_s = s_seg[s_order], s_ts[s_order]
        m_order = np.lexsort((m_mts, m_seg))
        m_seg_s, m_mts_s, m_ts_s = m_seg[m_order], m_mts[m_order], m_ts[m_order]
        m_sign_s = m_sign[m_order]
        q_order = np.lexsort((q_ts, q_seg))

        out: dict = {}
        num_parts = [p for p in self.parts if p.operation is not Operation.HISTOGRAM]
        hist_parts = [p for p in self.parts if p.operation is Operation.HISTOGRAM]
        for col_name, col_parts in _group_by_column(num_parts):
            self._eval_column(
                out, col_parts,
                q_seg, q_ts, q_day,
                s_seg_s, s_ts_s, col(snaps, col_name)[s_order],
                m_seg_s, m_mts_s, m_ts_s, m_sign_s, col(muts, col_name)[m_order],
            )
        for part in hist_parts:
            self._eval_histogram(
                out, part,
                q_seg, q_ts, q_order,
                s_seg_s, s_ts_s, col(snaps, part.input_column)[s_order],
                m_seg_s, m_mts_s, m_ts_s, m_sign_s, col(muts, part.input_column)[m_order],
            )
        feats = [
            pa.array(
                [None if v is None else sorted(v.items()) for v in out[p.output_column]],
                type=_HIST_TYPE,
            )
            if p.operation is Operation.HISTOGRAM
            else pa.array(out[p.output_column], type=pa.float64(), from_pandas=True)  # NaN -> null
            for p in self.parts
        ]
        return pa.Table.from_arrays(list(queries.columns) + feats, schema=out_schema)

    def _eval_histogram(
        self, out, part,
        q_seg, q_ts, q_order,
        s_seg, s_ts, s_vals,
        m_seg, m_mts, m_ts, m_sign, m_vals,
    ):
        """Signed map-count sweep: base histogram from the previous-day
        snapshot (window-trimmed on row ts, lo non-decreasing within a
        (key, day) segment) + same-day mutation deltas applied in
        mutation_ts order, reversed out of the window via a ts-ordered heap
        (mirrors Histogram.delete, SimpleAggregators.scala:311-321)."""
        import heapq

        nq = len(q_ts)
        res: list = [None] * nq
        w = None if part.window.unbounded else part.window.millis
        k = int(part.arg("k") or 0)
        s_valid = pd.notna(s_vals)
        m_valid = pd.notna(m_vals)
        cur_seg = None
        base: dict = {}
        delta: dict = {}
        heap: list = []
        ptr_s = s_hi = m_ptr = m_end = 0
        for qi in q_order:
            seg = q_seg[qi]
            qt = int(q_ts[qi])
            lo = round_down(qt - w, MILLIS_DAY) if w is not None else None
            if seg != cur_seg:
                cur_seg = seg
                s_lo = int(np.searchsorted(s_seg, seg, side="left"))
                s_hi = int(np.searchsorted(s_seg, seg, side="right"))
                base = {}
                for j in range(s_lo, s_hi):
                    if s_valid[j]:
                        key = str(s_vals[j])
                        base[key] = base.get(key, 0) + 1
                ptr_s = s_lo
                m_ptr = int(np.searchsorted(m_seg, seg, side="left"))
                m_end = int(np.searchsorted(m_seg, seg, side="right"))
                delta = {}
                heap = []
            while m_ptr < m_end and m_mts[m_ptr] < qt:
                if m_valid[m_ptr]:
                    mt = int(m_ts[m_ptr])
                    # row already left the (non-decreasing) window: skip forever
                    if lo is None or mt >= lo:
                        v = str(m_vals[m_ptr])
                        sg = int(m_sign[m_ptr])
                        delta[v] = delta.get(v, 0) + sg
                        heapq.heappush(heap, (mt, v, sg))
                m_ptr += 1
            if lo is not None:
                while ptr_s < s_hi and s_ts[ptr_s] < lo:
                    if s_valid[ptr_s]:
                        key = str(s_vals[ptr_s])
                        base[key] = base.get(key, 0) - 1
                    ptr_s += 1
                while heap and heap[0][0] < lo:
                    _, v, sg = heapq.heappop(heap)
                    delta[v] = delta.get(v, 0) - sg
            hist = dict(base)
            for v, c in delta.items():
                hist[v] = hist.get(v, 0) + c
            hist = {v: c for v, c in hist.items() if c > 0}
            if k and len(hist) > k:
                top = sorted(hist.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
                hist = dict(top)
            res[qi] = hist if hist else None
        out[part.output_column] = res

    def _eval_column(
        self, out, parts,
        q_seg, q_ts, q_day,
        s_seg, s_ts, s_vals,
        m_seg, m_mts, m_ts, m_sign, m_vals,
    ):
        nq = len(q_ts)
        all_vals = np.concatenate([
            np.asarray(s_vals, dtype=np.float64),
            np.asarray(m_vals, dtype=np.float64),
        ])
        dec = detect_decimal(all_vals, np.isfinite(all_vals))
        if dec is not None:
            d, scaled = dec
            sv_s = scaled[: len(s_vals)]
            sv_m = scaled[len(s_vals):]
            s_valid = np.isfinite(np.asarray(s_vals, dtype=np.float64)).astype(np.int64)
            m_valid = np.isfinite(np.asarray(m_vals, dtype=np.float64)).astype(np.int64)
        else:
            d = None
            sv_s = np.nan_to_num(np.asarray(s_vals, dtype=np.float64))
            sv_m = np.nan_to_num(np.asarray(m_vals, dtype=np.float64))
            s_valid = (~np.isnan(np.asarray(s_vals, dtype=np.float64))).astype(np.int64)
            m_valid = (~np.isnan(np.asarray(m_vals, dtype=np.float64))).astype(np.int64)
        scale = np.float64(10.0 ** d) if d is not None else np.float64(1.0)

        # ---- snapshot side: composite searchsorted over (seg, ts) ----------
        ns = len(s_seg)
        if ns:
            tmin = int(s_ts.min())
            span = int(s_ts.max()) - tmin + 2
            s_key = s_seg * np.int64(span) + (s_ts - tmin)
            cs_sum = np.zeros(ns + 1, dtype=np.int64 if d is not None else np.float64)
            cs_sum[1:] = np.cumsum(np.where(s_valid > 0, sv_s, 0))
            cs_cnt = np.zeros(ns + 1, dtype=np.int64)
            cs_cnt[1:] = np.cumsum(s_valid)

            def snap_bounds(lo_ts, hi_ts):
                lo = np.clip(lo_ts - tmin, 0, span - 1)
                hi = np.clip(hi_ts - tmin, 0, span - 1)
                l = np.searchsorted(s_key, q_seg * np.int64(span) + lo, side="left")
                r = np.searchsorted(s_key, q_seg * np.int64(span) + hi, side="left")
                return l, r

        # ---- mutation side, unbounded: searchsorted over (seg, mutation_ts)
        nm = len(m_seg)
        if nm:
            mtmin = int(m_mts.min())
            mspan = int(m_mts.max()) - mtmin + 2
            m_key = m_seg * np.int64(mspan) + (m_mts - mtmin)
            cm_sum = np.zeros(nm + 1, dtype=np.int64 if d is not None else np.float64)
            cm_sum[1:] = np.cumsum(np.where(m_valid > 0, sv_m * m_sign, 0))
            cm_cnt = np.zeros(nm + 1, dtype=np.int64)
            cm_cnt[1:] = np.cumsum(m_valid * m_sign)

        unbounded = [p for p in parts if p.window.unbounded]
        windowed = [p for p in parts if not p.window.unbounded]

        results = {}
        if unbounded:
            ssum = np.zeros(nq, dtype=np.float64)
            scnt = np.zeros(nq, dtype=np.int64)
            if ns:
                l, r = snap_bounds(np.full(nq, tmin - 1), q_ts)
                ssum = (cs_sum[r] - cs_sum[l]).astype(np.float64)
                scnt = cs_cnt[r] - cs_cnt[l]
            msum = np.zeros(nq, dtype=np.float64)
            mcnt = np.zeros(nq, dtype=np.int64)
            if nm:
                lo = np.clip(q_day - mtmin, 0, mspan - 1)
                hi = np.clip(q_ts - mtmin, 0, mspan - 1)
                l = np.searchsorted(m_key, q_seg * np.int64(mspan) + lo, side="left")
                r = np.searchsorted(m_key, q_seg * np.int64(mspan) + hi, side="left")
                msum = (cm_sum[r] - cm_sum[l]).astype(np.float64)
                mcnt = cm_cnt[r] - cm_cnt[l]
            for p in unbounded:
                results[p.output_column] = (ssum + msum, scnt + mcnt)

        if windowed:
            # snapshot side per window is vectorized; the mutation side needs
            # the 2-D (mutation_ts < q, ts in window) constraint: one Fenwick
            # sweep over queries in (seg, ts) order, activating mutations as
            # mutation_ts passes and de-activating on segment change
            win_snap = {}
            for p in windowed:
                lo_ts = round_down(q_ts - p.window.millis, MILLIS_DAY)
                if ns:
                    l, r = snap_bounds(lo_ts, q_ts)
                    win_snap[p.output_column] = (
                        (cs_sum[r] - cs_sum[l]).astype(np.float64),
                        cs_cnt[r] - cs_cnt[l],
                        lo_ts,
                    )
                else:
                    win_snap[p.output_column] = (
                        np.zeros(nq), np.zeros(nq, dtype=np.int64), lo_ts
                    )
            wsum = {p.output_column: np.zeros(nq, dtype=np.float64) for p in windowed}
            wcnt = {p.output_column: np.zeros(nq, dtype=np.int64) for p in windowed}
            if nm:
                # the 2-D constraint {m_mts < qt AND m_ts in [lo, qt)}
                # decomposes into two fully-vectorized 1-D prefix problems
                # (replaces the per-query Python Fenwick sweep):
                #   hi: {m_mts < qt AND m_ts < qt} == {max(m_mts, m_ts) < qt}
                #       — one composite (seg, max) searchsorted, shared by
                #       every part (window-independent)
                #   lo: {m_mts < qt AND m_ts < lo}; lo = round(qt - w, DAY)
                #       takes at most TWO distinct day values per (segment,
                #       window) since qt sweeps one day, so two global masked
                #       subsequences of the (seg, m_mts)-sorted mutations
                #       cover all queries
                wgt = sv_m * m_sign * m_valid  # exact scaled ints when fixed-point
                cnt = (m_sign * m_valid).astype(np.int64)
                m_day_m = (m_mts // MILLIS_DAY) * MILLIS_DAY

                hmax = np.maximum(m_mts, m_ts)
                h_order = np.lexsort((hmax, m_seg))
                hmin = int(hmax.min())
                hspan = int(hmax.max()) - hmin + 2
                h_key = m_seg[h_order] * np.int64(hspan) + (hmax[h_order] - hmin)
                ch_w = np.zeros(nm + 1, dtype=wgt.dtype)
                ch_w[1:] = np.cumsum(wgt[h_order])
                ch_c = np.zeros(nm + 1, dtype=np.int64)
                ch_c[1:] = np.cumsum(cnt[h_order])
                kq = q_seg * np.int64(hspan) + np.clip(q_ts - hmin, 0, hspan - 1)
                pos = np.searchsorted(h_key, kq, side="left")
                pos0 = np.searchsorted(h_key, q_seg * np.int64(hspan), side="left")
                hi_w = (ch_w[pos] - ch_w[pos0]).astype(np.float64)
                hi_c = ch_c[pos] - ch_c[pos0]

                for p in windowed:
                    w = p.window.millis
                    oc = p.output_column
                    lo_ts = win_snap[oc][2]
                    base_lo_q = round_down(q_day - w, MILLIS_DAY)
                    base_lo_m = round_down(m_day_m - w, MILLIS_DAY)
                    lo_w = np.zeros(nq, dtype=np.float64)
                    lo_c = np.zeros(nq, dtype=np.int64)
                    for b in (0, 1):
                        q_idx = np.flatnonzero(lo_ts == base_lo_q + b * MILLIS_DAY)
                        if not len(q_idx):
                            continue
                        sub = np.flatnonzero(m_ts < base_lo_m + b * MILLIS_DAY)
                        if not len(sub):
                            continue
                        # subsequence of a (seg, m_mts)-sorted array is sorted
                        sub_key = m_seg[sub] * np.int64(mspan) + (m_mts[sub] - mtmin)
                        cw = np.concatenate(([0], np.cumsum(wgt[sub])))
                        cc = np.concatenate(([0], np.cumsum(cnt[sub])))
                        kq2 = q_seg[q_idx] * np.int64(mspan) + np.clip(
                            q_ts[q_idx] - mtmin, 0, mspan - 1
                        )
                        pos2 = np.searchsorted(sub_key, kq2, side="left")
                        pos2_0 = np.searchsorted(
                            sub_key, q_seg[q_idx] * np.int64(mspan), side="left"
                        )
                        lo_w[q_idx] = cw[pos2] - cw[pos2_0]
                        lo_c[q_idx] = cc[pos2] - cc[pos2_0]
                    wsum[oc] = hi_w - lo_w
                    wcnt[oc] = hi_c - lo_c
            for p in windowed:
                oc = p.output_column
                ss, sc, _ = win_snap[oc]
                results[oc] = (ss + wsum[oc], sc + wcnt[oc])

        for p in parts:
            tot_sum, tot_cnt = results[p.output_column]
            # <= (not ==): CDC deletes of rows never covered by the base
            # snapshot (inconsistent input, e.g. day-0 queries with no
            # previous-day snapshot) can drive the signed count negative;
            # such windows finalize as null, same as genuinely empty ones
            empty = tot_cnt <= 0
            with np.errstate(invalid="ignore", divide="ignore"):
                if p.operation is Operation.COUNT:
                    vals = tot_cnt.astype(np.float64)
                elif p.operation is Operation.SUM:
                    vals = tot_sum / scale
                else:
                    vals = (tot_sum / scale) / tot_cnt
            out[p.output_column] = np.where(empty, np.nan, vals)


def _group_by_column(parts):
    by_col: dict[str, list] = {}
    for p in parts:
        by_col.setdefault(p.input_column, []).append(p)
    return by_col.items()


def temporal_entity_features(group_by: GroupBy, left_ds):
    """TEMPORAL accuracy over an EntitySource with CDC mutations: features as
    of the exact query millisecond, zero leakage of same-timestamp mutations
    (strict mutation_ts < query ts)."""
    src = group_by.sources[0]
    assert isinstance(src, EntitySource) and src.mutation_table
    snaps = read_parquet(src.snapshot_table)
    muts = read_parquet(src.mutation_table)
    key_cols = group_by.key_columns
    parts = group_by.agg_parts()

    l_arrow = _arrow_schema(left_ds)
    kernel = EntityKernel(key_cols, parts, list(l_arrow.names))
    out = co_partition([left_ds, snaps, muts], key_cols, kernel)
    return declare_schema(out, pa.schema(list(l_arrow) + kernel.out_fields))
