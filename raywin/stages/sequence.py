"""Order-sensitive per-entity sequence operators: lag/lead and inactivity-gap
sessionization.

These are BASELINE additions with no direct Chronon equivalent (closest
primitives: the timed aggregators, reference TimedAggregators.scala:74-183,
and TwoStackLite's sorted-scan pattern, TwoStackLiteAggregator.scala:26-216).
Semantics are defined against the SQL oracle:

    lag_N  = LAG(value, N)  OVER (PARTITION BY keys ORDER BY ts, tie)
    lead_N = LEAD(value, N) OVER (PARTITION BY keys ORDER BY ts, tie)
    session_id = cumulative count of gaps > gap_ms within key, ordered the
    same way (session numbering starts at 0 per key)

Execution: one hash(keys) co-partition shuffle, then a fully vectorized
numpy scan per partition (sort + shift within key segments) — one
``co_partition`` stage; ordering is enforced by the explicit
within-partition sort (Ray Data gives no intra-key order guarantees).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..aggregator.npfast import cumsum1d
from ..stages.shuffle import co_partition, sort_by_key


def _sorted_groups(t: pa.Table, key_cols, ts_col, tie_col):
    order = [(ts_col, "ascending")] + ([(tie_col, "ascending")] if tie_col else [])
    t, starts, _ = sort_by_key(t, list(key_cols), order)
    new_key = np.zeros(len(t), dtype=bool)
    new_key[starts] = True
    return t, new_key


class LagLead:
    """co_partition fn: adds {col}_lag_{n} / {col}_lead_{n} columns (null
    past the key's first or last event)."""

    def __init__(self, key_cols, value_cols, lags=(1,), leads=(1,), ts_col="ts", tie_col=None):
        self.key_cols = key_cols
        self.value_cols = value_cols
        self.lags = lags
        self.leads = leads
        self.ts_col = ts_col
        self.tie_col = tie_col

    def __call__(self, group: pa.Table) -> pa.Table:
        t, new_key = _sorted_groups(group, self.key_cols, self.ts_col, self.tie_col)
        n = len(t)
        key_start = np.flatnonzero(new_key)  # first row index of each key segment
        seg_id = cumsum1d(new_key) - 1
        seg_first = key_start[seg_id]  # per-row start of its segment
        seg_last = (np.append(key_start[1:], n) - 1)[seg_id]
        idx = np.arange(n)
        for col in self.value_cols:
            vals = t[col]
            shifts = [(f"{col}_lag_{k}", idx - k) for k in self.lags] + [(f"{col}_lead_{k}", idx + k) for k in self.leads]
            for name, src in shifts:
                off = (src < seg_first) | (src > seg_last)
                t = t.append_column(name, vals.take(pa.array(np.clip(src, 0, n - 1), mask=off)))
        return t


class Sessionize:
    """co_partition fn: adds session_id (0-based per key) and session_event_seq
    (0-based position within the session).  With output="sessions", emits one
    row per session instead: keys + session_id + session_start / session_end /
    n_events / duration_ms."""

    def __init__(self, key_cols, gap_ms: int, ts_col="ts", tie_col=None, output="events"):
        self.key_cols = key_cols
        self.gap_ms = gap_ms
        self.ts_col = ts_col
        self.tie_col = tie_col
        self.output = output

    def __call__(self, group: pa.Table) -> pa.Table:
        t, new_key = _sorted_groups(group, self.key_cols, self.ts_col, self.tie_col)
        n = len(t)
        ts = t[self.ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
        gap = np.zeros(n, dtype=bool)
        gap[1:] = (ts[1:] - ts[:-1]) > self.gap_ms
        new_session = new_key | gap
        # session_id resets per key: cumcount of new_session minus value at key start
        sess_cum = cumsum1d(new_session)
        key_start_idx = np.flatnonzero(new_key)
        seg_id = cumsum1d(new_key) - 1
        session_id = (sess_cum - sess_cum[key_start_idx][seg_id]).astype(np.int64)
        # position within session
        starts = np.flatnonzero(new_session)
        sid = sess_cum - 1
        if self.output == "sessions":
            ends = np.append(starts[1:], n) - 1
            return t.take(starts).select(list(self.key_cols)).append_column(
                "session_id", pa.array(session_id[starts])
            ).append_column("session_start", pa.array(ts[starts])).append_column(
                "session_end", pa.array(ts[ends])
            ).append_column("n_events", pa.array((ends - starts + 1).astype(np.int64))).append_column(
                "duration_ms", pa.array(ts[ends] - ts[starts])
            )
        return t.append_column("session_id", pa.array(session_id)).append_column(
            "session_event_seq", pa.array((np.arange(n) - starts[sid]).astype(np.int64))
        )


def lag_lead(ds, key_cols, value_cols, lags=(1,), leads=(1,), ts_col="ts", tie_col=None):
    fn = LagLead(key_cols, value_cols, lags, leads, ts_col, tie_col)
    return co_partition(ds, key_cols, fn)


def sessionize(ds, key_cols, gap_ms, ts_col="ts", tie_col=None, output="events"):
    fn = Sessionize(key_cols, gap_ms, ts_col, tie_col, output)
    return co_partition(ds, key_cols, fn)
