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
import pandas as pd

from ..aggregator.npfast import cumsum1d
from ..stages.shuffle import co_partition


def _sorted_groups(df: pd.DataFrame, key_cols, ts_col, tie_col):
    sort_cols = list(key_cols) + [ts_col] + ([tie_col] if tie_col else [])
    df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
    keys = df[key_cols[0]].astype(str)
    for c in key_cols[1:]:
        keys = keys + "\x00" + df[c].astype(str)
    codes, _ = pd.factorize(keys)
    new_key = np.ones(len(df), dtype=bool)
    new_key[1:] = codes[1:] != codes[:-1]
    return df, new_key


class LagLead:
    """map_groups fn: adds {col}_lag_{n} / {col}_lead_{n} columns."""

    def __init__(self, key_cols, value_cols, lags=(1,), leads=(1,), ts_col="ts", tie_col=None):
        self.key_cols = key_cols
        self.value_cols = value_cols
        self.lags = lags
        self.leads = leads
        self.ts_col = ts_col
        self.tie_col = tie_col

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        df, new_key = _sorted_groups(group, self.key_cols, self.ts_col, self.tie_col)
        n = len(df)
        key_start = np.flatnonzero(new_key)  # first row index of each key segment
        seg_id = cumsum1d(new_key) - 1
        seg_first = key_start[seg_id]  # per-row start of its segment
        seg_last = np.empty(n, dtype=np.int64)
        ends = np.append(key_start[1:], n) - 1
        seg_last = ends[seg_id]
        idx = np.arange(n)
        for col in self.value_cols:
            vals = df[col].to_numpy()
            for k in self.lags:
                src = idx - k
                ok = src >= seg_first
                out = np.where(ok, vals[np.clip(src, 0, n - 1)], None if vals.dtype.kind == "O" else np.nan)
                df[f"{col}_lag_{k}"] = out
            for k in self.leads:
                src = idx + k
                ok = src <= seg_last
                out = np.where(ok, vals[np.clip(src, 0, n - 1)], None if vals.dtype.kind == "O" else np.nan)
                df[f"{col}_lead_{k}"] = out
        return df


class Sessionize:
    """map_groups fn: adds session_id (0-based per key) and session_event_seq
    (0-based position within the session).  With output="sessions", emits one
    row per session instead: keys + session_id + session_start / session_end /
    n_events / duration_ms."""

    def __init__(self, key_cols, gap_ms: int, ts_col="ts", tie_col=None, output="events"):
        self.key_cols = key_cols
        self.gap_ms = gap_ms
        self.ts_col = ts_col
        self.tie_col = tie_col
        self.output = output

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        df, new_key = _sorted_groups(group, self.key_cols, self.ts_col, self.tie_col)
        n = len(df)
        ts = df[self.ts_col].to_numpy().astype(np.int64)
        gap = np.zeros(n, dtype=bool)
        gap[1:] = (ts[1:] - ts[:-1]) > self.gap_ms
        new_session = new_key | gap
        # session_id resets per key: cumcount of new_session minus value at key start
        sess_cum = cumsum1d(new_session)
        key_start_idx = np.flatnonzero(new_key)
        seg_id = cumsum1d(new_key) - 1
        sess_at_key_start = sess_cum[key_start_idx]
        df["session_id"] = (sess_cum - sess_at_key_start[seg_id]).astype(np.int64)
        # position within session
        sess_start = np.flatnonzero(new_session)
        sid = cumsum1d(new_session) - 1
        df["session_event_seq"] = (np.arange(n) - sess_start[sid]).astype(np.int64)
        if self.output == "sessions":
            starts = np.flatnonzero(new_session)
            ends = np.append(starts[1:], n) - 1
            out = df.iloc[starts][list(self.key_cols) + ["session_id"]].reset_index(drop=True)
            out["session_start"] = ts[starts]
            out["session_end"] = ts[ends]
            out["n_events"] = (ends - starts + 1).astype(np.int64)
            out["duration_ms"] = (ts[ends] - ts[starts]).astype(np.int64)
            return out
        return df


def lag_lead(ds, key_cols, value_cols, lags=(1,), leads=(1,), ts_col="ts", tie_col=None):
    fn = LagLead(key_cols, value_cols, lags, leads, ts_col, tie_col)
    return co_partition(ds, key_cols, fn, batch_format="pandas")


def sessionize(ds, key_cols, gap_ms, ts_col="ts", tie_col=None, output="events"):
    fn = Sessionize(key_cols, gap_ms, ts_col, tie_col, output)
    return co_partition(ds, key_cols, fn, batch_format="pandas")
