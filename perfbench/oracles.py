"""Brute-force oracles the benchmark checks raywin's outputs against: DuckDB
recomputes for the two backfills and a numpy fold for the online fetches.

They restate the window rule independently of raywin (documented in
raywin/aggregator/windowing.py): an event counts for a query at ts when

    round_down(ts - window, tail_hop) <= event_ts < ts

with tail_hop 1 day for windows >= 12 days, 1 hour for >= 12 hours and
5 minutes below; unbounded windows have no lower bound.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

DAY = 86_400_000
HOUR = 3_600_000
MIN5 = 300_000

# (output column, op, input column, window ms or None for unbounded): the
# aggregations of the numeric GroupBy both events_backfill and online_fetch use
NUMERIC_PARTS = [
    ("amount_sum_1d", "sum", "amount", DAY),
    ("amount_sum_7d", "sum", "amount", 7 * DAY),
    ("clicks_count_6h", "count", "clicks", 6 * HOUR),
    ("amount_average_3d", "avg", "amount", 3 * DAY),
    ("clicks_max_1d", "max", "clicks", DAY),
    ("clicks_sum", "sum", "clicks", None),
]
RTOL = 1e-9


def tail_hop(window_ms: int) -> int:
    if window_ms >= 12 * DAY:
        return DAY
    if window_ms >= 12 * HOUR:
        return HOUR
    return MIN5


def values_match(got, exp, rtol: float = RTOL) -> bool:
    """Null-aware equality; floats within rtol, lists element by element."""
    if exp is None or (isinstance(exp, float) and math.isnan(exp)):
        return got is None or (isinstance(got, float) and math.isnan(got))
    if got is None:
        return False
    if isinstance(exp, (list, tuple, np.ndarray)):
        return len(got) == len(exp) and all(values_match(g, e, rtol) for g, e in zip(got, exp))
    if isinstance(exp, (float, np.floating)) or isinstance(got, (float, np.floating)):
        return math.isclose(float(got), float(exp), rel_tol=rtol, abs_tol=rtol)
    return got == exp


def rows_mismatch(got: dict, exp: dict, columns, rtol: float = RTOL) -> list[str]:
    """Columns of one row whose values differ (a missing row differs in all)."""
    if got is None:
        return list(columns)
    return [c for c in columns if not values_match(got.get(c), exp.get(c), rtol)]


def keyed(table: pa.Table, keys) -> dict:
    return {tuple(r[k] for k in keys): r for r in table.to_pylist()}


def compare_keyed(got_table: pa.Table, exp_table: pa.Table, keys) -> list[tuple]:
    """[(key, [bad columns])] for every expected row that the output lacks
    or gets wrong, plus output rows the oracle does not expect."""
    cols = [c for c in exp_table.column_names if c not in keys]
    got = keyed(got_table, keys)
    exp = keyed(exp_table, keys)
    bad = [(k, rows_mismatch(got.get(k), e, cols)) for k, e in exp.items()]
    bad = [b for b in bad if b[1]]
    bad += [(k, ["unexpected row"]) for k in got.keys() - exp.keys()]
    return bad


def tables_match(a: pa.Table, b: pa.Table, keys, rtol: float = RTOL) -> bool:
    """Same rows and values, ignoring row order: numeric columns compared
    vectorized within rtol, the rest by exact equality."""
    if a.num_rows != b.num_rows or set(a.column_names) != set(b.column_names):
        return False
    order = [(k, "ascending") for k in keys]
    a, b = a.sort_by(order), b.sort_by(order)
    for name in a.column_names:
        ca, cb = a.column(name), b.column(name)
        t = ca.type
        if pa.types.is_floating(t) or pa.types.is_integer(t):
            x = ca.to_numpy(zero_copy_only=False).astype(np.float64)
            y = cb.to_numpy(zero_copy_only=False).astype(np.float64)
            if not np.allclose(x, y, rtol=rtol, atol=rtol, equal_nan=True):
                return False
        elif not all(values_match(g, e, rtol) for g, e in zip(ca.to_pylist(), cb.to_pylist())):
            return False
    return True


def _sql_agg(op: str, col: str, window_ms) -> str:
    if window_ms is None:
        f = ""
    else:
        hop = tail_hop(window_ms)
        f = f"FILTER (WHERE ets >= (ts - {window_ms}) // {hop} * {hop})"
    if op == "count":
        return f"nullif(count({col}) {f}, 0)"
    return f"{op}({col}) {f}"


def _in_list(values) -> str:
    return ", ".join(repr(v) for v in values)


def img_oracle(con, truth_dir: str, image_ids) -> pa.Table:
    """Point-in-time image features for every (image_id, ts) event of the
    sampled ids, from the generator's per-row decoded-feature truth table,
    plus views_count_7d_incl: the same count with events AT the query ts
    let in, to detect leakage."""
    d, h = DAY, HOUR
    return con.sql(f"""
WITH e AS (SELECT image_id, ts, phash, views, score, mean_lum, contrast, edge_energy,
                  CAST(round(score * 1000) AS BIGINT) AS ssv
           FROM read_parquet('{truth_dir}/*.parquet')
           WHERE image_id IN ({_in_list(image_ids)})),
q AS (SELECT DISTINCT image_id, ts FROM e),
p AS (SELECT q.image_id, q.ts, e.views, e.score, e.ssv, e.mean_lum, e.contrast,
             e.edge_energy, e.ts AS ets, e.phash
      FROM q LEFT JOIN e ON e.image_id = q.image_id AND e.ts < q.ts),
incl AS (SELECT q.image_id, q.ts,
                count(e.views) FILTER (WHERE e.ts >= (q.ts - {7 * d}) // {h} * {h})
                  AS views_count_7d_incl
         FROM q JOIN e ON e.image_id = q.image_id AND e.ts <= q.ts GROUP BY 1, 2),
f AS (
SELECT image_id, ts,
  sum(views) FILTER (WHERE ets >= (ts - {d}) // {h} * {h}) AS views_sum_1d,
  sum(views) FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}) AS views_sum_7d,
  nullif(count(views) FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}), 0)
    AS views_count_7d,
  CAST(sum(ssv) FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}) AS DOUBLE) / 1000.0
    / count(score) FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}) AS score_average_7d,
  CAST(sum(ssv) AS DOUBLE) / 1000.0 / count(score) AS score_average,
  (list(mean_lum ORDER BY ets DESC, phash DESC)
     FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}))[1:3] AS mean_lum_last3_7d,
  quantile_disc(contrast, [0.5, 0.95]) FILTER (WHERE ets >= (ts - {30 * d}) // {d} * {d})
    AS contrast_approx_percentile_30d,
  max(edge_energy) FILTER (WHERE ets >= (ts - {7 * d}) // {h} * {h}) AS edge_energy_max_7d
FROM p GROUP BY image_id, ts)
SELECT f.*, incl.views_count_7d_incl FROM f JOIN incl USING (image_id, ts)
""").arrow()


def numeric_oracle(con, events_glob: str, queries_glob: str, user_ids, ts_lo: int,
                   ts_hi: int) -> pa.Table:
    """As-of NUMERIC_PARTS features for every distinct (user_id, ts) query
    in [ts_lo, ts_hi) of the sampled users."""
    aggs = ",\n  ".join(
        f"{_sql_agg(op, col, w)} AS {name}" for name, op, col, w in NUMERIC_PARTS
    )
    ids = _in_list(int(u) for u in user_ids)
    return con.sql(f"""
WITH e AS (SELECT user_id, ts, amount, clicks FROM read_parquet('{events_glob}')
           WHERE user_id IN ({ids})),
q AS (SELECT DISTINCT user_id, ts FROM read_parquet('{queries_glob}')
      WHERE user_id IN ({ids}) AND ts >= {ts_lo} AND ts < {ts_hi}),
p AS (SELECT q.user_id, q.ts, e.ts AS ets, e.amount, e.clicks
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts)
SELECT user_id, ts,
  {aggs}
FROM p GROUP BY user_id, ts
""").arrow()


class NumericFold:
    """Brute-force fold of NUMERIC_PARTS over every event of a key before a
    query ts (events from the batch half and the ingested stream alike)."""

    def __init__(self, events: pa.Table):
        keys = events["user_id"].to_numpy()
        order = np.lexsort((events["ts"].to_numpy(), keys))
        self._cols = {c: events[c].to_numpy()[order] for c in ("ts", "amount", "clicks")}
        k = keys[order]
        starts = np.flatnonzero(np.r_[True, k[1:] != k[:-1]])
        ends = np.r_[starts[1:], len(k)]
        self._span = {int(k[s]): (s, e) for s, e in zip(starts, ends)}

    def features(self, user_id: int, q: int) -> dict:
        s, e = self._span.get(int(user_id), (0, 0))
        ts = self._cols["ts"][s:e]
        out = {}
        for name, op, col, w in NUMERIC_PARTS:
            lo = np.iinfo(np.int64).min if w is None else (q - w) // tail_hop(w) * tail_hop(w)
            v = self._cols[col][s:e][(ts >= lo) & (ts < q)]
            if len(v) == 0:
                out[name] = None
            elif op == "sum":
                out[name] = v.sum().item()
            elif op == "count":
                out[name] = len(v)
            elif op == "avg":
                out[name] = float(v.mean())
            else:
                out[name] = v.max().item()
        return out
