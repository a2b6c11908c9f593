"""Named query catalog: every operator/pipeline exposed as a callable
``fn(sf_dir) -> Dataset | DataFrame``, with a matching DuckDB oracle SQL
where the semantics are SQL-expressible (driver correctness gate).

Column names are chosen to match the oracle SQL exactly (the driver's
value-hash compare sorts columns by name).

Ordering contract (tests/test_catalog_contract.py): the driver records only
the first 50 entries of ``ORACLE_QUERIES``, so it has at most 50, in one dict
literal.  The flagship ``image_backfill`` is first and ``image_backfill_skew``
second; every ``Operation``, ``buckets=`` and ``element_wise=True`` appears
in some registered query's GroupBy.  One query covers an operator family:
queries that read the same table at the same grain are one query whose
oracle joins the old oracles as CTEs on the shared key (``_merged_sql``)."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..api import (
    Accuracy,
    Aggregation,
    Derivation,
    EventSource,
    GroupBy,
    Join,
    JoinPart,
    Operation,
    Query,
    TimeUnit,
    Window,
)
from ..context import tune_data_context
from ..sources.io import read_parquet
from ..stages.shuffle import _arrow_schema, co_partition, declare_schema

# Engine context (shuffle strategy, reservation, generator-buffer deadlock
# fix — see raywin/context.py) must cover EVERY entry path, including the
# driver calling queries() directly; DataContext is a process singleton so
# applying it at catalog import is safe with or without ray.init.
tune_data_context()

# max rows of a filtered dimension pulled to the driver for a broadcast join;
# above this the plan falls back to a distributed bucketed hash join
BROADCAST_DIM_CUTOFF = int(os.environ.get("RAYWIN_BROADCAST_CUTOFF", "2000000"))
HOUR = 3600 * 1000
DAY = 24 * HOUR


def _events_source(sf_dir: str, selects: dict[str, str]) -> EventSource:
    return EventSource(
        table=f"{sf_dir}/events.parquet",
        query=Query(selects=selects, time_column="epoch_ms(ts)"),
    )


def _events_ds(sf_dir: str, columns):
    return read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def _query_rows(read, rows, keys: list[str]):
    """``rows``, a pipeline over the parquet ``read``, declared as
    (keys..., ts) query rows: keys keep the read's types, ts is epoch millis.
    The kernel then never probes the pipeline for its schema."""
    fields = [_arrow_schema(read).field(k) for k in keys]
    return declare_schema(rows, pa.schema(fields + [pa.field("ts", pa.int64())]))


def _ts_ms(t: pa.Table) -> pa.Array:
    """Epoch millis of an Arrow batch's ts column."""
    return pc.divide(t["ts"].cast(pa.int64()), 1000)


def _distinct_user_ts(sf_dir: str):
    """(user_id, ts-millis) query rows, distinct per block; exact dedup
    happens inside the kernel's co-partition shuffle (dedupe_queries=True at
    the call sites)."""
    read = _events_ds(sf_dir, ["user_id", "ts"])
    rows = read.map_batches(
        lambda t: pa.table({"user_id": t["user_id"], "ts": _ts_ms(t)}).group_by(["user_id", "ts"]).aggregate([]),
        batch_format="pyarrow",
    )
    return _query_rows(read, rows, ["user_id"])


def _ms_rows(read):
    """The parquet ``read`` with ts as epoch millis, declared."""
    schema = _arrow_schema(read)
    i = schema.get_field_index("ts")
    return declare_schema(
        read.map_batches(lambda t: t.set_column(i, "ts", _ts_ms(t)), batch_format="pyarrow"),
        schema.set(i, pa.field("ts", pa.int64())),
    )


def _after_last_rows(read, key: str, ts_of):
    """One (key, ts) query row per non-null ``key``, at the key's last event
    ts + 1: ``ts_of(t)`` is each row's epoch-millis ts in an Arrow batch of
    the parquet ``read``.  Each block's last ts per key, then one exchange
    on the key for the last of those."""

    def last_ts(t: pa.Table) -> pa.Table:
        return t.group_by(key).aggregate([("ts", "max")]).rename_columns([key, "ts"])

    rows = read.map_batches(
        lambda t: last_ts(pa.table({key: t[key], "ts": pc.add(ts_of(t), 1)}).filter(pc.is_valid(t[key]))),
        batch_format="pyarrow",
    )
    return _query_rows(read, co_partition(_query_rows(read, rows, [key]), [key], last_ts), [key])


def _explode_maps(feats, keep: list[str], key_col: str, maps: dict[str, str]):
    """One row per (row of ``feats``, key of any of its ``maps`` columns):
    the ``keep`` columns, the map key as ``key_col`` (string) and each map's
    int64 value at that key, null where that map lacks it (``maps``: map
    column -> output name).  Rows whose maps are all null or empty go."""

    def explode(batch: pa.Table) -> pa.Table:
        cols = [[dict(m or ()) for m in batch[c].to_pylist()] for c in maps]
        rows, keys = [], []
        for i in range(batch.num_rows):
            for k in sorted(set().union(*(col[i] for col in cols))):
                rows.append(i)
                keys.append(k)
        out = {c: batch[c].take(pa.array(rows, pa.int64())) for c in keep}
        out[key_col] = pa.array(keys, pa.string())
        for col, name in zip(cols, maps.values()):
            out[name] = pa.array([col[i].get(k) for i, k in zip(rows, keys)], pa.int64())
        return pa.table(out)

    return feats.map_batches(explode, batch_format="pyarrow")


def _merged_sql(ctes: dict[str, str], select: str) -> str:
    """The oracle of a merged query: each of the oracles it replaces, as a
    named CTE, and ``select`` joining them on their shared key."""
    return "WITH " + ",\n".join(f"{name} AS ({sql})" for name, sql in ctes.items()) + "\n" + select


# --------------------------------------------------------------- as-of ops


def asof_ops(sf_dir: str):
    """Every as-of op over the events in one GroupBy: sums, counts, average
    and extremes; the timed ops (ties broken by event_id); the moments; the
    distinct counts and top/bottom-k."""
    week = [Window(7, TimeUnit.DAYS)]
    gb = GroupBy(
        sources=[
            _events_source(sf_dir, {"user_id": "user_id", "value": "value",
                                    "event_type": "event_type", "event_id": "event_id"})
        ],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "value"),
            Aggregation(Operation.MAX, "value", windows=week),
            Aggregation(Operation.MIN, "value", windows=[Window(30, TimeUnit.DAYS)]),
            Aggregation(Operation.LAST, "value"),
            Aggregation(Operation.FIRST, "value", windows=week),
            Aggregation(Operation.LAST_K, "value", windows=week, arg_map={"k": 3}),
            Aggregation(Operation.FIRST_K, "value", windows=week, arg_map={"k": 2}),
            Aggregation(Operation.VARIANCE, "value"),
            Aggregation(Operation.SKEW, "value"),
            Aggregation(Operation.KURTOSIS, "value"),
            Aggregation(Operation.UNIQUE_COUNT, "event_type", windows=week),
            Aggregation(Operation.BOUNDED_UNIQUE_COUNT, "event_type", arg_map={"k": 3}),
            Aggregation(Operation.TOP_K, "value", windows=week, arg_map={"k": 3}),
            Aggregation(Operation.BOTTOM_K, "value", windows=week, arg_map={"k": 2}),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="ops",
        tie_breaker="event_id",
    )
    from .group_by import features_for_queries

    # tie_breaker event_id is a right-side input, never a left/output column
    return features_for_queries(gb, _distinct_user_ts(sf_dir), dedupe_queries=True)


# Float sums/averages use EXACT fixed-point semantics (values are 2-decimal):
# sum = CAST(sum of scaled BIGINTs AS DOUBLE) / 100.0, avg = that / count —
# bitwise identical to the kernel's int64-prefix path regardless of order.
ASOF_CORE_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
p AS (SELECT q.user_id, q.ts, e.value, e.sv, e.ts AS ets
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts)
SELECT user_id, ts,
  CAST(sum(sv) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}) AS DOUBLE) / 100.0
    AS value_sum_1d,
  CAST(sum(sv) AS DOUBLE) / 100.0 AS value_sum,
  nullif(count(value) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}), 0) AS value_count_1d,
  CAST(sum(sv) AS DOUBLE) / 100.0 / count(value) AS value_average,
  max(value) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}) AS value_max_7d,
  min(value) FILTER (WHERE ets >= (ts - {30 * DAY})//{DAY}*{DAY}) AS value_min_30d
FROM p GROUP BY user_id, ts
"""


def model_scores(sf_dir: str):
    """ModelTransform over join output: the asof_ops feature pipeline scored
    by a linear model in a map_batches task stage (ModelTransformBatchJob.scala
    run loop; MockModelBackend role played by the deterministic `linear`
    backend).  Fixed double-op accumulation order makes the score
    bitwise-reproducible, so the oracle is the asof_ops core SQL wrapped with the
    same expression."""
    from ..api import Model, ModelTransform, ModelTransforms
    from ..stages.models import apply_model_transforms

    feats = asof_ops(sf_dir)
    mts = ModelTransforms(
        transforms=[
            ModelTransform(
                model=Model(
                    name="risk",
                    backend="linear",
                    params={
                        "weights": {"value_sum_1d": 0.03, "value_count_1d": -0.2},
                        "bias": 0.5,
                        "link": "identity",
                    },
                ),
                input_mappings=None,  # identity: model inputs ARE join columns
                output_mappings={"risk": "score"},
                prefix="m",
            ),
            ModelTransform(
                model=Model(
                    name="flag",
                    backend="linear",
                    params={
                        "weights": {"value_sum_1d": 0.03, "value_count_1d": -0.2},
                        "bias": -1.0,
                        "link": "binary",
                    },
                ),
                output_mappings={"flag": "score"},
                prefix="m",
            ),
        ],
        passthrough_fields=["value_sum_1d"],
    )
    return apply_model_transforms(feats, mts, row_ids=["user_id", "ts"])


MODEL_SCORES_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
p AS (SELECT q.user_id, q.ts, e.value, e.sv, e.ts AS ets
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts),
f AS (SELECT user_id, ts,
  CAST(sum(sv) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}) AS DOUBLE) / 100.0
    AS value_sum_1d,
  nullif(count(value) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}), 0) AS value_count_1d
FROM p GROUP BY user_id, ts)
SELECT user_id, ts, value_sum_1d,
  CAST(0.5 AS DOUBLE) + CAST(0.03 AS DOUBLE) * coalesce(value_sum_1d, 0)
    + CAST(-0.2 AS DOUBLE) * coalesce(value_count_1d, 0) AS m_risk,
  (CAST(-1.0 AS DOUBLE) + CAST(0.03 AS DOUBLE) * coalesce(value_sum_1d, 0)
    + CAST(-0.2 AS DOUBLE) * coalesce(value_count_1d, 0)) > 0 AS m_flag
FROM f
"""


ASOF_TIMED_SQL = f"""
WITH e AS (SELECT user_id, event_id, epoch_ms(ts) AS ts, value FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
p AS (SELECT q.user_id, q.ts, e.value, e.ts AS ets, e.event_id AS eid
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts AND e.value IS NOT NULL)
SELECT user_id, ts,
  (list(value ORDER BY ets DESC, eid DESC))[1] AS value_last,
  (list(value ORDER BY ets ASC, eid ASC) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}))[1] AS value_first_7d,
  (list(value ORDER BY ets DESC, eid DESC) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}))[1:3] AS value_last3_7d,
  (list(value ORDER BY ets ASC, eid ASC) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}))[1:2] AS value_first2_7d
FROM p GROUP BY user_id, ts
"""


# Moments from EXACT integer power sums of the 100x-scaled values, finalized
# with the same double-op sequence as kernel._exact_moments_engine — bitwise
# reproducible.  _TO_D is a correctly-rounded HUGEINT->DOUBLE (DuckDB's direct
# cast is off-by-ulp above 2^53; splitting at 2^53 makes the one fp add exact).
# Requires nonnegative sums (values here are positive).
_P53 = 9007199254740992


def _to_d(expr: str) -> str:
    return f"(CAST(({expr}) % {_P53} AS DOUBLE) + CAST(({expr}) // {_P53} AS DOUBLE) * {_P53}.0)"


ASOF_MOMENTS_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts,
                  CAST(round(value * 100) AS BIGINT) AS sv
           FROM events WHERE value IS NOT NULL),
q AS (SELECT DISTINCT user_id, ts FROM (SELECT user_id, epoch_ms(ts) AS ts FROM events)),
p AS (SELECT q.user_id, q.ts, e.sv
      FROM q JOIN e ON e.user_id = q.user_id AND e.ts < q.ts),
s AS (SELECT user_id, ts, count(*) AS n,
        CAST(sum(sv) AS DOUBLE) / 100.0 AS s1,
        {_to_d('sum(CAST(sv AS HUGEINT) * sv)')} / 10000.0 AS s2,
        {_to_d('sum(CAST(sv AS HUGEINT) * sv * sv)')} / 1000000.0 AS s3,
        {_to_d('sum(CAST(sv AS HUGEINT) * sv * sv * sv)')} / 100000000.0 AS s4
      FROM p GROUP BY user_id, ts),
f AS (SELECT user_id, ts, n, s1, s2, s3, s4, s1 / n AS m,
        s2 - s1 * (s1 / n) AS m2 FROM s)
SELECT q.user_id, q.ts,
  CASE WHEN n >= 1 THEN m2 / n END AS value_variance,
  CASE WHEN n >= 3 AND m2 > 0
       THEN sqrt(n) * (s3 - (3 * m) * s2 + ((2 * m) * m) * s1) / (m2 * sqrt(m2))
  END AS value_skew,
  CASE WHEN n >= 4 AND m2 > 0
       THEN n * (s4 - (4 * m) * s3 + ((6 * m) * m) * s2 - (((3 * m) * m) * m) * s1)
            / (m2 * m2) - 3
  END AS value_kurtosis
FROM q LEFT JOIN f USING (user_id, ts)
"""


ASOF_DISTINCT_SQL = f"""
WITH e AS (SELECT user_id, event_type, epoch_ms(ts) AS ts, value FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
p AS (SELECT q.user_id, q.ts, e.value, e.event_type, e.ts AS ets
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts)
SELECT user_id, ts,
  nullif(count(DISTINCT event_type) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}), 0)
    AS event_type_unique_count_7d,
  CASE WHEN count(DISTINCT event_type) = 0 THEN NULL
       ELSE least(count(DISTINCT event_type), 3) END AS event_type_bounded_unique_count,
  (list(value ORDER BY value DESC) FILTER (WHERE value IS NOT NULL
      AND ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}))[1:3] AS value_top3_7d,
  (list(value ORDER BY value ASC) FILTER (WHERE value IS NOT NULL
      AND ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}))[1:2] AS value_bottom2_7d
FROM p GROUP BY user_id, ts
"""


ASOF_OPS_SQL = _merged_sql(
    {"core": ASOF_CORE_SQL, "timed": ASOF_TIMED_SQL, "moments": ASOF_MOMENTS_SQL,
     "distincts": ASOF_DISTINCT_SQL},
    "SELECT * FROM core JOIN timed USING (user_id, ts) JOIN moments USING (user_id, ts)"
    " JOIN distincts USING (user_id, ts)",
)


def asof_histograms(sf_dir: str):
    """Each user's 7d event_type counts three ways in one GroupBy: HISTOGRAM,
    APPROX_HISTOGRAM_K and COUNT bucketed by event_type (reference cartesian
    buckets x windows, Extensions.scala:187-210; kernel.py BucketedOp).  The
    map outputs are exploded to one row per (user_id, ts, event_type).

    APPROX_HISTOGRAM_K runs THROUGH THE SKETCH PATH: map_size k=2 forces the
    exact->space-saving transition on nearly every IR (5 distinct event
    types > 2), while capacity (4*k rounded to pow2 = 8) exceeds the true
    cardinality so no counter is ever evicted — the sketch estimates are
    exact and the DuckDB oracle can be an exact histogram (reference
    ApproxHistogram, SimpleAggregators.scala:459-601)."""
    week = [Window(7, TimeUnit.DAYS)]
    gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "event_type": "event_type",
                                         "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.HISTOGRAM, "event_type", windows=week),
            Aggregation(Operation.APPROX_HISTOGRAM_K, "event_type", windows=week, arg_map={"k": 2}),
            Aggregation(Operation.COUNT, "value", buckets=["event_type"], windows=week),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="hist",
    )
    from .group_by import features_for_queries

    feats = features_for_queries(gb, _distinct_user_ts(sf_dir), dedupe_queries=True)
    return _explode_maps(feats, ["user_id", "ts"], "event_type", {
        "event_type_histogram_7d": "histogram",
        "event_type_approx_histogram_k_7d": "approx_histogram",
        "value_count_7d_by_event_type": "bucketed_count",
    })


ASOF_HISTOGRAM_SQL = f"""
WITH e AS (SELECT user_id, event_type, epoch_ms(ts) AS ts FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e)
SELECT q.user_id, q.ts, e.event_type, count(*) AS cnt
FROM q JOIN e ON e.user_id = q.user_id AND e.ts < q.ts
  AND e.ts >= (q.ts - {7 * DAY})//{HOUR}*{HOUR} AND e.event_type IS NOT NULL
GROUP BY q.user_id, q.ts, e.event_type
"""


BUCKETED_COUNTS_SQL = f"""
WITH e AS (SELECT user_id, event_type, epoch_ms(ts) AS ts, value FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e)
SELECT q.user_id, q.ts, e.event_type AS bucket, count(e.value) AS cnt
FROM q JOIN e ON e.user_id = q.user_id AND e.ts < q.ts
              AND e.ts >= (q.ts - {7 * DAY})//{HOUR}*{HOUR}
GROUP BY q.user_id, q.ts, e.event_type
"""


ASOF_HISTOGRAMS_SQL = _merged_sql(
    {"hist": ASOF_HISTOGRAM_SQL, "bkt": BUCKETED_COUNTS_SQL},
    "SELECT user_id, ts, event_type, hist.cnt AS histogram, hist.cnt AS approx_histogram,"
    " bkt.cnt AS bucketed_count FROM hist"
    " FULL JOIN (SELECT user_id, ts, bucket AS event_type, cnt FROM bkt) bkt"
    " USING (user_id, ts, event_type)",
)


# ------------------------------------------------------------ lag / session


def event_sequence(sf_dir: str):
    """Per-event sequence features in one co-partition exchange: value lags
    (1, 2) and lead (1), the 30-minute inactivity session id and the event's
    position in its session, all ordered by (ts, event_id) per user."""
    from ..stages.sequence import LagLead, Sessionize

    ds = _ms_rows(_events_ds(sf_dir, ["event_id", "user_id", "ts", "value"]))
    lag_lead = LagLead(["user_id"], ["value"], lags=(1, 2), leads=(1,), tie_col="event_id")
    sessionize = Sessionize(["user_id"], gap_ms=30 * 60 * 1000, tie_col="event_id")

    def sequence(t: pa.Table) -> pa.Table:
        return sessionize(lag_lead(t))

    return co_partition(ds, ["user_id"], sequence)


LAG_LEAD_SQL = """
SELECT event_id, user_id, epoch_ms(ts) AS ts, value,
  lag(value, 1) OVER w AS value_lag_1,
  lag(value, 2) OVER w AS value_lag_2,
  lead(value, 1) OVER w AS value_lead_1
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY epoch_ms(ts), event_id)
"""


SESSIONIZE_SQL = """
WITH e AS (SELECT event_id, user_id, epoch_ms(ts) AS ts FROM events),
x AS (SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > 1800000
                     THEN 1 ELSE 0 END AS ns
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
y AS (SELECT *, sum(ns) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) - 1 AS sid FROM x)
SELECT event_id, user_id, ts, CAST(sid AS BIGINT) AS session_id,
  CAST(row_number() OVER (PARTITION BY user_id, sid ORDER BY ts, event_id) - 1 AS BIGINT)
    AS session_event_seq
FROM y
"""


EVENT_SEQUENCE_SQL = _merged_sql(
    {"lag_lead": LAG_LEAD_SQL, "sessions": SESSIONIZE_SQL},
    "SELECT * FROM lag_lead JOIN sessions USING (event_id, user_id, ts)",
)


def range_join_windows(sf_dir: str):
    """Keyed interval join: enrich every non-purchase event with each
    6-hour window opened by a purchase event of the SAME user whose
    window contains the event's timestamp.  Exercises the co-partitioned
    range-join operator (one hash(key, time-chunk) exchange, intervals
    replicated per overlapped chunk, group-local Arrow join + range
    filter) — the brief's named "range join" custom-operator example."""
    from ..functions.relational import bucketed_range_join
    from ..stages.query import map_sql

    cols = ["event_id", "user_id", "ts", "event_type"]
    left = map_sql(
        _events_ds(sf_dir, cols),
        "SELECT event_id, user_id, epoch_ms(ts) AS ts, event_type "
        "FROM batch WHERE event_type <> 'purchase'",
    )
    right = map_sql(
        _events_ds(sf_dir, cols),
        "SELECT event_id AS win_id, user_id, epoch_ms(ts) AS w_start, "
        "epoch_ms(ts) + 21600000 AS w_end "
        "FROM batch WHERE event_type = 'purchase'",
    )
    return bucketed_range_join(
        left, right, on=["user_id"], left_ts="ts",
        right_start="w_start", right_end="w_end",
        chunk_ms=6 * 3600 * 1000,
    )


RANGE_JOIN_SQL = """
WITH win AS (SELECT event_id AS win_id, user_id, epoch_ms(ts) AS w_start,
                    epoch_ms(ts) + 21600000 AS w_end
             FROM events WHERE event_type = 'purchase')
SELECT e.event_id, e.user_id, epoch_ms(e.ts) AS ts, e.event_type,
       w.win_id, w.w_start, w.w_end
FROM events e JOIN win w
  ON e.user_id = w.user_id
 AND epoch_ms(e.ts) >= w.w_start AND epoch_ms(e.ts) < w.w_end
WHERE e.event_type <> 'purchase'
"""


# ------------------------------------------------------- snapshot & join


def snapshot_daily(sf_dir: str):
    from .group_by import snapshot_backfill

    gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value"),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap",
    )
    out = snapshot_backfill(gb, ["2024-01-10", "2024-01-15"])
    return out.select_columns(["user_id", "ds", "value_sum_7d", "value_count"])


SNAPSHOT_SQL = f"""
WITH keys AS (SELECT DISTINCT user_id FROM events),
d AS (SELECT unnest(['2024-01-10', '2024-01-15']) AS ds),
e AS (SELECT user_id, epoch_ms(ts) AS ts, value FROM events)
SELECT k.user_id, d.ds,
  (SELECT sum(e.value) FROM e WHERE e.user_id = k.user_id
     AND e.ts < epoch_ms(CAST(d.ds AS DATE) + 1)
     AND e.ts >= epoch_ms(CAST(d.ds AS DATE) + 1) - {7 * DAY}) AS value_sum_7d,
  (SELECT nullif(count(e.value), 0) FROM e WHERE e.user_id = k.user_id
     AND e.ts < epoch_ms(CAST(d.ds AS DATE) + 1)) AS value_count
FROM keys k CROSS JOIN d
"""


def join_enrich(sf_dir: str):
    from .join import backfill_join

    user_gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="user_stats",
    )
    type_gb = GroupBy(
        sources=[
            EventSource(
                table=f"{sf_dir}/events.parquet",
                query=Query(selects={"etype": "event_type", "value": "value"},
                            time_column="epoch_ms(ts)"),
            )
        ],
        key_columns=["etype"],
        aggregations=[Aggregation(Operation.AVERAGE, "value", windows=[Window(1, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="type_stats",
    )
    join = Join(
        left=EventSource(
            table=f"{sf_dir}/events.parquet",
            query=Query(
                selects={"event_id": "event_id", "user_id": "user_id",
                         "event_type": "event_type"},
                time_column="epoch_ms(ts)",
            ),
        ),
        join_parts=[
            JoinPart(group_by=user_gb),
            JoinPart(group_by=type_gb, key_mapping={"event_type": "etype"}, prefix="t"),
        ],
        derivations=[
            Derivation("*", "*"),
            Derivation("sum_per_count", "user_stats_value_sum_7d / user_stats_value_count"),
        ],
        name="enriched",
    )
    return backfill_join(join)


JOIN_ENRICH_SQL = f"""
WITH e AS (SELECT event_id, user_id, event_type, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
base AS (
  SELECT l.event_id, l.user_id, l.event_type, l.ts,
    (SELECT CAST(sum(r.sv) AS DOUBLE) / 100.0 FROM e r WHERE r.user_id = l.user_id
       AND r.ts < l.ts AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}) AS user_stats_value_sum_7d,
    (SELECT nullif(count(r.value), 0) FROM e r WHERE r.user_id = l.user_id AND r.ts < l.ts)
       AS user_stats_value_count,
    (SELECT CAST(sum(r.sv) AS DOUBLE) / 100.0 / count(r.value) FROM e r
       WHERE r.event_type = l.event_type
       AND r.ts < l.ts AND r.ts >= (l.ts - {DAY})//{HOUR}*{HOUR}) AS t_type_stats_value_average_1d
  FROM e l)
SELECT *, user_stats_value_sum_7d / user_stats_value_count AS sum_per_count FROM base
"""


# --------------------------------------------------------------- relational


def q1_pricing_summary(sf_dir: str):
    from ..functions.relational import sql_group_agg

    ds = read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount", "l_shipdate"],
    )
    # Partials sum EXACT scaled BIGINTs (prices are 2-decimal; the
    # disc-price product has <= 4 decimals), so the cross-block merge is
    # integer-exact and order-independent; finals convert once to DOUBLE with
    # the same expression the oracle uses.
    return sql_group_agg(
        ds,
        keys=["l_returnflag", "l_linestatus"],
        partials={
            "sum_qty": "CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)",
            "sum_base_price": "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT)",
            "sum_disc_price":
                "CAST(sum(CAST(round((l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT)) AS BIGINT)",
            "sum_disc": "CAST(sum(CAST(round(l_discount * 100) AS BIGINT)) AS BIGINT)",
            "count_order": "count(*)",
        },
        merge={"sum_qty": "sum", "sum_base_price": "sum", "sum_disc_price": "sum",
               "sum_disc": "sum", "count_order": "sum"},
        finals={
            "sum_qty": "CAST(sum_qty AS DOUBLE)",
            "sum_base_price": "CAST(sum_base_price AS DOUBLE) / 100.0",
            "sum_disc_price": "CAST(sum_disc_price AS DOUBLE) / 10000.0",
            "avg_qty": "CAST(sum_qty AS DOUBLE) / count_order",
            "avg_disc": "CAST(sum_disc AS DOUBLE) / 100.0 / count_order",
            "count_order": "count_order",
        },
        where="l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'",
    )


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) AS sum_qty,
  CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS DOUBLE) / 100.0 AS sum_base_price,
  CAST(sum(CAST(round((l_extendedprice * (1 - l_discount)) * 10000) AS BIGINT)) AS DOUBLE)
    / 10000.0 AS sum_disc_price,
  CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS DOUBLE) / count(*) AS avg_qty,
  CAST(sum(CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE) / 100.0 / count(*) AS avg_disc,
  count(*) AS count_order
FROM lineitem WHERE l_shipdate <= TIMESTAMP '1998-09-02 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


def q3_top_revenue(sf_dir: str):
    """customer (small dimension, filtered) broadcast into the orders scan —
    no shuffle for the dimension join; one shuffle for the lineitem
    pre-aggregate; one co-partitioned hash join orders x revenue; per-batch
    top-k prune before the tiny global sort."""
    from ..functions.relational import (
        broadcast_lookup_join, bucketed_left_join, sql_group_agg,
    )

    cust = read_parquet(f"{sf_dir}/customer.parquet",
                        columns=["c_custkey", "c_mktsegment"])
    orders = read_parquet(f"{sf_dir}/orders.parquet",
                          columns=["o_orderkey", "o_custkey", "o_orderdate"])
    li = read_parquet(f"{sf_dir}/lineitem.parquet",
                      columns=["l_orderkey", "l_extendedprice", "l_discount"])
    filtered = (
        cust.filter(expr="c_mktsegment == 'BUILDING'")
        .select_columns(["c_custkey"])
        # materialize the (small, projected) filtered dimension ONCE: both
        # the count gate and whichever join path wins reuse the same blocks
        # instead of re-running the scan+filter twice
        .materialize()
    )
    # gate the driver materialization on a distributed count (mirrors the
    # join small-mode gate, join.py:66-68): broadcast only when the filtered
    # dimension is provably small, else keep it distributed via one
    # co-partitioning hash join
    if filtered.count() <= BROADCAST_DIM_CUTOFF:
        cust_df = filtered.to_pandas().rename(columns={"c_custkey": "o_custkey"})
        joined = broadcast_lookup_join(orders, cust_df, on=["o_custkey"], how="inner")
    else:
        dim = filtered.rename_columns({"c_custkey": "o_custkey"})
        joined = bucketed_left_join(orders, dim, on=["o_custkey"], how="inner")
    rev = sql_group_agg(
        li, keys=["l_orderkey"],
        partials={"revenue": "sum(l_extendedprice * (1 - l_discount))"},
        merge={"revenue": "sum"},
    )

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            ["o_orderkey" if c == "l_orderkey" else c for c in batch.column_names]
        )

    # (order key, float64 revenue): the join needs no probe of the aggregate
    rev = declare_schema(rev.map_batches(rename, batch_format="pyarrow"), pa.schema([
        _arrow_schema(li).field("l_orderkey").with_name("o_orderkey"), pa.field("revenue", pa.float64()),
    ]))
    out = bucketed_left_join(joined, rev, on=["o_orderkey"], how="inner")
    out = out.select_columns(["o_orderkey", "o_orderdate", "revenue"])

    def prune(batch: pa.Table) -> pa.Table:
        # local top-k before the global sort; the key list includes the
        # o_orderkey tie-break so batch-local pruning respects the global
        # tie order (an equal-revenue pair straddling the cutoff would
        # otherwise keep the wrong row)
        import pyarrow.compute as pac

        k = min(10, len(batch))
        idx = pac.select_k_unstable(
            batch, k, [("revenue", "descending"), ("o_orderkey", "ascending")]
        )
        return batch.take(idx)

    out = out.map_batches(prune, batch_format="pyarrow")
    return out.sort(["revenue", "o_orderkey"], descending=[True, False]).limit(10)


Q3_SQL = """
SELECT o_orderkey, o_orderdate, sum(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer JOIN orders ON c_custkey = o_custkey
  JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY o_orderkey, o_orderdate
ORDER BY revenue DESC, o_orderkey LIMIT 10
"""


# ------------------------------------------------------------ corpus extras


def dedup_exact_docs(sf_dir: str):
    from ..stages.dedup import exact_dedup

    ds = read_parquet(f"{sf_dir}/documents.parquet")
    return exact_dedup(ds, ["text"], order_col="doc_id")


DEDUP_EXACT_SQL = """
SELECT * FROM documents
WHERE doc_id IN (SELECT min(doc_id) FROM documents GROUP BY text)
"""


REPETITION_STATS_SQL = """
WITH t AS (SELECT doc_id,
        regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+') AS toks
      FROM documents),
bg AS (SELECT doc_id, len(toks) AS n_tok,
        CASE WHEN len(toks) >= 2
             THEN list_transform(range(1, len(toks)), __i -> toks[__i] || chr(31) || toks[__i + 1])
             ELSE [] END AS bigrams
       FROM t),
cnt AS (SELECT doc_id, b, count(*) AS c
        FROM (SELECT doc_id, unnest(bigrams) AS b FROM bg) GROUP BY doc_id, b),
top AS (SELECT doc_id, max(c) AS top_c, sum(c) AS n_bg, count(*) AS d_bg
        FROM cnt GROUP BY doc_id)
SELECT bg.doc_id,
  CAST(greatest(bg.n_tok - 1, 0) AS BIGINT) AS n_bigrams,
  coalesce(1.0 - CAST(top.d_bg AS DOUBLE) / top.n_bg, 0.0) AS dup_bigram_frac,
  coalesce(CAST(top.top_c AS DOUBLE) / top.n_bg, 0.0) AS top_bigram_frac
FROM bg LEFT JOIN top USING (doc_id)
"""


def pii_scrub_docs(sf_dir: str):
    """PII scrubbing with deterministic injected PII: every doc gets a
    synthetic contact line appended (email + phone derived from doc_id), the
    PiiScrub stage must find and replace exactly those (plus any
    already in the text).  Both sides build the same augmented text, so the
    oracle checks the scrubbing byte for byte."""
    from ..stages.text import PiiScrub

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def inject(df):
        d = df["doc_id"].astype("string")
        df = df.copy()
        df["text"] = (
            df["text"].fillna("")
            + " contact: user" + d + "@example.com or +1 (555) 010-" + d
        )
        return df

    out = ds.map_batches(inject, batch_format="pandas").map_batches(
        PiiScrub("text"), batch_format="pandas"
    )
    return out.select_columns(["doc_id", "n_emails", "n_phones", "clean_text"])


PII_SCRUB_SQL = r"""
WITH t AS (SELECT doc_id,
        coalesce(text, '') || ' contact: user' || CAST(doc_id AS VARCHAR)
          || '@example.com or +1 (555) 010-' || CAST(doc_id AS VARCHAR) AS text
      FROM documents),
e AS (SELECT doc_id,
        CAST(len(regexp_extract_all(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails,
        regexp_replace(text, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS t1
      FROM t)
SELECT doc_id, n_emails,
  CAST(len(regexp_extract_all(t1, '\+?[0-9][0-9()\- ]{6,}[0-9]')) AS BIGINT) AS n_phones,
  regexp_replace(t1, '\+?[0-9][0-9()\- ]{6,}[0-9]', '<PHONE>', 'g') AS clean_text
FROM e
"""


def paragraph_dedup_docs(sf_dir: str):
    """Corpus-wide exact paragraph dedup (FineWeb-style): the flat fixture
    text is deterministically re-chunked into 10-word paragraphs (same regex
    in the SQL oracle), then every paragraph keeps only its first
    (doc, position) occurrence and documents are reassembled."""
    from ..stages.dedup import dedup_paragraphs

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def chunk(df):
        df = df.copy()
        df["text"] = df["text"].fillna("").str.replace(
            r"((?:\S+ ){9}\S+) ", "\\1\n\n", regex=True
        )
        return df

    # chunk keeps the reader's columns and types
    chunked = declare_schema(ds.map_batches(chunk, batch_format="pandas"), _arrow_schema(ds))
    out = dedup_paragraphs(chunked, "text", "doc_id")
    return out.select_columns(["doc_id", "n_paras", "n_dropped", "clean_text"])


PARAGRAPH_DEDUP_SQL = r"""
WITH c AS (SELECT doc_id,
        regexp_replace(coalesce(text, ''), '((?:\S+ ){9}\S+) ',
                       '\1' || chr(10) || chr(10), 'g') AS t2
      FROM documents),
t AS (SELECT doc_id, string_split(t2, chr(10) || chr(10)) AS paras FROM c),
p AS (SELECT doc_id, unnest(paras) AS para,
             CAST(unnest(range(1, len(paras) + 1)) AS BIGINT) - 1 AS idx FROM t),
f AS (SELECT para, min(doc_id * 1000000 + idx) AS mk FROM p GROUP BY para),
k AS (SELECT p.*, (p.doc_id * 1000000 + p.idx) = f.mk AS keep FROM p JOIN f USING (para))
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_paras,
  CAST(count(*) FILTER (WHERE NOT keep) AS BIGINT) AS n_dropped,
  coalesce(string_agg(para, chr(10) || chr(10) ORDER BY idx) FILTER (WHERE keep), '')
    AS clean_text
FROM k GROUP BY doc_id
"""


def duplicate_spans_docs(sf_dir: str):
    """Cross-document duplicated word 5-grams, scored and removed (Lee et
    al. 2022).  Stats: the fraction of each doc's 5-grams that occur >= 2
    times corpus-wide and the max corpus frequency reached (null for docs
    with fewer than 5 tokens, which have no grams).  Removal: each
    duplicated 5-gram keeps only its first (doc, start) occurrence, every
    token a losing occurrence covers is removed and the doc is rewritten as
    its surviving tokens (see stages/dedup.py:remove_duplicate_spans for the
    two-exchange scale shape).  Both are per-document, joined on doc_id."""
    from ..stages.dedup import remove_duplicate_spans
    from ..stages.text import duplicate_span_stats

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # one row per document each, joined on the driver like the ANN checks
    removed = remove_duplicate_spans(ds, "text", "doc_id", n=5).to_pandas()
    stats = duplicate_span_stats(ds, "text", "doc_id", n=5, hot=2).to_pandas()
    return removed[["doc_id", "n_tokens", "n_removed", "clean_text"]].merge(
        stats, on="doc_id", how="left"
    )


DUPLICATE_SPANS_SQL = """
WITH t AS (SELECT doc_id,
        regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+') AS toks
      FROM documents),
g AS (SELECT doc_id,
        CASE WHEN len(toks) >= 5
             THEN list_transform(range(1, len(toks) - 3),
                  __i -> toks[__i] || chr(31) || toks[__i + 1] || chr(31)
                      || toks[__i + 2] || chr(31) || toks[__i + 3] || chr(31)
                      || toks[__i + 4])
             ELSE [] END AS grams
      FROM t),
p AS (SELECT doc_id, unnest(grams) AS gram FROM g),
c AS (SELECT gram, count(*) AS cnt FROM p GROUP BY gram)
SELECT p.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
  CAST(count(*) FILTER (WHERE c.cnt >= 2) AS DOUBLE) / count(*) AS dup_gram_frac,
  CAST(max(c.cnt) AS BIGINT) AS max_gram_freq
FROM p JOIN c USING (gram) GROUP BY p.doc_id
"""


SPAN_REMOVAL_SQL = """
WITH t AS (SELECT doc_id,
        regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+') AS toks
      FROM documents),
w AS (SELECT doc_id, unnest(toks) AS tok,
             CAST(unnest(range(1, len(toks) + 1)) AS BIGINT) - 1 AS j
      FROM t),
g AS (SELECT doc_id,
             CAST(unnest(range(1, len(toks) - 3)) AS BIGINT) - 1 AS s,
             unnest(list_transform(range(1, len(toks) - 3),
                  __i -> toks[__i] || chr(31) || toks[__i + 1] || chr(31)
                      || toks[__i + 2] || chr(31) || toks[__i + 3] || chr(31)
                      || toks[__i + 4])) AS gram
      FROM t WHERE len(toks) >= 5),
l AS (SELECT doc_id, s FROM (
        SELECT doc_id, s,
               count(*) OVER (PARTITION BY gram) AS cnt,
               row_number() OVER (PARTITION BY gram ORDER BY doc_id, s) AS rn
        FROM g)
      WHERE cnt >= 2 AND rn > 1),
r AS (SELECT DISTINCT doc_id, s + o.off AS j
      FROM l CROSS JOIN (SELECT CAST(unnest([0, 1, 2, 3, 4]) AS BIGINT) AS off) o),
k AS (SELECT w.doc_id, w.j, w.tok, r.j IS NOT NULL AS rm
      FROM w LEFT JOIN r ON r.doc_id = w.doc_id AND r.j = w.j)
SELECT t.doc_id,
  CAST(len(t.toks) AS BIGINT) AS n_tokens,
  CAST(coalesce(count(*) FILTER (WHERE k.rm), 0) AS BIGINT) AS n_removed,
  coalesce(string_agg(k.tok, ' ' ORDER BY k.j) FILTER (WHERE NOT k.rm), '')
    AS clean_text
FROM t LEFT JOIN k ON k.doc_id = t.doc_id
GROUP BY t.doc_id, len(t.toks)
"""


DUPLICATE_SPANS_REMOVAL_SQL = _merged_sql(
    {"removal": SPAN_REMOVAL_SQL, "stats": DUPLICATE_SPANS_SQL},
    "SELECT * FROM removal LEFT JOIN stats USING (doc_id)",
)


QUANTILE_FILTER_SQL = """
WITH c AS (SELECT n_chars AS v, count(*) AS cnt FROM documents GROUP BY n_chars),
w AS (SELECT v, sum(cnt) OVER (ORDER BY v) AS cum FROM c),
t AS (SELECT min(v) AS thr FROM w
      WHERE cum >= ceil(0.5 * (SELECT count(*) FROM documents)))
SELECT doc_id, n_chars FROM documents, t WHERE n_chars >= t.thr
"""


def outlier_flags(sf_dir: str):
    """Per-user robust outlier screen: |value - median| > 3 * MAD with both
    statistics the exact lower-median element of the user's own events
    (quantile_disc semantics -> bit-exact cross-engine).  One hash-bucket
    exchange; see functions/stats.py:robust_outlier_flags."""
    from ..functions.stats import robust_outlier_flags

    ds = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )
    out = robust_outlier_flags(ds, "user_id", "value", k=3.0)
    return out.select_columns(
        ["event_id", "user_id", "value", "med", "mad", "is_outlier"]
    )


OUTLIER_FLAGS_SQL = """
WITH s AS (SELECT user_id, quantile_disc(value, 0.5) AS med
           FROM events GROUP BY user_id),
d AS (SELECT e.event_id, e.user_id, e.value, s.med,
             abs(e.value - s.med) AS dev
      FROM events e JOIN s USING (user_id)),
m AS (SELECT user_id, quantile_disc(dev, 0.5) AS mad FROM d GROUP BY user_id)
SELECT d.event_id, d.user_id, d.value, d.med, m.mad,
       (d.dev > 3 * m.mad) AS is_outlier
FROM d JOIN m USING (user_id)
"""


_CHUNK, _CHUNK_STRIDE = 32, 24


def doc_chunks(sf_dir: str):
    """Fixed-size overlapping token-window chunking (context-window prep):
    chunk k covers tokens [k*24, k*24+32); pure flat_map, no shuffle.  See
    stages/text.py:chunk_documents."""
    from ..stages.text import chunk_documents

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return chunk_documents(ds, "text", "doc_id", chunk=_CHUNK, stride=_CHUNK_STRIDE)


DOC_CHUNKS_SQL = f"""
WITH t AS (SELECT doc_id,
        regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+') AS toks
      FROM documents),
c AS (SELECT doc_id, toks,
             unnest(range(0, CASE WHEN len(toks) > 0
                 THEN (len(toks) - 1) // {_CHUNK_STRIDE} + 1 ELSE 0 END)) AS k
      FROM t)
SELECT doc_id, CAST(k AS BIGINT) AS chunk_idx,
  CAST(least({_CHUNK}, len(toks) - k * {_CHUNK_STRIDE}) AS BIGINT)
    AS n_chunk_tokens,
  array_to_string(
    list_slice(toks, k * {_CHUNK_STRIDE} + 1, k * {_CHUNK_STRIDE} + {_CHUNK}),
    ' ') AS chunk_text
FROM c
"""


_PACK_BLOCK = 64


def token_pack_docs(sf_dir: str):
    """GPT-style packing offsets: docs concatenated in id order, cut into
    fixed 64-token training blocks; each doc's global token offset and
    first/last block via the two-level distributed prefix sum in
    stages/splits.py:token_pack (exchange bounded by #id-ranges, all-integer
    so bit-exact cross-engine)."""
    from ..stages.splits import token_pack
    from ..stages.text import _GRAM_TOK_PAT

    def add_ntok(df):
        import re

        df = df.copy()
        df["n_tok"] = (
            df["text"].fillna("").str.lower()
            .str.count(_GRAM_TOK_PAT)
            .astype("int64")
        )
        return df[["doc_id", "n_tok"]]

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    counted = ds.map_batches(add_ntok, batch_format="pandas")
    return token_pack(counted, "doc_id", "n_tok", block=_PACK_BLOCK, range_width=100)


TOKEN_PACK_SQL = f"""
WITH t AS (SELECT doc_id,
        len(regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+'))
          AS n_tok
      FROM documents),
s AS (SELECT doc_id, n_tok,
        coalesce(sum(n_tok) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS start_tok
      FROM t)
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok,
  CAST(start_tok AS BIGINT) AS start_tok,
  CAST(start_tok // {_PACK_BLOCK} AS BIGINT) AS block_first,
  CAST((start_tok + n_tok - 1) // {_PACK_BLOCK} AS BIGINT) AS block_last
FROM s WHERE n_tok > 0
"""


PERCENTILE_NORMALIZE_SQL = """
SELECT doc_id, n_chars, cume_dist() OVER (ORDER BY n_chars) AS pct_rank
FROM documents
"""


# fixed conditioning shift for trend regressors: days since 2020-09-13 keeps
# x in O(10^3) so the naive-sum slope/corr formulas stay well-conditioned
_TREND_BASE_MS = 1_600_000_000_000


def user_trend(sf_dir: str):
    """Per-entity TREND features: least-squares slope/intercept of value
    over time plus the time-value correlation, per user — the standard
    'is this entity's behavior rising or falling' feature a GroupBy emits.
    Two-column aggregates (covariance family) the windowed kernel's
    single-input ops don't cover; computed with the same map-side
    partial+merge shape as q1 (functions/relational.py:sql_group_agg): six
    exact-formula sums per (batch, user) ride the exchange, never rows.
    Float posture: both engines evaluate the IDENTICAL naive-sum closed
    forms over x = days-since-base (no library regr_* whose internal
    centering differs); residual low-bit divergence from partial-vs-serial
    summation order sits ~1e-12 relative, far under the harness's 1e-6
    rounding."""
    from ..functions.relational import sql_group_agg

    x = f"(epoch_ms(ts) - {_TREND_BASE_MS}) / 86400000.0"
    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])
    slope = "(n * sxy - sx * sy) / nullif(n * sxx - sx * sx, 0)"
    return sql_group_agg(
        ds,
        keys=["user_id"],
        partials={
            "n": "count(*)",
            "sx": f"sum({x})",
            "sy": "sum(value)",
            "sxy": f"sum(({x}) * value)",
            "sxx": f"sum(({x}) * ({x}))",
            "syy": "sum(value * value)",
        },
        merge={c: "sum" for c in ["n", "sx", "sy", "sxy", "sxx", "syy"]},
        finals={
            "n_events": "n",
            "value_slope_per_day": slope,
            "value_intercept": f"(sy - ({slope}) * sx) / n",
            "corr_ts_value": "(n * sxy - sx * sy)"
            " / nullif(sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy), 0)",
        },
        where="value IS NOT NULL",
    )


USER_TREND_SQL = f"""
WITH e AS (SELECT user_id, (epoch_ms(ts) - {_TREND_BASE_MS}) / 86400000.0 AS x,
                  value AS y
           FROM events WHERE value IS NOT NULL),
s AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n, sum(x) AS sx, sum(y) AS sy,
             sum(x * y) AS sxy, sum(x * x) AS sxx, sum(y * y) AS syy
      FROM e GROUP BY user_id)
SELECT user_id, n AS n_events,
  (n * sxy - sx * sy) / nullif(n * sxx - sx * sx, 0) AS value_slope_per_day,
  (sy - ((n * sxy - sx * sy) / nullif(n * sxx - sx * sx, 0)) * sx) / n
    AS value_intercept,
  (n * sxy - sx * sy)
    / nullif(sqrt(n * sxx - sx * sx) * sqrt(n * syy - sy * sy), 0)
    AS corr_ts_value
FROM s
"""


def doc_signals(sf_dir: str):
    """Per-document signals from one documents read, each stage chained
    onto the last: text stats, token counts (whitespace + a BPE-ish
    regex), Gopher-style repetition stats, fingerprint, simhash, the
    deterministic 80/10/10 split by splitmix64(doc_id) (stages/splits.py),
    the exact corpus percentile of n_chars (cume_dist; distribution pass
    bounded by value cardinality, scoring pass a broadcast searchsorted,
    functions/stats.py:percentile_rank_column) and whether n_chars is at or
    above the exact corpus MEDIAN (the corpus-statistic filter as a flag:
    functions/stats.py:exact_quantile_by_counting, captured as a plain
    scalar, broadcast, never a join)."""
    from ..functions.stats import exact_quantile_by_counting, percentile_rank_column
    from ..stages.dedup import SimHash
    from ..stages.splits import hash_split
    from ..stages.text import Fingerprint, RepetitionStats, TextStats, TokenCount

    path = f"{sf_dir}/documents.parquet"
    thr = int(exact_quantile_by_counting(read_parquet(path, columns=["n_chars"]), "n_chars", 0.5))
    stages = [TextStats("text"), TokenCount("text"), RepetitionStats("text"), Fingerprint("text")]

    def signals(df: pd.DataFrame) -> pd.DataFrame:
        for stage in stages:
            df = stage(df)
        return df.assign(above_median=df["n_chars"] >= thr)

    cols = ["doc_id", "text", "n_chars"]
    ds = percentile_rank_column(read_parquet(path, columns=cols), "n_chars", keep_cols=cols)
    ds = ds.map_batches(signals, batch_format="pandas").map_batches(
        SimHash("text"), batch_format="pyarrow"
    )
    return hash_split(ds, "doc_id").drop_columns(["text", "upper_ratio"])


def _doc_signals_sql() -> str:
    return _merged_sql(
        {"text_stats": TEXT_STATS_SQL, "token_counts": TOKEN_COUNTS_SQL,
         "repetition": REPETITION_STATS_SQL, "fingerprint": _THS["fingerprint_docs"],
         "simhash": _THS["simhash_docs"], "split": _dataset_split_sql(),
         "pct": PERCENTILE_NORMALIZE_SQL, "median_kept": QUANTILE_FILTER_SQL},
        "SELECT *, doc_id IN (SELECT doc_id FROM median_kept) AS above_median FROM text_stats"
        + "".join(f" JOIN {t} USING (doc_id)" for t in
                  ("token_counts", "repetition", "fingerprint", "simhash", "split", "pct")),
    )


TEXT_STATS_SQL = """
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
x AS (SELECT doc_id, text, regexp_extract_all(text, '[A-Za-z0-9]+') AS toks FROM t)
SELECT doc_id,
  CAST(length(text) AS BIGINT) AS n_chars2,
  CAST(len(toks) AS BIGINT) AS n_tokens,
  CASE WHEN len(toks) > 0
       THEN CAST(list_aggregate(list_transform(toks, w -> length(w)), 'sum') AS DOUBLE) / len(toks)
  END AS avg_token_len,
  CASE WHEN length(text) > 0
       THEN CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS DOUBLE) / length(text)
  END AS alpha_ratio,
  CASE WHEN length(text) > 0
       THEN CAST(length(regexp_replace(text, '[^0-9]', '', 'g')) AS DOUBLE) / length(text)
  END AS digit_ratio
FROM x
"""


TOKEN_COUNTS_SQL = r"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
x AS (SELECT doc_id,
  len(regexp_extract_all(text, '[^ \t\n\r\f\v]+')) AS n_ws,
  len(regexp_extract_all(text,
      '''(?:[sdmt]|ll|ve|re)|[A-Za-z]+|[0-9]+|[^A-Za-z0-9 \t\n\r\f\v'']+|''')) AS n_bpe,
  len(regexp_extract_all(text, '''(?:[sdmt]|ll|ve|re)')) AS n_contr,
  len(regexp_extract_all(text, '[^A-Za-z0-9 \t\n\r\f\v'']+|''')) AS n_punct_raw
FROM t)
SELECT doc_id,
  CAST(n_ws AS BIGINT) AS n_ws_tokens,
  CAST(n_bpe AS BIGINT) AS n_bpe_tokens,
  CASE WHEN n_bpe > 0 THEN CAST(n_punct_raw - n_contr AS DOUBLE) / n_bpe END
    AS punct_token_ratio
FROM x
"""


def tfidf_top_terms_docs(sf_dir: str):
    """Top-3 TF-IDF terms per document (stages/text.py tfidf_top_terms):
    one vocabulary-sized term exchange + count-gated idf broadcast; a
    document's tokens never ride a shuffle."""
    from ..stages.text import tfidf_top_terms

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return tfidf_top_terms(ds, "text", "doc_id", k=3)


TFIDF_SQL = """
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
tok AS (SELECT doc_id, lower(unnest(regexp_extract_all(text, '[A-Za-z0-9]+'))) AS term FROM t),
tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term),
df AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
n AS (SELECT count(*) AS n_docs FROM t),
s AS (SELECT tf.doc_id, tf.term,
        tf.tf * ln(CAST(n_docs AS DOUBLE) / df.df) AS tfidf,
        row_number() OVER (PARTITION BY tf.doc_id
          ORDER BY tf.tf * ln(CAST(n_docs AS DOUBLE) / df.df) DESC, tf.term) AS rank
      FROM tf JOIN df USING (term) CROSS JOIN n)
SELECT doc_id, term, rank, tfidf FROM s WHERE rank <= 3
"""


def lm_quality_docs(sf_dir: str):
    """CCNet-style unigram-LM quality score per document (stages/text.py
    lm_quality): vocabulary-sized term exchange + count-gated model
    broadcast; scoring local to each batch."""
    from ..stages.text import lm_quality

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return lm_quality(ds, "text", "doc_id")


# float determinism: the per-doc mean surprisal is rounded to 4 decimals on
# BOTH sides (sum-order divergence between numpy pairwise and DuckDB
# sequential accumulation is ~1e-12); perplexity is exp() of that rounded
# value, rounded to 2
LM_QUALITY_SQL = """
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
tok AS (SELECT doc_id, lower(unnest(regexp_extract_all(text, '[A-Za-z0-9]+'))) AS term FROM t),
c AS (SELECT term, count(*) AS cnt FROM tok GROUP BY term),
n AS (SELECT count(*) AS total FROM tok),
s AS (SELECT tok.doc_id,
        round(sum(ln(CAST(total AS DOUBLE)) - ln(CAST(cnt AS DOUBLE)))
              / count(*), 4) AS avg_neg_logp,
        count(*) AS ntok
      FROM tok JOIN c USING (term) CROSS JOIN n
      GROUP BY tok.doc_id)
SELECT t.doc_id,
  CAST(coalesce(s.ntok, 0) AS BIGINT) AS n_tokens,
  s.avg_neg_logp,
  round(exp(s.avg_neg_logp), 2) AS unigram_ppl
FROM t LEFT JOIN s USING (doc_id)
"""


def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination (stages/text.py decontaminate): candidate
    docs (doc_id % 97 != 0) scored for distinct 5-gram overlap against the
    deterministic held-out benchmark split (doc_id % 97 == 0); the benchmark
    gram set is the only exchange, candidates never shuffle."""
    import pyarrow as pa
    from ..stages.text import decontaminate

    def split(keep_bench: bool):
        def fn(t: pa.Table) -> pa.Table:
            m = (t["doc_id"].to_numpy() % 97) == 0
            return t.filter(pa.array(m if keep_bench else ~m))

        return fn

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    bench = ds.map_batches(split(True), batch_format="pyarrow")
    cand = ds.map_batches(split(False), batch_format="pyarrow")
    return decontaminate(cand, bench, "text", "doc_id", n=5, min_overlap=1)


DECONTAMINATE_SQL = """
WITH t AS (SELECT doc_id,
        regexp_extract_all(lower(coalesce(text, '')), '[0-9a-z_]+') AS toks
      FROM documents),
g AS (SELECT doc_id,
        CASE WHEN len(toks) >= 5
             THEN list_transform(range(1, len(toks) - 3),
                  __i -> toks[__i] || chr(31) || toks[__i + 1] || chr(31)
                      || toks[__i + 2] || chr(31) || toks[__i + 3] || chr(31)
                      || toks[__i + 4])
             ELSE [] END AS grams
      FROM t),
p AS (SELECT DISTINCT doc_id, unnest(grams) AS gram FROM g),
bench AS (SELECT DISTINCT gram FROM p WHERE doc_id % 97 = 0),
s AS (SELECT p.doc_id, count(*) AS n_grams,
        count(*) FILTER (WHERE bench.gram IS NOT NULL) AS n_overlap
      FROM p LEFT JOIN bench USING (gram)
      WHERE p.doc_id % 97 <> 0
      GROUP BY p.doc_id)
SELECT t.doc_id,
  CAST(coalesce(s.n_grams, 0) AS BIGINT) AS n_grams,
  CAST(coalesce(s.n_overlap, 0) AS BIGINT) AS n_overlap,
  coalesce(s.n_overlap, 0) >= 1 AS contaminated
FROM t LEFT JOIN s USING (doc_id)
WHERE t.doc_id % 97 <> 0
"""


def ann_cosine_topk(sf_dir: str):
    from ..stages.ann import brute_force_topk

    emb_path = f"{sf_dir}/embeddings.parquet"
    qvecs, qids = _query_vectors(emb_path, 8)
    ds = read_parquet(emb_path, columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, qvecs, qids, "embedding", "vec_id", k=10)
    return out.select_columns(["query_id", "vec_id", "rank"])


def _query_vectors(emb_path: str, n: int):
    """Read ONLY the n query vectors (predicate pushed into the parquet scan
    — never the whole corpus onto the driver)."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        emb_path, columns=["vec_id", "embedding"], filters=pc.field("vec_id") < n
    )
    df = t.to_pandas().sort_values("vec_id")
    return np.asarray(df["embedding"].tolist(), dtype=np.float64), df["vec_id"].to_numpy()


ANN_SQL = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8),
s AS (SELECT q.qid, c.vec_id,
        row_number() OVER (PARTITION BY q.qid ORDER BY
          list_cosine_similarity(CAST(c.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) DESC,
          c.vec_id) AS rank
      FROM q CROSS JOIN embeddings c)
SELECT CAST(qid AS BIGINT) AS query_id, vec_id, CAST(rank AS BIGINT) AS rank
FROM s WHERE rank <= 10
"""


# --------------------------------------------------- corpus hashing oracles
# Every deterministic text-hash stage has a DuckDB oracle built from the SAME
# definition (functions/texthash.py): Horner codepoint hash mod 2**64
# (+ splitmix64), expressed in HUGEINT arithmetic.


def _texthash_sqls() -> dict[str, str]:
    import numpy as np  # noqa: F811

    from ..functions.texthash import (
        HORNER_B,
        HORNER_INIT,
        minhash_seeds,
        sql_codepoints,
        sql_horner,
        sql_norm,
        sql_splitmix64_ctes,
        sql_to_signed,
    )

    U64 = 1 << 64
    fingerprint = f"""
SELECT doc_id, {sql_to_signed(sql_horner(sql_codepoints(sql_norm('text'))))} AS fingerprint
FROM documents
"""

    pow2_rows = ",".join(f"({b}, CAST('{1 << b}' AS HUGEINT))" for b in range(64))
    simhash = f"""
WITH tt AS (SELECT doc_id,
        list_transform(regexp_extract_all(coalesce(text, ''), '[0-9A-Za-z_]+'),
                       __w -> lower(__w)) AS toks FROM documents),
tok AS (SELECT doc_id, unnest(toks) AS w FROM tt),
h0 AS (SELECT doc_id, {sql_horner(sql_codepoints('w'))} AS hh FROM tok),
{sql_splitmix64_ctes('h0', 'hh', 'doc_id', 'hs')},
bt AS (SELECT * FROM (VALUES {pow2_rows}) __pw(b, p)),
bits AS (SELECT hs.doc_id, bt.b, bt.p,
         sum(CASE WHEN (hs.h // bt.p) % 2 = 1 THEN 1 ELSE -1 END) AS score
         FROM hs CROSS JOIN bt GROUP BY hs.doc_id, bt.b, bt.p),
agg AS (SELECT doc_id, sum(CASE WHEN score > 0 THEN p ELSE 0 END) AS u
        FROM bits GROUP BY doc_id)
SELECT d.doc_id, coalesce({sql_to_signed('a.u')}, 0) AS simhash
FROM documents d LEFT JOIN agg a USING (doc_id)
"""

    stop = {
        "en": "'the','and','of','to','a','in','is','that','it','for'",
        "fr": "'le','la','et','de','un','une','est','que','pour','dans'",
        "de": "'der','die','und','das','ist','ein','eine','zu','mit','von'",
        "es": "'el','la','y','de','que','en','un','una','es','por'",
    }
    score_cols = ",\n        ".join(
        f"len(list_filter(ltoks, __t -> __t IN ({words}))) AS s_{lang}"
        for lang, words in stop.items()
    )
    best = "greatest(s_de, s_en, s_es, s_fr)"
    langid = f"""
WITH base AS (SELECT doc_id, lang, coalesce(text, '') AS txt FROM documents),
tk AS (SELECT doc_id, lang, txt,
        regexp_extract_all(lower(txt), '[a-zà-ÿäöüß]+') AS ltoks,
        list_transform(regexp_extract_all(txt, '[0-9A-Za-z_]+'),
                       __w -> lower(__w)) AS qtoks
       FROM base),
sc AS (SELECT doc_id, lang, txt, qtoks, {score_cols} FROM tk)
SELECT doc_id, lang,
  CASE WHEN {best} = 0 THEN 'unknown'
       WHEN s_fr = {best} THEN 'fr'
       WHEN s_es = {best} THEN 'es'
       WHEN s_en = {best} THEN 'en'
       ELSE 'de' END AS lang_guess,
  0.4 * sqrt(CAST(least(length(txt), 2000) AS DOUBLE) / 2000.0)
  + 0.4 * (CAST(length(regexp_replace(txt, '[^A-Za-z]', '', 'g')) AS DOUBLE)
           / greatest(length(txt), 1))
  + 0.2 * (CAST(len(list_distinct(qtoks)) AS DOUBLE) / greatest(len(qtoks), 1))
  AS quality_score
FROM sc
"""

    seeds = minhash_seeds(64)
    seed_rows = ",".join(f"({k}, CAST('{int(s)}' AS HUGEINT))" for k, s in enumerate(seeds))
    minhash = f"""
WITH d AS (SELECT doc_id, {sql_norm('text')} AS norm FROM documents),
sh0 AS (SELECT doc_id, CASE WHEN length(norm) < 5 THEN [norm]
         ELSE list_transform(range(1, length(norm) - 3), __i -> substring(norm, __i, 5))
        END AS shingles FROM d),
sh AS (SELECT doc_id, unnest(shingles) AS sgl FROM sh0),
-- each distinct shingle is hashed once (a few thousand of them against
-- ~150k occurrences at sf0.001), then joined back to its documents: a
-- per-(doc, k) min over a set of shingles does not see duplicates
hh AS (SELECT sgl, {sql_horner(sql_codepoints('sgl'))} AS h
       FROM (SELECT DISTINCT sgl FROM sh)),
pk AS (SELECT * FROM (VALUES {seed_rows}) __sd(k, seed)),
mx0 AS (SELECT hh.sgl, pk.k, xor(hh.h, pk.seed) AS hx FROM hh CROSS JOIN pk),
{sql_splitmix64_ctes('mx0', 'hx', 'sgl, k', 'mixed')},
mins AS (SELECT ds.doc_id, mixed.k, min(mixed.h) AS m
         FROM (SELECT DISTINCT doc_id, sgl FROM sh) ds
         JOIN mixed ON mixed.sgl IS NOT DISTINCT FROM ds.sgl
         GROUP BY ds.doc_id, mixed.k),
bnd0 AS (SELECT doc_id, k // 4 AS band,
          list_reduce(list_prepend(CAST({HORNER_INIT} AS HUGEINT), list(m ORDER BY k)),
                      (__a, __x) -> (__a * {HORNER_B} + __x) % CAST({U64} AS HUGEINT)) AS bh
         FROM mins GROUP BY doc_id, k // 4),
{sql_splitmix64_ctes('bnd0', 'bh', 'doc_id, band', 'bhs')},
edges AS MATERIALIZED (SELECT DISTINCT doc_id, band, h FROM bhs),
-- full connected components over the doc-bucket bipartite graph (the Ray
-- side iterates min-label propagation to a fixpoint): classic recursive
-- pair propagation, min label per reachability set
reach AS (
  WITH RECURSIVE r(doc_id, lab) AS (
      SELECT doc_id, doc_id FROM (SELECT DISTINCT doc_id FROM edges)
    UNION
      SELECT e2.doc_id, r.lab
      FROM r JOIN edges e1 ON e1.doc_id = r.doc_id
      JOIN edges e2 ON e2.band = e1.band AND e2.h = e1.h
  )
  SELECT * FROM r)
SELECT doc_id, min(lab) AS cluster FROM reach GROUP BY doc_id
"""
    return {
        "fingerprint_docs": fingerprint,
        "simhash_docs": simhash,
        "langid_quality": langid,
        "minhash_clusters": minhash,
    }


# ---------------------------------------------------- rows-only (no SQL oracle)


def minhash_clusters_docs(sf_dir: str):
    from ..stages.dedup import minhash_lsh_clusters

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return minhash_lsh_clusters(ds, "text", "doc_id")


def langid_docs(sf_dir: str):
    from ..stages.text import LangId, QualityScore

    ds = read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    out = ds.map_batches(LangId(), batch_format="pandas")
    out = out.map_batches(QualityScore(), batch_format="pandas")
    return out.select_columns(["doc_id", "lang", "lang_guess", "quality_score"])


APPROX_SKETCHES_SQL = """
WITH e AS (SELECT event_type, user_id, value, epoch_ms(ts) AS ts FROM events
           WHERE event_type IS NOT NULL),
q AS (SELECT event_type, max(ts) + 1 AS qts FROM e GROUP BY event_type)
SELECT q.event_type,
  (SELECT count(DISTINCT e.user_id) FROM e
     WHERE e.event_type = q.event_type AND e.ts < q.qts) AS exact_uniques,
  TRUE AS hll_ok,
  (SELECT quantile_disc(e.value, 0.5) FROM e
     WHERE e.event_type = q.event_type AND e.ts < q.qts AND e.value IS NOT NULL) AS p50
FROM q
"""


def bucketed_ann(sf_dir: str):
    """LSH- and IVF-bucketed ANN, each checked two ways against one
    brute-force top-5: top-1 must equal the global brute-force top-1 (hard
    SQL check — a corpus row identical to the query always lands in the
    query's own bucket or probed cell), and recall@5 must clear a floor
    (bound oracle).  One row per (method, query)."""
    from ..stages.ann import brute_force_topk, ivf_bucketed_topk, lsh_bucketed_topk

    emb_path = f"{sf_dir}/embeddings.parquet"
    qvecs, qids = _query_vectors(emb_path, 4)
    ds = read_parquet(emb_path, columns=["vec_id", "embedding"])
    brute = brute_force_topk(ds, qvecs, qids, "embedding", "vec_id", k=5).to_pandas()
    found = {
        "lsh": lsh_bucketed_topk(ds, qvecs, qids, "embedding", "vec_id", k=5, n_planes=4,
                                 multiprobe=2),
        "ivf": ivf_bucketed_topk(ds, qvecs, qids, "embedding", "vec_id", k=5,
                                 n_centroids=8, nprobe=3),
    }
    rows = []
    for method, res in found.items():
        got = res.to_pandas()  # tiny: n_queries x k rows
        for qid, g in got.groupby("query_id"):
            ref = set(brute.loc[brute["query_id"] == qid, "vec_id"])
            top1 = int(g.loc[g["rank"] == 1, "vec_id"].iloc[0])
            recall = len(set(g["vec_id"]) & ref) / max(len(ref), 1)
            rows.append((method, int(qid), top1, bool(recall >= 0.6)))
    return pd.DataFrame(rows, columns=["method", "query_id", "top1_vec_id", "recall_ok"])


ANN_TOP1_SQL = """
WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 4),
s AS (SELECT q.qid, c.vec_id,
        row_number() OVER (PARTITION BY q.qid ORDER BY
          list_cosine_similarity(CAST(c.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) DESC,
          c.vec_id) AS rank
      FROM q CROSS JOIN embeddings c)
SELECT CAST(qid AS BIGINT) AS query_id, vec_id AS top1_vec_id, TRUE AS recall_ok
FROM s WHERE rank = 1
"""


BUCKETED_ANN_SQL = _merged_sql(
    {"ann": ANN_TOP1_SQL},
    "SELECT method, ann.* FROM (VALUES ('lsh'), ('ivf')) m(method) CROSS JOIN ann",
)


def kmeans_clusters(sf_dir: str):
    """Full-corpus distributed Lloyd's k-means over the embeddings table
    (stages/kmeans.py): per-iteration one streaming pass with broadcast
    centroids + per-batch partial sums; the oracle unrolls the identical
    iterations in SQL.  k=4 seeds from vec_id<4, 3 Lloyd updates, final
    assignment labels every row."""
    from ..stages.kmeans import kmeans_cluster

    ds = read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return kmeans_cluster(ds, "embedding", "vec_id", k=4, iters=3)


def _kmeans_sql() -> str:
    from ..stages.kmeans import kmeans_oracle_sql

    return kmeans_oracle_sql("embeddings", "embedding", "vec_id", k=4, iters=3, dim=64)


def _dataset_split_sql() -> str:
    from ..functions.texthash import sql_splitmix64_ctes

    return (
        "WITH " + sql_splitmix64_ctes("documents", "doc_id", "doc_id", "hs")
        + "\nSELECT doc_id, CASE WHEN h % 100 < 80 THEN 'train'"
        " WHEN h % 100 < 90 THEN 'val' ELSE 'test' END AS split FROM hs"
    )


def stratified_sample_embeddings(sf_dir: str):
    """Deterministic class-balanced sample: the 10 lowest-hash vec_ids per
    label (stages/splits.py stratified_sample — per-block top-n prune, one
    tiny stratum exchange)."""
    from ..stages.splits import stratified_sample

    ds = read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]
    )
    return stratified_sample(ds, "label", "vec_id", 10)


def _stratified_sample_sql() -> str:
    from ..functions.texthash import sql_splitmix64_ctes

    return (
        "WITH " + sql_splitmix64_ctes("embeddings", "vec_id", "vec_id, label", "hs")
        + ",\nr AS (SELECT label, vec_id, row_number() OVER"
        " (PARTITION BY label ORDER BY h, vec_id) AS rank FROM hs)"
        "\nSELECT label, vec_id, rank FROM r WHERE rank <= 10"
    )


_IMG_SMALL_PATH = "/tmp/raywin_img_small"


def _ensure_img_small():
    import os

    from ..stages.images import FORMATS_MIXED, cache_is_current, generate_image_events

    path = _IMG_SMALL_PATH
    if not (
        os.path.exists(os.path.join(path, "part-0000.parquet"))
        and cache_is_current(path, FORMATS_MIXED)
    ):
        import shutil

        shutil.rmtree(path, ignore_errors=True)
        shutil.rmtree(path + "_truth", ignore_errors=True)
        # mixed png/jpeg/qimg: the driver-gated flagship exercises all three
        # codecs (incl. baseline JPEG) with per-row PSNR/caption invariants
        generate_image_events(path, n_rows=2000, n_entities=300, files=4,
                              formats=FORMATS_MIXED)
    return path


def image_backfill_small(sf_dir: str):
    """Flagship image pipeline on a deterministic generated table (the sf_dir
    tables carry no image payloads; BASELINE's input shape is synthesized)."""
    from .images import image_feature_backfill

    return image_feature_backfill(_ensure_img_small())


_PHASH_TBL = "/tmp/raywin_phash_small"


def _ensure_phash_table() -> str:
    """Deterministic phash table WITH planted near-duplicates (the image
    small table's phashes are effectively random 64-bit values — expected
    pairwise hamming 32 — so it contains no near-dups to find): 400 base
    hashes; every 4th id gets a twin with 1-3 bits flipped, every 10th an
    exact dupe, plus duplicate event rows per id (the DISTINCT exchange is
    part of what's tested)."""
    import os

    marker = os.path.join(_PHASH_TBL, "events.parquet")
    if os.path.exists(marker):
        return _PHASH_TBL
    os.makedirs(_PHASH_TBL, exist_ok=True)
    rng = np.random.default_rng(20260818)
    n = 400
    base = rng.integers(0, 2**63, n, dtype=np.int64)
    ids = [f"ph_{i:05d}" for i in range(n)]
    add_ids, add_ph = [], []
    for i in range(0, n, 4):
        flips = rng.integers(1, 4)
        ph = int(base[i])
        for b in rng.choice(64, size=int(flips), replace=False):
            ph ^= 1 << int(b)
        if ph >= 2**63:  # keep int64-representable (flip of bit 63)
            ph -= 2**64
        add_ids.append(f"ph_{i:05d}_twin")
        add_ph.append(ph)
    for i in range(0, n, 10):
        add_ids.append(f"ph_{i:05d}_copy")
        add_ph.append(int(base[i]))
    all_ids = np.array(ids + add_ids, dtype=object)
    all_ph = np.concatenate([base, np.array(add_ph, dtype=np.int64)])
    # 3 event rows per image: the pipeline must dedupe before pairing
    rep = np.tile(np.arange(len(all_ids)), 3)
    tbl = pa.table(
        {
            "image_id": pa.array(all_ids[rep], pa.string()),
            "phash": pa.array(all_ph[rep], pa.int64()),
            "ts": pa.array(rng.integers(0, 10**9, len(rep)), pa.int64()),
        }
    )
    import pyarrow.parquet as pq

    pq.write_table(tbl, marker)
    return _PHASH_TBL


def phash_neardup_images(sf_dir: str):
    """Image near-duplicate PAIRS by perceptual-hash hamming distance —
    LSH banding (4x16-bit bands, complete recall for dist <= 3) + exact
    vectorized popcount verify; payloads never ride, see
    stages/dedup.py:phash_neardup_pairs."""
    from ..stages.dedup import phash_neardup_pairs

    path = _ensure_phash_table()
    ds = read_parquet(path, columns=["image_id", "phash"])
    return phash_neardup_pairs(ds, max_dist=3, num_bands=4)


def _phash_neardup_sql() -> str:
    path = _ensure_phash_table()
    return f"""
WITH d AS (SELECT DISTINCT image_id, phash
           FROM read_parquet('{path}/*.parquet'))
SELECT a.image_id AS id_a, b.image_id AS id_b,
       CAST(bit_count(xor(a.phash, b.phash)) AS BIGINT) AS dist
FROM d a JOIN d b ON a.image_id < b.image_id
WHERE bit_count(xor(a.phash, b.phash)) <= 3
"""


_DUPIMG_TBL = "/tmp/raywin_dupimg_small"


def _ensure_dupimg_table() -> str:
    """Deterministic image table WITH planted exact duplicates (the flagship
    small table's pixels are pure functions of distinct ids, so it contains
    no exact dupes to find): 300 base images of mixed geometry (8/12/16 px)
    and mixed codec (png/qimg/jpeg); every 5th id gets a copy row — same
    pixels, same codec, new image_id — and every 15th a second copy, so
    group sizes 1/2/3 all occur.  Copies share the base's codec on purpose:
    exact dedup is decoded-pixel equality, and lossy/quantizing round trips
    only reproduce bytes under the same encoder (cross-codec near-dups are
    phash_neardup's job).  A truth parquet carries (image_id, group_key)
    for the oracle."""
    import os

    from ..stages.images import _encode_payload, cache_is_current, make_caption, make_pixels

    fmt_mix = ("png", "qimg", "jpeg")
    if cache_is_current(_DUPIMG_TBL, fmt_mix) and os.path.exists(
        _DUPIMG_TBL + "_truth/truth-0.parquet"
    ):
        return _DUPIMG_TBL
    import shutil

    import pyarrow.parquet as pq

    from ..stages.images import _marker_text

    shutil.rmtree(_DUPIMG_TBL, ignore_errors=True)
    shutil.rmtree(_DUPIMG_TBL + "_truth", ignore_errors=True)
    os.makedirs(_DUPIMG_TBL, exist_ok=True)
    os.makedirs(_DUPIMG_TBL + "_truth", exist_ok=True)
    rng = np.random.default_rng(20260820)
    n = 300
    sizes = np.asarray([8, 12, 16])[rng.integers(0, 3, n)]
    fmts = np.asarray(fmt_mix, dtype=object)[rng.integers(0, 3, n)]
    ids, blobs, ws, hs, caps, groups = [], [], [], [], [], []

    def emit(image_id: str, px, fmt: str, group: int):
        blob, _feats = _encode_payload(px, fmt)
        ids.append(image_id)
        blobs.append(blob)
        hs.append(px.shape[0])
        ws.append(px.shape[1])
        caps.append(make_caption(image_id))
        groups.append(group)
        return fmt

    for i in range(n):
        base_id = f"dup_{i:05d}"
        px = make_pixels(base_id, int(sizes[i]), int(sizes[i]))
        emit(base_id, px, str(fmts[i]), i)
        if i % 5 == 0:
            emit(f"{base_id}_c", px, str(fmts[i]), i)
        if i % 15 == 0:
            emit(f"{base_id}_c2", px, str(fmts[i]), i)
    fmt_col = [str(fmts[g]) for g in groups]
    tbl = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmt_col, pa.string()),
            "caption": pa.array(caps, pa.string()),
        }
    )
    pq.write_table(tbl, os.path.join(_DUPIMG_TBL, "images.parquet"))
    pq.write_table(
        pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "group_key": pa.array(groups, pa.int64()),
            }
        ),
        os.path.join(_DUPIMG_TBL + "_truth", "truth-0.parquet"),
    )
    with open(os.path.join(_DUPIMG_TBL, "_GENERATOR_VERSION"), "w") as f:
        f.write(_marker_text(fmt_mix))
    return _DUPIMG_TBL


def image_pixel_dedup(sf_dir: str):
    """Exact image dedup by decoded-pixel digest: decode every payload
    (mixed png/qimg/jpeg geometry), digest the decoded array, and group
    byte-identical images corpus-wide — bytes dropped in the decode stage,
    only (id, digest128) rides the one exchange.  See
    stages/dedup.py:pixel_dedup_groups."""
    from ..stages.dedup import pixel_dedup_groups

    path = _ensure_dupimg_table()
    ds = read_parquet(path, columns=["image_id", "bytes", "fmt"])
    return pixel_dedup_groups(ds).select_columns(
        ["image_id", "canonical_id", "group_size"]
    )


def _image_pixel_dedup_sql() -> str:
    """Oracle: the generator's truth table knows each row's source group;
    the pipeline must recover exactly that grouping from DECODED bytes."""
    path = _ensure_dupimg_table()
    return f"""
WITH g AS (SELECT group_key, min(image_id) AS canonical_id,
                  CAST(count(*) AS BIGINT) AS group_size
           FROM read_parquet('{path}_truth/truth-*.parquet') GROUP BY group_key)
SELECT t.image_id, g.canonical_id, g.group_size
FROM read_parquet('{path}_truth/truth-*.parquet') t JOIN g USING (group_key)
"""


_VIDEO_TBL = "/tmp/raywin_video_small"
_VIDEO_K = 4


def _ensure_video_table() -> str:
    import os

    from ..stages.video import VIDEO_GENERATOR_VERSION, generate_video_events

    marker = os.path.join(_VIDEO_TBL, "_GENERATOR_VERSION")
    if os.path.exists(marker) and open(marker).read() == VIDEO_GENERATOR_VERSION:
        return _VIDEO_TBL
    import shutil

    shutil.rmtree(_VIDEO_TBL, ignore_errors=True)
    shutil.rmtree(_VIDEO_TBL + "_truth", ignore_errors=True)
    generate_video_events(_VIDEO_TBL, n_videos=200)
    return _VIDEO_TBL


def video_frame_sample(sf_dir: str):
    """Multimodal frame-sampling: probe each video's header, uniformly
    sample ~k frames, seek-decode ONLY those (the qvid container's index
    table makes the k-of-n read touch k frames' bytes), emit per-frame
    pixel features; PSNR/caption invariants enforced per sampled frame.
    See stages/video.py — brief-mandated net-new surface (no chronon
    counterpart; payloads there are opaque thrift binary columns)."""
    from ..stages.video import FrameSampleStage

    path = _ensure_video_table()
    ds = read_parquet(
        path, columns=["video_id", "bytes", "fmt", "caption", "ts"]
    )
    ds = ds.map_batches(
        FrameSampleStage(_VIDEO_K), batch_format="pyarrow", batch_size=64
    )
    return ds.select_columns(
        ["video_id", "frame_idx", "n_frames", "mean_lum", "contrast", "edge_energy"]
    )


def _video_frame_sample_sql() -> str:
    """Oracle: the stride rule frame_idx % ceil(n_frames/k) == 0 recomputed
    in SQL over the generator's per-frame truth table (features of the
    DECODED frames, so values match the stage bitwise)."""
    path = _ensure_video_table()
    k = _VIDEO_K
    return f"""
SELECT video_id, frame_idx, n_frames, mean_lum, contrast, edge_energy
FROM read_parquet('{path}_truth/truth-*.parquet')
WHERE frame_idx % ((n_frames + {k - 1}) // {k}) = 0
"""


_AUDIO_TBL = "/tmp/raywin_audio_small"
_AUDIO_K = 4


def _ensure_audio_table() -> str:
    import os

    from ..stages.audio import AUDIO_GENERATOR_VERSION, generate_audio_events

    marker = os.path.join(_AUDIO_TBL, "_GENERATOR_VERSION")
    if os.path.exists(marker) and open(marker).read() == AUDIO_GENERATOR_VERSION:
        return _AUDIO_TBL
    import shutil

    shutil.rmtree(_AUDIO_TBL, ignore_errors=True)
    shutil.rmtree(_AUDIO_TBL + "_truth", ignore_errors=True)
    generate_audio_events(_AUDIO_TBL, n_clips=200)
    return _AUDIO_TBL


def audio_window_features(sf_dir: str):
    """Multimodal audio windowing: probe each clip's header, uniformly
    sample ~k windows (same SQL-reproducible stride rule as the video
    stage), seek-decode ONLY those (the qaud container's index table makes
    the k-of-n read touch k windows' bytes), emit per-window RMS /
    zero-crossing / spectral-centroid features; SNR/caption invariants
    enforced per sampled window.  See stages/audio.py — brief-mandated
    net-new surface (no chronon counterpart; payloads there are opaque
    thrift binary columns)."""
    from ..stages.audio import AudioWindowStage

    path = _ensure_audio_table()
    ds = read_parquet(
        path, columns=["audio_id", "bytes", "fmt", "caption", "ts"]
    )
    ds = ds.map_batches(
        AudioWindowStage(_AUDIO_K), batch_format="pyarrow", batch_size=64
    )
    return ds.select_columns(
        ["audio_id", "window_idx", "n_windows", "rms", "zcr", "spectral_centroid"]
    )


def _audio_window_features_sql() -> str:
    """Oracle: the stride rule window_idx % ceil(n_windows/k) == 0
    recomputed in SQL over the generator's per-window truth table
    (features of the DECODED windows, so values match the stage bitwise)."""
    path = _ensure_audio_table()
    k = _AUDIO_K
    return f"""
SELECT audio_id, window_idx, n_windows, rms, zcr, spectral_centroid
FROM read_parquet('{path}_truth/truth-*.parquet')
WHERE window_idx % ((n_windows + {k - 1}) // {k}) = 0
"""


def image_backfill_skew_small(sf_dir: str):
    """Flagship with handle_skew=True against the SAME oracle: hot-key
    detection + time-chunk replication for the bounded parts + the chained
    unbounded-AVERAGE split must be a pure execution-strategy change (zero
    result change).  The small table's Zipf entities trip the 2% detector
    (7 hot keys), so the chunk path runs end to end in the driver gate —
    reference analogue: the skew-handling assertions around
    spark/src/test/scala/ai/chronon/spark/test/join/*JoinTest.scala."""
    from ..stages.shuffle import detect_hot_keys
    from .images import image_feature_backfill

    path = _ensure_img_small()
    hot = detect_hot_keys(
        read_parquet(path, columns=["image_id", "ts"]), "image_id"
    )
    assert hot.keys, "skew query ran without hot keys — detector regressed"
    return image_feature_backfill(path, handle_skew=True)


def _image_backfill_sql() -> str:
    """Oracle: the same point-in-time windowed aggregation in SQL over the
    generator's truth table (per-row DECODED-pixel features — the decode
    stage itself is pinned by the PSNR/caption invariants, the aggregation by
    this recompute; reference GroupByTest-style oracle)."""
    path = _ensure_img_small()
    truth = path + "_truth"
    h, d = HOUR, DAY
    return f"""
WITH e AS (SELECT image_id, ts, phash, views, score, mean_lum, contrast, edge_energy,
                  CAST(round(score * 1000) AS BIGINT) AS ssv
           FROM read_parquet('{truth}/truth-*.parquet')),
q AS (SELECT DISTINCT image_id, ts FROM e),
p AS (SELECT q.image_id, q.ts, e.views, e.score, e.ssv, e.mean_lum, e.contrast,
             e.edge_energy, e.ts AS ets, e.phash
      FROM q LEFT JOIN e ON e.image_id = q.image_id AND e.ts < q.ts)
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
FROM p GROUP BY image_id, ts
"""


def staging_query_revenue(sf_dir: str):
    from .staging import StagingQuery, run_staging_query

    # inclusive {{ start_date }}..{{ end_date }} slices (the reference's
    # PartitionRange convention) so the query is step-shardable; executed
    # DISTRIBUTED via step_days (one Ray task per 30-day slice)
    sq = StagingQuery(
        name="daily_revenue",
        query="""
            SELECT o_orderdate, count(*) AS n_orders, sum(o_totalprice) AS revenue
            FROM orders
            WHERE o_orderdate BETWEEN DATE '{{ start_date }}' AND DATE '{{ end_date }}'
            GROUP BY o_orderdate
        """,
    )
    return run_staging_query(
        sq, "1995-01-01", "1995-12-31", {"orders": f"{sf_dir}/orders.parquet"},
        step_days=30,
    )


STAGING_SQL = """
SELECT o_orderdate, count(*) AS n_orders, sum(o_totalprice) AS revenue
FROM orders
WHERE o_orderdate BETWEEN DATE '1995-01-01' AND DATE '1995-12-31'
GROUP BY o_orderdate
"""


def summary_stats_lineitem(sf_dir: str):
    from ..functions.stats import summary_stats

    ds = read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_quantity", "l_extendedprice", "l_discount"]
    )
    out = summary_stats(ds, ["l_quantity", "l_extendedprice", "l_discount"])
    return out[["column", "rows", "nulls", "mean", "min", "max"]]


SUMMARY_STATS_SQL = """
SELECT col AS column, CAST(rows AS BIGINT) AS rows, CAST(nulls AS BIGINT) AS nulls,
       mean, "min", "max"
FROM (
  SELECT 'l_quantity' AS col, count(*) AS rows, count(*) - count(l_quantity) AS nulls,
         avg(l_quantity) AS mean, min(l_quantity) AS "min", max(l_quantity) AS "max"
  FROM lineitem
  UNION ALL
  SELECT 'l_extendedprice', count(*), count(*) - count(l_extendedprice),
         avg(l_extendedprice), min(l_extendedprice), max(l_extendedprice) FROM lineitem
  UNION ALL
  SELECT 'l_discount', count(*), count(*) - count(l_discount),
         avg(l_discount), min(l_discount), max(l_discount) FROM lineitem
)
"""


_ENTITY_FIXTURE_VERSION = 2  # v2: value rows carry creation ts; left persisted


def _entity_fixture(tmp_dir="/tmp/raywin_entities"):
    """Deterministic snapshot+mutation+left fixture (FIXTURES.md F3 shape).

    Value rows carry their CREATION timestamp (``ts``) separately from the
    mutation time (``mutation_ts``) — updates/deletes reference the original
    row's ts, so windowed aggregations over row age are meaningful (reference
    CDC convention, api/py/ai/chronon/query.py:66-72)."""
    import os

    import pyarrow.parquet as pq

    snap_path = os.path.join(tmp_dir, "snaps.parquet")
    mut_path = os.path.join(tmp_dir, "muts.parquet")
    left_path = os.path.join(tmp_dir, "left.parquet")
    ver_path = os.path.join(tmp_dir, f"v{_ENTITY_FIXTURE_VERSION}")
    if all(os.path.exists(p) for p in (snap_path, mut_path, left_path, ver_path)):
        return snap_path, mut_path, left_path
    os.makedirs(tmp_dir, exist_ok=True)
    rng = np.random.default_rng(21)
    base = pd.Timestamp("2024-03-01").value // 1_000_000
    # state[k] = list of (value, created_ts); seed rows created the day before
    state = {
        str(k): [(float(rng.integers(1, 50)), int(base - DAY + rng.integers(0, DAY)))]
        for k in range(30)
    }
    snap_rows, mut_rows = [], []
    for d in range(5):
        day_start = base + d * DAY
        for k in list(state):
            n_mut = rng.integers(0, 4)
            for mts in sorted(int(day_start + t) for t in rng.integers(0, DAY, n_mut)):
                vals = state[k]
                action = rng.choice(["insert", "update", "delete"])
                if action == "insert" or not vals:
                    v = float(rng.integers(1, 50))
                    mut_rows.append((k, v, mts, mts, False))
                    vals.append((v, mts))
                elif action == "update":
                    i = rng.integers(0, len(vals))
                    old_v, old_ts = vals[i]
                    mut_rows.append((k, old_v, old_ts, mts, True))
                    new = float(rng.integers(1, 50))
                    mut_rows.append((k, new, old_ts, mts, False))
                    vals[i] = (new, old_ts)
                else:
                    i = rng.integers(0, len(vals))
                    old_v, old_ts = vals.pop(i)
                    mut_rows.append((k, old_v, old_ts, mts, True))
        ds_label = pd.Timestamp(day_start, unit="ms").strftime("%Y-%m-%d")
        for k, vals in state.items():
            for v, cts in vals:
                snap_rows.append((k, v, cts, ds_label))
    pq.write_table(
        pa.table(
            {
                "k": pa.array([r[0] for r in snap_rows]),
                "rating": pa.array([r[1] for r in snap_rows]),
                "ts": pa.array([r[2] for r in snap_rows], type=pa.int64()),
                "ds": pa.array([r[3] for r in snap_rows]),
            }
        ),
        snap_path,
    )
    pq.write_table(
        pa.table(
            {
                "k": pa.array([r[0] for r in mut_rows]),
                "rating": pa.array([r[1] for r in mut_rows]),
                "ts": pa.array([r[2] for r in mut_rows], type=pa.int64()),
                "mutation_ts": pa.array([r[3] for r in mut_rows], type=pa.int64()),
                "is_before": pa.array([r[4] for r in mut_rows]),
            }
        ),
        mut_path,
    )
    qbase = pd.Timestamp("2024-03-02").value // 1_000_000
    qrng = np.random.default_rng(33)
    pq.write_table(
        pa.table(
            {
                "k": pa.array(qrng.integers(0, 30, 500).astype(str)),
                "ts": pa.array(qbase + qrng.integers(0, 4 * DAY, 500), type=pa.int64()),
            }
        ),
        left_path,
    )
    open(ver_path, "w").close()
    return snap_path, mut_path, left_path


def temporal_entities_demo(sf_dir: str):
    """PITC aggregation over mutable entities (CDC reversals), unwindowed AND
    windowed deletable ops — deterministic fixture with a full DuckDB
    per-query recompute oracle (reference MutationsTest.scala:74-134)."""
    from ..api import Accuracy, EntitySource
    from .entities import temporal_entity_features

    snap_path, mut_path, left_path = _entity_fixture()
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, mutation_table=mut_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating"),
            Aggregation(Operation.COUNT, "rating"),
            Aggregation(Operation.AVERAGE, "rating"),
            Aggregation(Operation.SUM, "rating", windows=[Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "rating", windows=[Window(3, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "rating", windows=[Window(2, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="ent_demo",
    )
    left = read_parquet(left_path)
    return temporal_entity_features(gb, left)


def _temporal_entities_sql() -> str:
    """Exact per-query recompute over the fixture parquet files: state at
    query ts = previous-day snapshot + same-day CDC with mutation_ts < ts;
    windows filter on the ROW ts (sawtooth daily tail).  Fixed-point BIGINT
    sums match the kernel bitwise."""
    snap_path, mut_path, left_path = _entity_fixture()
    win = {"sum_2d": 2 * DAY, "cnt_3d": 3 * DAY, "avg_2d": 2 * DAY}

    def bounds(w):  # sawtooth: [round_down(ts - w, DAY), ts)
        return f"(q.ts - {w}) // {DAY} * {DAY}"

    def scnt(w=None):
        tsf = f" AND s.ts >= {bounds(w)} AND s.ts < q.ts" if w else ""
        return (
            f"(SELECT coalesce(sum(CASE WHEN s.rating IS NULL THEN 0 ELSE 1 END), 0) "
            f"FROM snaps s WHERE s.k = q.k AND s.day = q.qday{tsf})"
        )

    def ssum(w=None):
        tsf = f" AND s.ts >= {bounds(w)} AND s.ts < q.ts" if w else ""
        return (
            f"(SELECT coalesce(sum(s.sv), 0) FROM snaps s "
            f"WHERE s.k = q.k AND s.day = q.qday{tsf})"
        )

    def mfilter(w=None):
        tsf = f" AND m.ts >= {bounds(w)} AND m.ts < q.ts" if w else ""
        return (
            f"FROM muts m WHERE m.k = q.k AND m.mutation_ts >= q.qday "
            f"AND m.mutation_ts < q.ts{tsf}"
        )

    def mcnt(w=None):
        return f"(SELECT coalesce(sum(m.sgn), 0) {mfilter(w)})"

    def msum(w=None):
        return f"(SELECT coalesce(sum(m.sgn * m.sv), 0) {mfilter(w)})"

    def feature(op, w, name):
        cnt = f"({scnt(w)} + {mcnt(w)})"
        tot = f"CAST({ssum(w)} + {msum(w)} AS DOUBLE) / 100.0"
        if op == "count":
            expr = f"CAST({cnt} AS DOUBLE)"
        elif op == "sum":
            expr = tot
        else:
            expr = f"{tot} / {cnt}"
        return f"CASE WHEN {cnt} > 0 THEN {expr} END AS {name}"

    return f"""
WITH snaps AS (SELECT k, rating, ts, CAST(round(rating * 100) AS BIGINT) AS sv,
        epoch_ms(CAST(ds AS DATE)) + {DAY} AS day
      FROM read_parquet('{snap_path}')),
muts AS (SELECT k, ts, mutation_ts, CAST(round(rating * 100) AS BIGINT) AS sv,
        CASE WHEN is_before THEN -1 ELSE 1 END AS sgn
      FROM read_parquet('{mut_path}')),
q AS (SELECT k, ts, ts // {DAY} * {DAY} AS qday FROM read_parquet('{left_path}'))
SELECT q.k, q.ts,
  {feature("sum", None, "rating_sum")},
  {feature("count", None, "rating_count")},
  {feature("avg", None, "rating_average")},
  {feature("sum", win["sum_2d"], "rating_sum_2d")},
  {feature("count", win["cnt_3d"], "rating_count_3d")},
  {feature("avg", win["avg_2d"], "rating_average_2d")}
FROM q
"""


_DRIFT_BINS = 16


def drift_stats_demo(sf_dir: str):
    """Distribution drift (PSI + Hellinger) between two halves of events,
    binned on an explicit [min, max] grid with a fixed double-op formula so
    the SQL oracle reproduces the bin assignment (and hence both distances)
    exactly."""
    from ray.data.aggregate import Max, Min, Sum

    ds = read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])

    def _half(parity):
        def fn(batch: pa.Table) -> pa.Table:
            ev = batch["event_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(ev % 2 == parity))

        return fn

    a = ds.map_batches(_half(0), batch_format="pyarrow")
    b = ds.map_batches(_half(1), batch_format="pyarrow")
    mm = a.aggregate(Min("value"), Max("value"))
    lo, hi = float(mm["min(value)"]), float(mm["max(value)"])
    nb = _DRIFT_BINS

    def hist(ds_x) -> np.ndarray:
        def part(batch: pa.Table) -> pa.Table:
            v = batch["value"].to_numpy(zero_copy_only=False).astype(np.float64)
            v = v[~np.isnan(v)]
            # bin formula mirrored VERBATIM in the SQL oracle
            idx = np.clip(
                np.floor((v - lo) * nb / (hi - lo)).astype(np.int64), 0, nb - 1
            )
            return pa.table(
                {"bin": np.arange(nb, dtype=np.int64),
                 "cnt": np.bincount(idx, minlength=nb).astype(np.int64)}
            )

        parts = ds_x.map_batches(part, batch_format="pyarrow")
        agg = parts.groupby("bin").aggregate(Sum("cnt", alias_name="cnt")).to_pandas()
        return (
            agg.set_index("bin")["cnt"].reindex(range(nb), fill_value=0).to_numpy()
            .astype(np.float64)
        )

    ha, hb = hist(a), hist(b)
    p_a = np.maximum(ha / ha.sum(), 1e-6)
    p_b = np.maximum(hb / hb.sum(), 1e-6)
    psi = float(np.sum((p_a - p_b) * np.log(p_a / p_b)))
    hellinger = float(np.sqrt(0.5 * np.sum((np.sqrt(p_a) - np.sqrt(p_b)) ** 2)))
    return pd.DataFrame([{"psi": psi, "hellinger": hellinger, "bins": nb}])


DRIFT_STATS_SQL = f"""
WITH v AS (SELECT event_id, value FROM events WHERE value IS NOT NULL),
r AS (SELECT min(value) AS lo, max(value) AS hi FROM v WHERE event_id % 2 = 0),
binned AS (SELECT event_id % 2 AS side,
        least(greatest(CAST(floor((value - r.lo) * {_DRIFT_BINS} / (r.hi - r.lo))
                            AS BIGINT), 0), {_DRIFT_BINS - 1}) AS bin
      FROM v, r),
bins AS (SELECT unnest(range({_DRIFT_BINS})) AS bin),
c AS (SELECT bins.bin,
        CAST(count(*) FILTER (WHERE side = 0) AS DOUBLE) AS ca,
        CAST(count(*) FILTER (WHERE side = 1) AS DOUBLE) AS cb
      FROM bins LEFT JOIN binned ON binned.bin = bins.bin GROUP BY bins.bin),
t AS (SELECT sum(ca) AS ta, sum(cb) AS tb FROM c),
p AS (SELECT bin, greatest(ca / t.ta, 0.000001) AS pa_, greatest(cb / t.tb, 0.000001) AS pb_
      FROM c, t)
SELECT
  sum((pa_ - pb_) * ln(pa_ / pb_)) AS psi,
  sqrt(0.5 * sum((sqrt(pa_) - sqrt(pb_)) * (sqrt(pa_) - sqrt(pb_)))) AS hellinger,
  CAST({_DRIFT_BINS} AS BIGINT) AS bins
FROM p
"""


# ------------------------------------------------------- bootstrap parts


def _bootstrap_fixture(sf_dir: str) -> tuple[str, str]:
    """Deterministic bootstrap tables derived from the sf events table:
    table A covers BOTH part outputs for event_id%3==0 (sentinel values),
    table B provides only the sum for event_id%3==1 (partial coverage)."""
    import os

    import duckdb

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/raywin_bootstrap_{tag}"
    a, b = f"{root}/bs_a.parquet", f"{root}/bs_b.parquet"
    if not (os.path.exists(a) and os.path.exists(b)):
        os.makedirs(root, exist_ok=True)
        con = duckdb.connect()
        con.execute(
            f"""COPY (SELECT event_id,
                     CAST(-1000.0 - event_id AS DOUBLE) AS p1_usersum_value_sum_7d,
                     CAST(10000 + event_id AS BIGINT) AS p1_usersum_value_count_7d
              FROM '{sf_dir}/events.parquet' WHERE event_id % 3 = 0)
              TO '{a}' (FORMAT PARQUET)"""
        )
        con.execute(
            f"""COPY (SELECT event_id,
                     CAST(-5000.0 - event_id AS DOUBLE) AS p1_usersum_value_sum_7d
              FROM '{sf_dir}/events.parquet' WHERE event_id % 3 = 1)
              TO '{b}' (FORMAT PARQUET)"""
        )
        con.close()
    return a, b


def bootstrap_join(sf_dir: str):
    """Join backfill with bootstrap parts + covering sets (reference
    Join.scala:464-558,136-217): covered rows keep bootstrap values and skip
    the part's kernel; partially-covered rows coalesce bootstrap over
    computed; the rest backfill normally."""
    from .join import backfill_join

    bs_a, bs_b = _bootstrap_fixture(sf_dir)
    gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="usersum",
    )
    from ..api import BootstrapPart

    join = Join(
        left=_events_source(sf_dir, {"event_id": "event_id", "user_id": "user_id"}),
        join_parts=[JoinPart(group_by=gb, prefix="p1")],
        row_ids=["event_id"],
        bootstrap_parts=[
            BootstrapPart(table=bs_a, semantic_hash="bsA"),
            BootstrapPart(table=bs_b, semantic_hash="bsB"),
        ],
        name="bootstrap_join",
    )
    return backfill_join(join)


BOOTSTRAP_JOIN_SQL = f"""
WITH e AS (SELECT event_id, user_id, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
c AS (SELECT l.event_id,
        CAST(sum(r.sv) FILTER (WHERE r.ts < l.ts
              AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}) AS DOUBLE)/100.0 AS sum7,
        nullif(count(r.value) FILTER (WHERE r.ts < l.ts
              AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}), 0) AS cnt7
      FROM e l LEFT JOIN e r ON r.user_id = l.user_id
      GROUP BY l.event_id, l.ts)
SELECT e.event_id, e.user_id, e.ts,
  CASE WHEN e.event_id % 3 = 0 THEN -1000.0 - e.event_id
       WHEN e.event_id % 3 = 1 THEN -5000.0 - e.event_id
       ELSE c.sum7 END AS p1_usersum_value_sum_7d,
  CASE WHEN e.event_id % 3 = 0 THEN CAST(10000 + e.event_id AS BIGINT)
       ELSE c.cnt7 END AS p1_usersum_value_count_7d
FROM e JOIN c ON c.event_id = e.event_id
"""


# ----------------------------------------------- list / map column inputs


_INT_EMB = "list_transform(CAST(embedding AS DOUBLE[]), x -> CAST(round(x * 1000) AS BIGINT))"


def list_explode_agg(sf_dir: str):
    """Aggregation over a ``list<int64>`` column, exploded and element-wise.
    Auto-explode (reference ColumnAggregator.scala:79-116 VectorDispatcher):
    every element of the embeddings table's vector aggregates as its own
    row.  Element-wise (ElementWiseOp, reference ElementWiseAggregator.scala):
    the AVERAGE of each vector position, over a second select of the same
    list, since both AVERAGE parts would otherwise output ``emb_average``.
    Elements are integerized in the Query select (round(x*1000)) so every
    aggregate is integer-exact and the SQL oracle reproduces it bitwise."""
    from .group_by import features_for_queries

    src = EventSource(
        table=f"{sf_dir}/embeddings.parquet",
        query=Query(
            selects={"label": "label", "emb": _INT_EMB, "emb_vec": _INT_EMB},
            time_column="1600000000000 + vec_id * 60000",
        ),
    )
    gb = GroupBy(
        sources=[src],
        key_columns=["label"],
        aggregations=[
            Aggregation(Operation.SUM, "emb", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "emb", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "emb"),
            Aggregation(Operation.MAX, "emb"),
            Aggregation(Operation.TOP_K, "emb", arg_map={"k": 3}),
            Aggregation(Operation.AVERAGE, "emb_vec", element_wise=True),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="listagg",
    )
    read = read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"])
    left = _after_last_rows(
        read, "label", lambda t: pc.add(pc.multiply(t["vec_id"].cast(pa.int64()), 60000), 1600000000000)
    )
    return features_for_queries(gb, left)


EXPLODED_SQL = f"""
WITH e AS (SELECT label, 1600000000000 + vec_id * 60000 AS ts,
                  {_INT_EMB} AS emb
           FROM embeddings),
q AS (SELECT label, max(ts) + 1 AS ts FROM e GROUP BY label),
x AS (SELECT label, ts, unnest(emb) AS v FROM e),
p AS (SELECT q.label, q.ts, x.v, x.ts AS ets
      FROM q LEFT JOIN x ON x.label = q.label AND x.ts < q.ts)
SELECT label, ts,
  CAST(sum(v) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}) AS BIGINT) AS emb_sum_1d,
  CAST(sum(v) AS BIGINT) AS emb_sum,
  nullif(count(v) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}), 0) AS emb_count_1d,
  CAST(sum(v) AS DOUBLE) / count(v) AS emb_average,
  max(v) AS emb_max,
  CAST((list(v ORDER BY v DESC) FILTER (WHERE v IS NOT NULL))[1:3] AS DOUBLE[]) AS emb_top3
FROM p GROUP BY label, ts
"""


ELEMENTWISE_SQL = f"""
WITH e AS (SELECT label, 1600000000000 + vec_id * 60000 AS ts, {_INT_EMB} AS emb
           FROM embeddings),
q AS (SELECT label, max(ts) + 1 AS ts FROM e GROUP BY label),
x AS (SELECT q.label, q.ts, unnest(e.emb) AS v, unnest(range(1, len(e.emb) + 1)) AS i
      FROM q JOIN e ON e.label = q.label AND e.ts < q.ts),
a AS (SELECT label, ts, i, CAST(sum(v) AS DOUBLE) / count(v) AS avg_v
      FROM x GROUP BY label, ts, i)
SELECT label, ts, list(avg_v ORDER BY i) AS emb_vec_average FROM a GROUP BY label, ts
"""


LIST_EXPLODE_SQL = _merged_sql(
    {"exploded": EXPLODED_SQL, "elementwise": ELEMENTWISE_SQL},
    "SELECT * FROM exploded JOIN elementwise USING (label, ts)",
)


def event_type_aggs(sf_dir: str):
    """Per-event_type aggregation at each type's last ts + 1, one GroupBy.

    Sketch validation: the HLL estimate is checked against the EXACT unique
    count computed in the same kernel pass (error-bound oracle, the
    reference's ApproxDistinctTest pattern), plus an exact nearest-rank
    median that the SQL oracle reproduces verbatim.

    A ``map<string,int64>`` column aggregated per map key (reference
    MapColumnAggregator.scala:1-75): the Query select builds a two-key map
    (json prop + scaled value), and the map outputs are exploded to one row
    per (event_type, ts, mkey) for the oracle compare."""
    from .group_by import features_for_queries

    src = EventSource(
        table=f"{sf_dir}/events.parquet",
        query=Query(
            selects={
                "event_type": "event_type",
                "user_id": "user_id",
                "value": "value",
                "m": "map(['k', 'v'],"
                     " [CAST(json_extract_string(props, '$.k') AS BIGINT),"
                     "  CAST(round(value * 100) AS BIGINT)])",
            },
            time_column="epoch_ms(ts)",
            wheres=["event_type IS NOT NULL"],
        ),
    )
    gb = GroupBy(
        sources=[src],
        key_columns=["event_type"],
        aggregations=[
            Aggregation(Operation.APPROX_UNIQUE_COUNT, "user_id", arg_map={"lgk": 10}),
            Aggregation(Operation.UNIQUE_COUNT, "user_id"),
            Aggregation(Operation.APPROX_PERCENTILE, "value",
                        arg_map={"k": 128, "percentiles": "[0.5]",
                                 "interpolation": "disc"}),
            Aggregation(Operation.SUM, "m", windows=[Window(7, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "m", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.MAX, "m"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="etype",
    )
    left = _after_last_rows(_events_ds(sf_dir, ["event_type", "ts"]), "event_type", _ts_ms)
    maps = ["m_sum_7d", "m_sum", "m_count_7d", "m_max"]
    sketches = ["user_id_unique_count", "user_id_approx_unique_count", "value_approx_percentile"]
    rows = _explode_maps(
        features_for_queries(gb, left), ["event_type", "ts"] + sketches, "mkey",
        {c: c for c in maps},
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        exact = df["user_id_unique_count"].astype("int64")
        est = df["user_id_approx_unique_count"].astype("float64")
        # HLL lgk=10: std err 1.04/sqrt(1024) ~ 3.2%; 4 sigma + small slack
        hll_ok = (est - exact).abs() <= np.maximum(5.0, 0.13 * exact)
        p50 = df["value_approx_percentile"].map(lambda v: None if v is None else v[0])
        return df[["event_type", "ts", "mkey"] + maps].assign(
            exact_uniques=exact, hll_ok=hll_ok.astype(bool), p50=p50.astype("float64")
        )

    return rows.map_batches(finish, batch_format="pandas")


MAP_COLUMN_SQL = f"""
WITH e0 AS (SELECT event_type, epoch_ms(ts) AS ts,
                   CAST(json_extract_string(props, '$.k') AS BIGINT) AS kv,
                   CAST(round(value * 100) AS BIGINT) AS sv
            FROM events WHERE event_type IS NOT NULL),
q AS (SELECT event_type, max(ts) + 1 AS ts FROM e0 GROUP BY event_type),
x AS (SELECT event_type, ts, 'k' AS mkey, kv AS v FROM e0
      UNION ALL SELECT event_type, ts, 'v', sv FROM e0),
p AS (SELECT q.event_type, q.ts, x.mkey, x.v, x.ts AS ets
      FROM q JOIN x ON x.event_type = q.event_type AND x.ts < q.ts)
SELECT event_type, ts, mkey,
  CAST(sum(v) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}) AS BIGINT) AS m_sum_7d,
  CAST(sum(v) AS BIGINT) AS m_sum,
  nullif(count(v) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}), 0) AS m_count_7d,
  max(v) AS m_max
FROM p GROUP BY event_type, ts, mkey
"""


EVENT_TYPE_AGGS_SQL = _merged_sql(
    {"maps": MAP_COLUMN_SQL, "sketches": APPROX_SKETCHES_SQL},
    "SELECT * FROM maps JOIN sketches USING (event_type)",
)


def session_stats_30m(sf_dir: str):
    from ..stages.sequence import sessionize

    ds = _ms_rows(_events_ds(sf_dir, ["event_id", "user_id", "ts"]))
    return sessionize(ds, ["user_id"], gap_ms=30 * 60 * 1000, tie_col="event_id", output="sessions")


SESSION_STATS_SQL = """
WITH e AS (SELECT event_id, user_id, epoch_ms(ts) AS ts FROM events),
x AS (SELECT *, CASE WHEN lag(ts) OVER w IS NULL OR ts - lag(ts) OVER w > 1800000
                     THEN 1 ELSE 0 END AS ns
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
y AS (SELECT *, sum(ns) OVER (PARTITION BY user_id ORDER BY ts, event_id
                              ROWS UNBOUNDED PRECEDING) - 1 AS sid FROM x)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
  min(ts) AS session_start, max(ts) AS session_end,
  count(*) AS n_events, max(ts) - min(ts) AS duration_ms
FROM y GROUP BY user_id, sid
"""


def label_join_training(sf_dir: str):
    """Training table: PITC features labeled with the NEXT day's activity
    (LabelJoin with a ts+1d label offset, reference LabelJoin.scala:35-291 —
    labels computed at a later timestamp, never leaking into features)."""
    from .chaining import label_join
    from .group_by import features_for_queries

    feat_gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="feat",
    )
    feats = features_for_queries(
        feat_gb, _distinct_user_ts(sf_dir), dedupe_queries=True
    )
    label_gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.COUNT, "value", windows=[Window(1, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="lbl",
    )
    return label_join(feats, label_gb, DAY, ["user_id"])


LABEL_JOIN_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
f AS (SELECT q.user_id, q.ts,
        CAST(sum(e.sv) FILTER (WHERE e.ts >= (q.ts - {7 * DAY})//{HOUR}*{HOUR})
             AS DOUBLE)/100.0 AS value_sum_7d
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts
      GROUP BY q.user_id, q.ts),
l AS (SELECT q.user_id, q.ts,
        nullif(count(e.value) FILTER (WHERE e.ts >= q.ts//{HOUR}*{HOUR}), 0)
          AS label_value_count_1d
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts + {DAY}
      GROUP BY q.user_id, q.ts)
SELECT f.user_id, f.ts, f.value_sum_7d, l.label_value_count_1d
FROM f JOIN l ON f.user_id = l.user_id AND f.ts = l.ts
"""


def chained_join_features(sf_dir: str):
    """JoinSource chaining: the OUTPUT of a parent join feeds a child GroupBy
    as its event source (reference GroupBy.scala:406-457 replaceJoinSource)."""
    from ..api import JoinSource
    from .chaining import chained_features

    user_gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="u",
    )
    parent = Join(
        left=EventSource(
            table=f"{sf_dir}/events.parquet",
            query=Query(selects={"event_id": "event_id", "user_id": "user_id"},
                        time_column="epoch_ms(ts)"),
        ),
        join_parts=[JoinPart(group_by=user_gb)],
        name="parent",
    )
    child = GroupBy(
        sources=[JoinSource(join=parent, query=Query(
            selects={"user_id": "user_id", "s7": "u_value_sum_7d"}, time_column="ts"))],
        key_columns=["user_id"],
        aggregations=[Aggregation(Operation.LAST, "s7")],
        accuracy=Accuracy.TEMPORAL,
        name="child",
    )
    return chained_features(child, _distinct_user_ts(sf_dir), dedupe_queries=True)


CHAINED_JOIN_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts, value,
                  CAST(round(value * 100) AS BIGINT) AS sv FROM events),
q AS (SELECT DISTINCT user_id, ts FROM e),
par AS (SELECT DISTINCT a.user_id, a.ts,
          CAST(sum(b.sv) FILTER (WHERE b.ts >= (a.ts - {7 * DAY})//{HOUR}*{HOUR})
               AS DOUBLE)/100.0 AS s7
        FROM e a LEFT JOIN e b ON b.user_id = a.user_id AND b.ts < a.ts
        GROUP BY a.user_id, a.ts)
SELECT q.user_id, q.ts, p.s7 AS s7_last
FROM q ASOF LEFT JOIN par p ON p.user_id = q.user_id AND p.ts < q.ts
"""


def snapshot_entities_daily(sf_dir: str):
    """SNAPSHOT accuracy over an entity snapshot table: one row per (key, ds)
    aggregating that day's snapshot (reference GroupBy.scala:100-142)."""
    from ..api import EntitySource
    from .entities import snapshot_entity_features

    snap_path, _, _ = _entity_fixture()
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating"),
            Aggregation(Operation.COUNT, "rating"),
            Aggregation(Operation.AVERAGE, "rating"),
            Aggregation(Operation.MAX, "rating"),
            Aggregation(Operation.VARIANCE, "rating"),
            Aggregation(Operation.UNIQUE_COUNT, "rating"),
            Aggregation(Operation.FIRST, "rating"),
            Aggregation(Operation.LAST, "rating"),
            Aggregation(Operation.TOP_K, "rating", arg_map={"k": 2}),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap_ent",
    )
    return snapshot_entity_features(gb)


def _snapshot_entities_sql() -> str:
    snap_path, _, _ = _entity_fixture()
    return f"""
SELECT k, ds, sum(rating) AS rating_sum, count(rating) AS rating_count,
       avg(rating) AS rating_average, max(rating) AS rating_max,
       var_pop(rating) AS rating_variance,
       count(DISTINCT rating) AS rating_unique_count,
       arg_min(rating, ts) AS rating_first,
       arg_max(rating, ts) AS rating_last,
       list_slice(list_sort(list(rating), 'DESC'), 1, 2) AS rating_top2
FROM read_parquet('{snap_path}') GROUP BY k, ds
"""


def neardup_jaccard_docs(sf_dir: str):
    """MinHash-LSH candidates verified with exact 5-gram Jaccard >= 0.8.
    Candidate recall at the injected near-dups' J (~0.99) is 1-5e-21, so the
    verified set equals the oracle's brute-force all-pairs set."""
    from ..stages.dedup import verified_neardup_pairs

    ds = read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return verified_neardup_pairs(ds, "text", "doc_id", threshold=0.8)


def _neardup_jaccard_sql() -> str:
    from ..functions.texthash import sql_norm

    return f"""
WITH d AS (SELECT doc_id, {sql_norm('text')} AS t FROM documents),
g AS (SELECT DISTINCT doc_id,
        unnest(list_transform(range(1, greatest(length(t) - 4, 1) + 1),
                              i -> substring(t, CAST(i AS INT), 5))) AS gr
      FROM d),
sz AS (SELECT doc_id, count(*) AS n FROM g GROUP BY doc_id),
inter AS (SELECT ga.doc_id AS a, gb.doc_id AS b, count(*) AS i
          FROM g ga JOIN g gb ON ga.gr = gb.gr AND ga.doc_id < gb.doc_id
          GROUP BY 1, 2)
SELECT a, b, round(CAST(i AS DOUBLE) / (sa.n + sb.n - i), 6) AS jaccard
FROM inter JOIN sz sa ON sa.doc_id = a JOIN sz sb ON sb.doc_id = b
WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
"""


def neardup_cosine_pairs(sf_dir: str):
    """Exhaustive embedding-cosine near-dup pairs (block-pair matmul tasks)."""
    from ..stages.dedup import cosine_neardup_pairs

    ds = read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return cosine_neardup_pairs(ds, tau=0.4, num_blocks=4)


NEARDUP_COSINE_SQL = """
SELECT a.vec_id AS a, b.vec_id AS b,
  round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                               CAST(b.embedding AS DOUBLE[])), 6) AS sim
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.4
"""


# ------------------------------------------------------- online serving lambda


def online_serving(sf_dir: str):
    """The serving lambda run offline end-to-end: GroupByUpload at a midnight
    seam + streaming tail + the co-partitioned online_enrich_distributed
    fetch (queries, upload rows and tail in one exchange).  Because the
    lambda is exact (zero temporal leakage, SawtoothOnlineAggregator.scala:
    105-123), the result equals a plain as-of recompute over ALL events —
    which is exactly what the SQL oracle does, making the seam
    driver-verifiable."""
    import pyarrow.dataset as pads

    from ..online import group_by_upload
    from ..online.serving import online_enrich_distributed

    ev_path = f"{sf_dir}/events.parquet"
    tbl = pads.dataset(ev_path, format="parquet").to_table(columns=["ts"])
    ts_ms = tbl["ts"].cast("int64").to_numpy() // 1000  # micros -> millis
    mid = (int(ts_ms.min()) + int(ts_ms.max())) // 2
    batch_end = mid // DAY * DAY  # the midnight seam

    gb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.SUM, "value", windows=[Window(1, TimeUnit.DAYS), Window(-1)]),
            Aggregation(Operation.COUNT, "value", windows=[Window(6, TimeUnit.HOURS)]),
            Aggregation(Operation.MIN, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.MAX, "value"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="online_core",
    )
    # the batch half stays a lazy Dataset (the daily upload artifact); the
    # streaming tail stays lazy too — both ride the serving co-partition
    # shuffle with the queries instead of a driver .to_pandas() + ray.put
    # broadcast (which holds the whole tail+upload per node at scale)
    upload = group_by_upload(gb, batch_end)
    # both sides declare their schemas, so the serving exchange probes
    # neither: the stream keeps the read's types with ts as epoch millis
    read = _events_ds(sf_dir, ["user_id", "ts", "value"])
    read_schema = _arrow_schema(read)
    i_ts = read_schema.get_field_index("ts")
    stream = declare_schema(read.map_batches(
        lambda b: b.set_column(i_ts, "ts", pc.divide(b["ts"].cast(pa.int64()), 1000)),
        batch_format="pyarrow",
    ), read_schema.set(i_ts, pa.field("ts", pa.int64())))
    rows = _distinct_user_ts(sf_dir)
    left = declare_schema(
        rows.filter(expr=f"ts >= {batch_end} and ts < {batch_end + DAY}"), _arrow_schema(rows)
    )
    return online_enrich_distributed(
        left, gb, batch_end, upload, stream
    )


# the lambda's exactness property: batch IR + streaming tail == full as-of
# recompute, so the oracle is orthodox point-in-time SQL over all events,
# restricted to the servable day after the seam
ONLINE_SERVING_SQL = f"""
WITH e AS (SELECT user_id, epoch_ms(ts) AS ts, value FROM events),
b AS (SELECT ((CAST(min(ts) AS BIGINT) + CAST(max(ts) AS BIGINT)) // 2)
       // {DAY} * {DAY} AS batch_end FROM e),
q AS (SELECT DISTINCT user_id, ts FROM e, b
      WHERE ts >= batch_end AND ts < batch_end + {DAY}),
p AS (SELECT q.user_id, q.ts, e.value, e.ts AS ets
      FROM q LEFT JOIN e ON e.user_id = q.user_id AND e.ts < q.ts)
SELECT user_id, ts,
  round(sum(value) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}), 6)
    AS value_sum_1d,
  round(sum(value), 6) AS value_sum,
  nullif(count(value) FILTER (WHERE ets >= (ts - {6 * HOUR})//{5 * 60 * 1000}*{5 * 60 * 1000}), 0)
    AS value_count_6h,
  min(value) FILTER (WHERE ets >= (ts - {7 * DAY})//{HOUR}*{HOUR}) AS value_min_7d,
  max(value) AS value_max
FROM p GROUP BY user_id, ts
"""


# ------------------------------------------------------------ log flattening


def _logflatten_fixture(sf_dir: str) -> tuple[str, str]:
    """Deterministic serving-log fixture derived from the events table:
    JSON-encoded key/value blobs under two schema versions (v2 adds a
    ``score`` field) plus rows pointing at an unregistered version ``vX``
    (those must survive with null features).  The log text is built with
    plain string concatenation so the oracle can reproduce the expected
    typed values directly from the events view."""
    import duckdb

    tag = os.path.basename(os.path.normpath(sf_dir))
    root = f"/tmp/raywin_logs_{tag}"
    logs, schemas = f"{root}/logs.parquet", f"{root}/schemas.parquet"
    if not (os.path.exists(logs) and os.path.exists(schemas)):
        os.makedirs(root, exist_ok=True)
        con = duckdb.connect()
        con.execute(
            f"""COPY (
            SELECT 'enrich_v' AS join_name,
              CASE WHEN event_id % 3 = 0 THEN 'v1'
                   WHEN event_id % 3 = 1 THEN 'v2'
                   ELSE 'vX' END AS schema_hash,
              '{{"user_id": ' || user_id || '}}' AS key_json,
              CASE WHEN event_id % 3 = 1 THEN
                '{{"value_sum": ' || CAST(round(value * 100) AS BIGINT)
                  || ', "cnt": ' || (event_id % 7)
                  || ', "score": ' || CAST(round(value * 300) AS BIGINT) || '}}'
              ELSE
                '{{"value_sum": ' || CAST(round(value * 100) AS BIGINT)
                  || ', "cnt": ' || (event_id % 7) || '}}'
              END AS value_json,
              epoch_ms(ts) AS ts,
              strftime(ts, '%Y-%m-%d') AS ds
            FROM '{sf_dir}/events.parquet' WHERE event_id % 4 = 0
            ) TO '{logs}' (FORMAT PARQUET)"""
        )
        con.close()
        import pyarrow.parquet as _pq

        reg = pa.table(
            {
                "schema_hash": pa.array(["v1", "v2"], pa.string()),
                "schema_json": pa.array(
                    [
                        '{"keys": [["user_id", "long"]],'
                        ' "values": [["value_sum", "double"], ["cnt", "long"]]}',
                        '{"keys": [["user_id", "long"]],'
                        ' "values": [["value_sum", "double"], ["cnt", "long"],'
                        ' ["score", "double"]]}',
                    ],
                    pa.string(),
                ),
            }
        )
        _pq.write_table(reg, schemas)
    return logs, schemas


def log_flatten_query(sf_dir: str):
    """Flatten JSON serving logs into a typed feature table with
    schema-version union + null-fill (reference LogFlattenerJob.scala)."""
    from .logflatten import flatten_logs

    logs, schemas = _logflatten_fixture(sf_dir)
    return flatten_logs(logs, schemas, join_name="enrich_v")


# the oracle reconstructs the expected typed values straight from the events
# view with the same deterministic expressions the fixture generator used —
# if the JSON round-trip or the version-union decode mangles anything, the
# value hash diverges
LOG_FLATTEN_SQL = """
WITH e AS (
  SELECT event_id, user_id, epoch_ms(ts) AS tsm, strftime(ts, '%Y-%m-%d') AS ds,
         CAST(round(value * 100) AS BIGINT) AS sv,
         CAST(round(value * 300) AS BIGINT) AS sc
  FROM events WHERE event_id % 4 = 0)
SELECT
  CASE WHEN event_id % 3 = 2 THEN NULL ELSE user_id END AS user_id,
  CASE WHEN event_id % 3 = 2 THEN NULL ELSE CAST(sv AS DOUBLE) END AS value_sum,
  CASE WHEN event_id % 3 = 2 THEN NULL ELSE CAST(event_id % 7 AS BIGINT) END AS cnt,
  CASE WHEN event_id % 3 = 1 THEN CAST(sc AS DOUBLE) ELSE NULL END AS score,
  tsm AS ts, ds,
  CASE WHEN event_id % 3 = 0 THEN 'v1'
       WHEN event_id % 3 = 1 THEN 'v2'
       ELSE 'vX' END AS schema_hash
FROM e
"""


# ------------------------------------------------------- external sources


def external_enrich(sf_dir: str):
    """Join with online external parts resolved offline (reference
    ExternalSourceRegistry.scala:30-120, Extensions.scala:1027-1056,
    Join.scala padExternalFields:90-120): a contextual part (keys pass
    through as features), a pure-handler part replayed as a map_batches
    batch fetch, an offline-capable part riding the PITC kernel as a
    synthetic join part, and an unresolvable part null-padded."""
    from ..api import ContextualSource, ExternalPart, ExternalSource
    from ..stages.external import REGISTRY
    from .join import backfill_join

    def geo_handler(keys: pa.Table) -> pa.Table:
        uid = keys["user_id"].to_numpy()
        return pa.table(
            {
                "region": pa.array(uid % 5, pa.int64()),
                "tier": pa.array(np.where(uid % 2 == 0, "even", "odd")),
            }
        )

    if REGISTRY.get("geo") is None:
        REGISTRY.add("geo", geo_handler, pure=True)

    ogb = GroupBy(
        sources=[_events_source(sf_dir, {"user_id": "user_id", "value": "value"})],
        key_columns=["user_id"],
        aggregations=[
            Aggregation(Operation.COUNT, "value", windows=[Window(7, TimeUnit.DAYS)])
        ],
        accuracy=Accuracy.TEMPORAL,
        name="paycount",
    )
    join = Join(
        left=_events_source(sf_dir, {"event_id": "event_id", "user_id": "user_id"}),
        join_parts=[],
        row_ids=["event_id"],
        online_external_parts=[
            ExternalPart(ContextualSource({"user_id": "long"})),
            ExternalPart(
                ExternalSource(
                    "geo", {"user_id": "long"}, {"region": "long", "tier": "string"}
                )
            ),
            ExternalPart(
                ExternalSource(
                    "payments", {"user_id": "long"}, {}, offline_group_by=ogb
                ),
                prefix="p",
            ),
            ExternalPart(ExternalSource("fraud", {"user_id": "long"}, {"flag": "bool"})),
        ],
        name="external_enrich",
    )
    return backfill_join(join)


EXTERNAL_ENRICH_SQL = f"""
WITH e AS (SELECT event_id, user_id, epoch_ms(ts) AS ts, value FROM events),
c AS (SELECT l.event_id,
        nullif(count(r.value) FILTER (WHERE r.ts < l.ts
              AND r.ts >= (l.ts - {7 * DAY})//{HOUR}*{HOUR}), 0) AS cnt7
      FROM e l LEFT JOIN e r ON r.user_id = l.user_id
      GROUP BY l.event_id, l.ts)
SELECT e.event_id, e.user_id, e.ts,
  e.user_id AS ext_contextual_user_id,
  CAST(e.user_id % 5 AS BIGINT) AS ext_geo_region,
  CASE WHEN e.user_id % 2 = 0 THEN 'even' ELSE 'odd' END AS ext_geo_tier,
  c.cnt7 AS ext_p_payments_value_count_7d,
  CAST(NULL AS BOOLEAN) AS ext_fraud_flag
FROM e JOIN c USING (event_id)
"""


# --------------------------------------------------- consistency / compare


def consistency_compare(sf_dir: str):
    """CompareJob / online-offline-consistency metrics kernel (reference
    stats/CompareMetrics.scala:52-130): the 'online' side is a deterministic
    perturbation of the offline table — every 7th row's score shifted, every
    11th nulled, every 13th event type rewritten — and the metrics must
    localize exactly that drift per field per 6-hour bucket."""
    from ..functions.compare import compare_tables

    base = read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "ts", "value", "event_type"]
    )
    src = _arrow_schema(base)
    eid, etype = src.field("event_id"), src.field("event_type").with_name("etype")

    def to_left(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": b["event_id"],
                "ts": pc.divide(b["ts"].cast(pa.int64()), 1000),
                "score": b["value"],
                "etype": b["event_type"],
            }
        )

    def to_right(b: pa.Table) -> pa.Table:
        eid = b["event_id"].to_numpy()
        val = b["value"].to_numpy(zero_copy_only=False)
        score = pa.array(np.where(eid % 7 == 0, val + 0.5, val), pa.float64())
        score = pc.if_else(pa.array(eid % 11 == 0), pa.nulls(len(b), pa.float64()), score)
        etype = pc.if_else(pa.array(eid % 13 == 0), pa.scalar("ZZ"), b["event_type"])
        return pa.table({"event_id": b["event_id"], "score": score, "etype": etype})

    return compare_tables(
        declare_schema(base.map_batches(to_left, batch_format="pyarrow"),
                       pa.schema([eid, pa.field("ts", pa.int64()), src.field("value").with_name("score"), etype])),
        declare_schema(base.map_batches(to_right, batch_format="pyarrow"),
                       pa.schema([eid, pa.field("score", pa.float64()), etype])),
        keys=["event_id"],
        value_fields=[("score", pa.float64()), ("etype", pa.string())],
        time_column="ts",
        bucket_minutes=360,
    )


CONSISTENCY_SQL = f"""
WITH e AS (SELECT event_id, epoch_ms(ts) AS ts, value, event_type FROM events),
p AS (SELECT ts // {6 * HOUR} * {6 * HOUR} AS ts_bucket,
        value AS ls, event_type AS le,
        CASE WHEN event_id % 11 = 0 THEN NULL
             WHEN event_id % 7 = 0 THEN value + 0.5 ELSE value END AS rs,
        CASE WHEN event_id % 13 = 0 THEN 'ZZ' ELSE event_type END AS re
      FROM e)
SELECT ts_bucket,
  CAST(sum(CASE WHEN ls IS NULL AND rs IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS score_both_null,
  CAST(sum(CASE WHEN ls IS NULL AND rs IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS score_left_null,
  CAST(sum(CASE WHEN ls IS NOT NULL AND rs IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS score_right_null,
  CAST(count(*) AS BIGINT) AS score_total,
  CAST(sum(CASE WHEN ls IS NOT NULL AND rs IS NOT NULL AND ls <> rs THEN 1 ELSE 0 END) AS BIGINT) AS score_mismatch,
  avg(CASE WHEN ls IS NULL OR rs IS NULL OR abs(ls) + abs(rs) = 0 THEN 0.0
       ELSE 2 * abs(ls - rs) / (abs(ls) + abs(rs)) END) AS score_smape,
  quantile_cont(ls - rs, 0.0) AS score_left_minus_right_p0,
  quantile_cont(ls - rs, 0.5) AS score_left_minus_right_p50,
  quantile_cont(ls - rs, 1.0) AS score_left_minus_right_p100,
  CAST(sum(CASE WHEN le IS NULL AND re IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS etype_both_null,
  CAST(sum(CASE WHEN le IS NULL AND re IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS etype_left_null,
  CAST(sum(CASE WHEN le IS NOT NULL AND re IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS etype_right_null,
  CAST(count(*) AS BIGINT) AS etype_total,
  CAST(sum(CASE WHEN le IS NOT NULL AND re IS NOT NULL AND le <> re THEN 1 ELSE 0 END) AS BIGINT) AS etype_mismatch
FROM p GROUP BY ts_bucket
"""


_THS = _texthash_sqls()

# The driver records the first 50 entries: see the module docstring.
ORACLE_QUERIES = {
    # the flagship, then the queries that never had a driver row
    "image_backfill": (image_backfill_small, _image_backfill_sql),
    "image_backfill_skew": (image_backfill_skew_small, _image_backfill_sql),
    "phash_neardup": (phash_neardup_images, _phash_neardup_sql),
    "image_pixel_dedup": (image_pixel_dedup, _image_pixel_dedup_sql),
    "video_frame_sample": (video_frame_sample, _video_frame_sample_sql),
    "audio_window_features": (audio_window_features, _audio_window_features_sql),
    "kmeans_clusters": (kmeans_clusters, _kmeans_sql),
    "tfidf_top_terms": (tfidf_top_terms_docs, TFIDF_SQL),
    "stratified_sample": (stratified_sample_embeddings, _stratified_sample_sql),
    "doc_signals": (doc_signals, _doc_signals_sql),
    "event_type_aggs": (event_type_aggs, EVENT_TYPE_AGGS_SQL),
    "bucketed_ann": (bucketed_ann, BUCKETED_ANN_SQL),
    "drift_stats": (drift_stats_demo, DRIFT_STATS_SQL),
    "list_explode_agg": (list_explode_agg, LIST_EXPLODE_SQL),
    "bootstrap_join": (bootstrap_join, BOOTSTRAP_JOIN_SQL),
    "external_enrich": (external_enrich, EXTERNAL_ENRICH_SQL),
    "consistency_compare": (consistency_compare, CONSISTENCY_SQL),
    "log_flatten": (log_flatten_query, LOG_FLATTEN_SQL),
    "online_serving": (online_serving, ONLINE_SERVING_SQL),
    "neardup_jaccard": (neardup_jaccard_docs, _neardup_jaccard_sql),
    "neardup_cosine": (neardup_cosine_pairs, NEARDUP_COSINE_SQL),
    "label_join": (label_join_training, LABEL_JOIN_SQL),
    "chained_join": (chained_join_features, CHAINED_JOIN_SQL),
    "asof_histograms": (asof_histograms, ASOF_HISTOGRAMS_SQL),
    "snapshot_entities": (snapshot_entities_daily, _snapshot_entities_sql),
    "staging_query": (staging_query_revenue, STAGING_SQL),
    "summary_stats": (summary_stats_lineitem, SUMMARY_STATS_SQL),
    "session_stats": (session_stats_30m, SESSION_STATS_SQL),
    "asof_ops": (asof_ops, ASOF_OPS_SQL),
    "model_scores": (model_scores, MODEL_SCORES_SQL),
    "event_sequence": (event_sequence, EVENT_SEQUENCE_SQL),
    "range_join": (range_join_windows, RANGE_JOIN_SQL),
    "snapshot_daily": (snapshot_daily, SNAPSHOT_SQL),
    "join_enrich": (join_enrich, JOIN_ENRICH_SQL),
    "q1_pricing_summary": (q1_pricing_summary, Q1_SQL),
    "q3_top_revenue": (q3_top_revenue, Q3_SQL),
    "dedup_exact": (dedup_exact_docs, DEDUP_EXACT_SQL),
    "pii_scrub": (pii_scrub_docs, PII_SCRUB_SQL),
    "paragraph_dedup": (paragraph_dedup_docs, PARAGRAPH_DEDUP_SQL),
    "duplicate_spans": (duplicate_spans_docs, DUPLICATE_SPANS_REMOVAL_SQL),
    "doc_chunks": (doc_chunks, DOC_CHUNKS_SQL),
    "outlier_flags": (outlier_flags, OUTLIER_FLAGS_SQL),
    "token_pack": (token_pack_docs, TOKEN_PACK_SQL),
    "user_trend": (user_trend, USER_TREND_SQL),
    "lm_quality": (lm_quality_docs, LM_QUALITY_SQL),
    "decontaminate": (decontaminate_docs, DECONTAMINATE_SQL),
    "ann_cosine_topk": (ann_cosine_topk, ANN_SQL),
    "minhash_clusters": (minhash_clusters_docs, _THS["minhash_clusters"]),
    "langid_quality": (langid_docs, _THS["langid_quality"]),
    "temporal_entities": (temporal_entities_demo, _temporal_entities_sql),
}
