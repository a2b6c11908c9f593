"""Property-based EntityKernel check (hypothesis): random CDC timelines
(insert/update/delete over day-partitioned snapshots) vs the per-query
brute-force recompute from test_entities — searching the corners: mutations
exactly at query ts (strict exclusion), empty keys, deletes emptying a key,
window edges on day boundaries."""

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.api import (
    Accuracy,
    Aggregation,
    EntitySource,
    GroupBy,
    Operation,
    Query,
    TimeUnit,
    Window,
)
from raywin.pipelines.entities import EntityKernel
from raywin.stages.shuffle import SIDE_COL
from tests.test_entities import brute_force

DAY = 86400000
BASE = 1_600_000_000_000 - (1_600_000_000_000 % DAY)  # day-aligned anchor
N_DAYS = 3

action = st.tuples(
    st.integers(0, N_DAYS - 1),              # day
    st.sampled_from(["a", "b"]),             # key
    st.sampled_from(["insert", "update", "delete"]),
    st.integers(1, 50),                      # value for insert/update
    st.integers(0, 7),                       # slot index (mod current rows)
    st.integers(0, DAY - 1),                 # mutation time offset in day
)


def replay(initial, actions):
    """Replay drawn actions into (snap_rows, mut_rows) with the same CDC
    conventions as the pytest fixture: updates/deletes carry the ORIGINAL
    row ts; end-of-day snapshots hold the surviving rows."""
    state = {k: list(rows) for k, rows in initial.items()}
    snap_rows, mut_rows = [], []
    by_day: dict[int, list] = {}
    for a in actions:
        by_day.setdefault(a[0], []).append(a)
    for d in range(N_DAYS):
        day_start = BASE + d * DAY
        todo = sorted(by_day.get(d, []), key=lambda a: a[5])
        for _, k, act, val, slot, off in todo:
            mts = day_start + off
            vals = state.setdefault(k, [])
            if act == "insert" or not vals:
                mut_rows.append((k, float(val), mts, mts, False))
                vals.append((float(val), mts))
            elif act == "update":
                i = slot % len(vals)
                old, old_ts = vals[i]
                mut_rows.append((k, old, old_ts, mts, True))
                mut_rows.append((k, float(val), old_ts, mts, False))
                vals[i] = (float(val), old_ts)
            else:
                i = slot % len(vals)
                old, old_ts = vals.pop(i)
                mut_rows.append((k, old, old_ts, mts, True))
        ds = pd.Timestamp(day_start, unit="ms").strftime("%Y-%m-%d")
        for k, vals in state.items():
            for v, cts in vals:
                snap_rows.append((k, v, cts, ds))
    return snap_rows, mut_rows


def run_kernel(snap_rows, mut_rows, queries, parts):
    """Build the tagged/padded union table temporal_entity_features would
    shuffle, run EntityKernel directly (one bucket)."""
    n_q, n_s, n_m = len(queries), len(snap_rows), len(mut_rows)
    n = n_q + n_s + n_m

    def col(vals, typ):
        return pa.array(vals, type=typ)

    k_col = [q[0] for q in queries] + [r[0] for r in snap_rows] + [r[0] for r in mut_rows]
    ts_col = [q[1] for q in queries] + [r[2] for r in snap_rows] + [r[2] for r in mut_rows]
    rating = [None] * n_q + [r[1] for r in snap_rows] + [r[1] for r in mut_rows]
    ds_col = [None] * n_q + [r[3] for r in snap_rows] + [None] * n_m
    mts = [None] * (n_q + n_s) + [r[3] for r in mut_rows]
    before = [None] * (n_q + n_s) + [r[4] for r in mut_rows]
    side = [0] * n_q + [1] * n_s + [2] * n_m
    group = pa.table(
        {
            "k": col(k_col, pa.string()),
            "ts": col(ts_col, pa.int64()),
            "rating": col(rating, pa.float64()),
            "ds": col(ds_col, pa.string()),
            "mutation_ts": col(mts, pa.int64()),
            "is_before": col(before, pa.bool_()),
            SIDE_COL: col(side, pa.int8()),
        }
    )
    return EntityKernel(["k"], parts, ["k", "ts"])(group).to_pandas()


@settings(max_examples=100, deadline=None)
@given(
    init_a=st.lists(st.tuples(st.integers(1, 50), st.integers(0, DAY - 1)),
                    max_size=3),
    actions=st.lists(action, max_size=12),
    query_offsets=st.lists(st.integers(0, N_DAYS * DAY - 1), min_size=1, max_size=8),
    window_days=st.sampled_from([None, 1, 2]),
    tie_query=st.booleans(),
)
def test_entity_kernel_matches_brute_force(
    init_a, actions, query_offsets, window_days, tie_query
):
    initial = {"a": [(float(v), BASE - DAY + off) for v, off in init_a]}
    snap_rows, mut_rows = replay(initial, actions)
    q_ts = [BASE + o for o in query_offsets]
    if tie_query and mut_rows:
        q_ts.append(mut_rows[0][3])  # exactly at a mutation_ts: strict <
    queries = [(k, t) for t in q_ts for k in ("a", "b")]

    win = None if window_days is None else Window(window_days, TimeUnit.DAYS)
    gb = GroupBy(
        sources=[EntitySource(snapshot_table="x", mutation_table="y", query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating", windows=[win] if win else None),
            Aggregation(Operation.COUNT, "rating", windows=[win] if win else None),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="prop_ent",
    )
    parts = gb.agg_parts()
    out = run_kernel(snap_rows, mut_rows, queries, parts)
    out = out.set_index(["k", "ts"])

    win_ms = window_days * DAY if window_days else None
    for k, t in queries:
        exp_s, exp_c = brute_force(snap_rows, mut_rows, k, t, win_ms)
        row = out.loc[(k, t)]
        if isinstance(row, pd.DataFrame):
            row = row.iloc[0]
        got_s, got_c = row.iloc[0], row.iloc[1]
        if exp_c is None or exp_c <= 0:
            # kernel convention: counts driven non-positive by CDC deletes
            # of rows outside base coverage finalize as null, like empty
            assert got_c is None or pd.isna(got_c), (k, t, got_c)
            assert got_s is None or pd.isna(got_s), (k, t, got_s)
        else:
            assert int(got_c) == exp_c, (k, t, got_c, exp_c)
            assert abs(float(got_s) - exp_s) < 1e-9, (k, t, got_s, exp_s)
