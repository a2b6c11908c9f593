"""Temporal/snapshot entity pipelines vs a brute-force oracle over
hand-generated CDC timelines (mirrors MutationsTest.scala:74-134)."""

import numpy as np
import pandas as pd
import pytest

from raywin.api import Accuracy, Aggregation, EntitySource, GroupBy, Operation, Query
from raywin.pipelines.entities import snapshot_entity_features, temporal_entity_features

DAY = 86400000
BASE = pd.Timestamp("2024-03-01").value // 1_000_000


@pytest.fixture(scope="module")
def entity_tables(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    root = tmp_path_factory.mktemp("ent")
    n_keys, n_days = 12, 4
    snap_rows = []
    mut_rows = []
    # per (key, day): snapshot holds the rating rows (value, created_ts) as
    # of that day's END; during each day mutations insert/update/delete —
    # updates/deletes carry the ORIGINAL row ts (CDC convention)
    state: dict[str, list] = {
        str(k): [(float(rng.integers(1, 50)), int(BASE - DAY + rng.integers(0, DAY)))]
        for k in range(n_keys)
    }
    for d in range(n_days):
        day_start = BASE + d * DAY
        # mutations during day d — timestamps drawn sorted so the CDC
        # timeline matches the state-evolution order
        for k in list(state):
            n_mut = rng.integers(0, 4)
            mts_list = sorted(int(day_start + t) for t in rng.integers(0, DAY, n_mut))
            for mts in mts_list:
                action = rng.choice(["insert", "update", "delete"])
                vals = state[k]
                if action == "insert" or not vals:
                    v = float(rng.integers(1, 50))
                    mut_rows.append((k, v, mts, mts, False))
                    vals.append((v, mts))
                elif action == "update":
                    i = rng.integers(0, len(vals))
                    old, old_ts = vals[i]
                    new = float(rng.integers(1, 50))
                    mut_rows.append((k, old, old_ts, mts, True))
                    mut_rows.append((k, new, old_ts, mts, False))
                    vals[i] = (new, old_ts)
                else:
                    i = rng.integers(0, len(vals))
                    old, old_ts = vals.pop(i)
                    mut_rows.append((k, old, old_ts, mts, True))
        # end-of-day snapshot
        ds = pd.Timestamp(day_start, unit="ms").strftime("%Y-%m-%d")
        for k, vals in state.items():
            for v, cts in vals:
                snap_rows.append((k, v, cts, ds))

    snaps = pa.table(
        {
            "k": pa.array([r[0] for r in snap_rows]),
            "rating": pa.array([r[1] for r in snap_rows]),
            "ts": pa.array([r[2] for r in snap_rows], type=pa.int64()),
            "ds": pa.array([r[3] for r in snap_rows]),
        }
    )
    muts = pa.table(
        {
            "k": pa.array([r[0] for r in mut_rows]),
            "rating": pa.array([r[1] for r in mut_rows]),
            "ts": pa.array([r[2] for r in mut_rows], type=pa.int64()),
            "mutation_ts": pa.array([r[3] for r in mut_rows], type=pa.int64()),
            "is_before": pa.array([r[4] for r in mut_rows]),
        }
    )
    pq.write_table(snaps, str(root / "snaps.parquet"))
    pq.write_table(muts, str(root / "muts.parquet"))
    return str(root / "snaps.parquet"), str(root / "muts.parquet"), snap_rows, mut_rows


from raywin.api import TimeUnit, Window


def _gb(snap_path, mut_path):
    return GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, mutation_table=mut_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating"),
            Aggregation(Operation.COUNT, "rating"),
            Aggregation(Operation.AVERAGE, "rating"),
            Aggregation(Operation.SUM, "rating", windows=[Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "rating", windows=[Window(1, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="ent",
    )


def brute_force(snap_rows, mut_rows, k, q_ts, window=None):
    """Per-query recompute: previous-day snapshot + same-day CDC, sawtooth
    window on the row ts."""
    day = (q_ts // DAY) * DAY
    lo = (q_ts - window) // DAY * DAY if window else None
    prev_ds = pd.Timestamp(day - DAY, unit="ms").strftime("%Y-%m-%d")

    def in_win(ts):
        return (lo is None or ts >= lo) and ts < q_ts

    vals = [v for kk, v, ts, ds in snap_rows if kk == k and ds == prev_ds and in_win(ts)]
    s = sum(vals)
    c = len(vals)
    for kk, v, ts, mts, before in mut_rows:
        if kk == k and day <= mts < q_ts and in_win(ts):
            if before:
                s -= v
                c -= 1
            else:
                s += v
                c += 1
    return (s if c else None), (c if c else None)


def test_temporal_entities(ray_session, exchange_block_rows, entity_tables):
    import ray.data

    exchange_block_rows(64)
    snap_path, mut_path, snap_rows, mut_rows = entity_tables
    rng = np.random.default_rng(9)
    n_q = 200
    qk = rng.integers(0, 12, n_q).astype(str)
    # queries on days 1..3 (day 0 has no previous snapshot)
    qts = BASE + DAY + rng.integers(0, 3 * DAY, n_q)
    # exact-tie cases: query at a mutation_ts must exclude that mutation
    for i in range(10):
        k, v, ts, mts, before = mut_rows[i * 3 % len(mut_rows)]
        if mts >= BASE + DAY:
            qk[i] = k
            qts[i] = mts
    left = ray.data.from_pandas(pd.DataFrame({"k": qk, "ts": qts}))
    out = temporal_entity_features(_gb(snap_path, mut_path), left).to_pandas()
    assert len(out) == n_q
    got = {(r["k"], int(r["ts"])): r for _, r in out.iterrows()}
    for k, t in zip(qk, qts):
        s, c = brute_force(snap_rows, mut_rows, k, int(t))
        row = got[(k, int(t))]
        gs, gc, ga = row["rating_sum"], row["rating_count"], row["rating_average"]
        if s is None:
            assert np.isnan(gs) and np.isnan(gc), (k, t, gs, s)
        else:
            assert np.isclose(gs, s), (k, t, gs, s)
            assert gc == c
            assert np.isclose(ga, s / c)
        sw, cw = brute_force(snap_rows, mut_rows, k, int(t), window=2 * DAY)
        gsw = row["rating_sum_2d"]
        if sw is None:
            assert np.isnan(gsw), (k, t, gsw, sw)
        else:
            assert np.isclose(gsw, sw), (k, t, gsw, sw)
        _, c1 = brute_force(snap_rows, mut_rows, k, int(t), window=1 * DAY)
        gc1 = row["rating_count_1d"]
        if c1 is None:
            assert np.isnan(gc1), (k, t, gc1, c1)
        else:
            assert gc1 == c1, (k, t, gc1, c1)


def brute_force_hist(snap_rows, mut_rows, k, q_ts, window=None):
    day = (q_ts // DAY) * DAY
    lo = (q_ts - window) // DAY * DAY if window else None
    prev_ds = pd.Timestamp(day - DAY, unit="ms").strftime("%Y-%m-%d")

    def in_win(ts):
        return (lo is None or ts >= lo) and ts < q_ts

    hist: dict[str, int] = {}
    for kk, v, ts, ds in snap_rows:
        if kk == k and ds == prev_ds and in_win(ts):
            hist[str(v)] = hist.get(str(v), 0) + 1
    for kk, v, ts, mts, before in mut_rows:
        if kk == k and day <= mts < q_ts and in_win(ts):
            hist[str(v)] = hist.get(str(v), 0) + (-1 if before else 1)
    return {kk: c for kk, c in hist.items() if c > 0} or None


def test_temporal_entities_histogram(ray_session, exchange_block_rows, entity_tables):
    """HISTOGRAM is deletable in the reference (map-count decrement,
    SimpleAggregators.scala:311-321) so it runs over CDC mutations too."""
    import ray.data

    exchange_block_rows(64)
    snap_path, mut_path, snap_rows, mut_rows = entity_tables
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, mutation_table=mut_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.HISTOGRAM, "rating"),
            Aggregation(Operation.HISTOGRAM, "rating", windows=[Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.SUM, "rating"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="enth",
    )
    rng = np.random.default_rng(11)
    n_q = 120
    qk = rng.integers(0, 12, n_q).astype(str)
    qts = BASE + DAY + rng.integers(0, 3 * DAY, n_q)
    left = ray.data.from_pandas(pd.DataFrame({"k": qk, "ts": qts}))
    out = temporal_entity_features(gb, left).to_pandas()
    assert len(out) == n_q
    got = {(r["k"], int(r["ts"])): r for _, r in out.iterrows()}

    def to_dict(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return dict(v) if not isinstance(v, dict) else v

    for k, t in zip(qk, qts):
        row = got[(k, int(t))]
        exp_u = brute_force_hist(snap_rows, mut_rows, k, int(t))
        exp_w = brute_force_hist(snap_rows, mut_rows, k, int(t), window=2 * DAY)
        assert to_dict(row["rating_histogram"]) == exp_u, (k, t)
        assert to_dict(row["rating_histogram_2d"]) == exp_w, (k, t)
        # sums still agree when computed alongside the map op
        s, _ = brute_force(snap_rows, mut_rows, k, int(t))
        gs = row["rating_sum"]
        assert (s is None and np.isnan(gs)) or np.isclose(gs, s)


def test_snapshot_entities_full_ops(ray_session, exchange_block_rows, entity_tables):
    """snapshotEntities runs the whole op table in the reference
    (GroupBy.scala:100-142) — spot-check the non-trivial ones."""
    exchange_block_rows(16)
    snap_path, _, snap_rows, _ = entity_tables
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.VARIANCE, "rating"),
            Aggregation(Operation.UNIQUE_COUNT, "rating"),
            Aggregation(Operation.HISTOGRAM, "rating"),
            Aggregation(Operation.TOP_K, "rating", arg_map={"k": 2}),
            Aggregation(Operation.LAST, "rating"),
            Aggregation(Operation.LAST_K, "rating", arg_map={"k": 3}),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap_full",
    )
    out = snapshot_entity_features(gb).to_pandas()
    df = pd.DataFrame(snap_rows, columns=["k", "rating", "ts", "ds"])
    got = {(r["k"], r["ds"]): r for _, r in out.iterrows()}
    for (k, ds), sub in df.groupby(["k", "ds"]):
        row = got[(k, ds)]
        vals = sub["rating"].to_numpy()
        assert np.isclose(row["rating_variance"], vals.var())
        assert row["rating_unique_count"] == len(set(vals))
        exp_hist = {}
        for v in vals:
            exp_hist[str(v)] = exp_hist.get(str(v), 0) + 1
        gh = row["rating_histogram"]
        gh = dict(gh) if not isinstance(gh, dict) else gh
        assert gh == exp_hist
        assert list(row["rating_top2"]) == sorted(vals, reverse=True)[:2]
        srt = sub.sort_values("ts", kind="stable")
        assert row["rating_last"] == srt["rating"].iloc[-1]
        exp_lastk = srt["rating"].iloc[::-1].head(3).tolist()
        assert list(row["rating_last3"]) == exp_lastk


def test_snapshot_entities(ray_session, exchange_block_rows, entity_tables):
    exchange_block_rows(16)
    snap_path, mut_path, snap_rows, _ = entity_tables
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating"),
            Aggregation(Operation.MAX, "rating"),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap_ent",
    )
    out = snapshot_entity_features(gb).to_pandas()
    df = pd.DataFrame(snap_rows, columns=["k", "rating", "ts", "ds"])
    oracle = df.groupby(["k", "ds"]).agg(
        rating_sum=("rating", "sum"), rating_max=("rating", "max")
    ).reset_index()
    merged = oracle.merge(out, on=["k", "ds"], suffixes=("_o", "_g"))
    assert len(merged) == len(oracle) == len(out)
    assert np.allclose(merged["rating_sum_o"], merged["rating_sum_g"])
    assert np.allclose(merged["rating_max_o"], merged["rating_max_g"])


def test_snapshot_entities_all_null_group(ray_session, tmp_path):
    """A (key, ds) group whose values are all null sums to null, as SQL's
    sum() does (DuckDB returns NULL), not to 0.0; it counts 0, and the
    scalar-op fold of a generic op answers null for it too."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = str(tmp_path / "snaps.parquet")
    pq.write_table(pa.table({
        "k": ["a", "a", "b"],
        "rating": pa.array([None, None, 2.0], pa.float64()),
        "ts": pa.array([BASE, BASE + 1, BASE + 2], pa.int64()),
        "ds": ["2024-03-01"] * 3,
    }), path)
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating"),
            Aggregation(Operation.COUNT, "rating"),
            Aggregation(Operation.LAST, "rating"),
        ],
        accuracy=Accuracy.SNAPSHOT,
        name="snap_null",
    )
    out = snapshot_entity_features(gb).to_pandas().set_index("k")
    assert np.isnan(out.loc["a", "rating_sum"]) and out.loc["b", "rating_sum"] == 2.0
    assert out["rating_count"].to_dict() == {"a": 0, "b": 1}
    assert pd.isna(out.loc["a", "rating_last"]) and out.loc["b", "rating_last"] == 2.0


def test_noagg_passthrough_snapshot(ray_session, entity_tables):
    """aggregations=None => keyed passthrough of the scanned snapshot
    (reference GroupBy.scala:137-141)."""
    snap_path, mut_path, snap_rows, _ = entity_tables
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path,
                              query=Query(selects={"k": "k", "rating": "rating", "ds": "ds"}))],
        key_columns=["k"],
        name="dim_pass",
    )
    out = snapshot_entity_features(gb).to_pandas()
    df = pd.DataFrame(snap_rows, columns=["k", "rating", "ts", "ds"])
    assert sorted(out.columns) == ["ds", "k", "rating"]
    assert len(out) == len(df)
    a = out.sort_values(["k", "ds", "rating"]).reset_index(drop=True)
    b = df[["k", "rating", "ds"]].sort_values(["k", "ds", "rating"]).reset_index(drop=True)
    assert np.allclose(a["rating"], b["rating"]) and (a["k"].values == b["k"].values).all()


def test_accuracy_inference():
    """Explicit accuracy wins; topic/mutation feed => TEMPORAL; batch-only =>
    SNAPSHOT (reference Extensions.scala:478-487)."""
    from raywin.api import EventSource

    ev_batch = GroupBy(sources=[EventSource(table="/tmp/x.parquet")], key_columns=["k"])
    assert ev_batch.inferred_accuracy is Accuracy.SNAPSHOT
    ev_stream = GroupBy(
        sources=[EventSource(table="/tmp/x.parquet", topic="events_topic")], key_columns=["k"]
    )
    assert ev_stream.inferred_accuracy is Accuracy.TEMPORAL
    ent_cdc = GroupBy(
        sources=[EntitySource(snapshot_table="/tmp/s.parquet", mutation_table="/tmp/m.parquet")],
        key_columns=["k"],
    )
    assert ent_cdc.inferred_accuracy is Accuracy.TEMPORAL
    explicit = GroupBy(
        sources=[EventSource(table="/tmp/x.parquet", topic="t")],
        key_columns=["k"],
        accuracy=Accuracy.SNAPSHOT,
    )
    assert explicit.inferred_accuracy is Accuracy.SNAPSHOT


def test_noagg_rejected_on_query_path():
    from raywin.api import EventSource
    from raywin.pipelines.group_by import features_for_queries

    gb = GroupBy(sources=[EventSource(table="/tmp/x.parquet")], key_columns=["k"], name="nak")
    with pytest.raises(ValueError, match="no aggregations"):
        features_for_queries(gb, None)


def test_temporal_entities_output_schema(ray_session, exchange_block_rows, entity_tables):
    """EntityKernel returns one typed Arrow table: left columns keep their
    Arrow types, SUM/COUNT/AVERAGE parts are float64 and HISTOGRAM parts
    map<string,int64>; a partition with no query rows returns the same
    schema with zero rows."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from raywin.pipelines.entities import EntityKernel

    from .test_co_partition import bucket_of

    snap_path, mut_path, _, _ = entity_tables
    gb = GroupBy(
        sources=[EntitySource(snapshot_table=snap_path, mutation_table=mut_path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "rating", windows=[Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "rating"),
            Aggregation(Operation.HISTOGRAM, "rating"),
            Aggregation(Operation.AVERAGE, "rating"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="ent_schema",
    )
    left = pa.table({
        "k": ["1", "2", "3"],
        "ts": pa.array([BASE + DAY + 5] * 3, pa.int64()),
        "w": pa.array([1, None, 3], pa.int32()),
    })
    want = pa.schema(list(left.schema) + [
        ("rating_sum_2d", pa.float64()),
        ("rating_count", pa.float64()),
        ("rating_histogram", pa.map_(pa.string(), pa.int64())),
        ("rating_average", pa.float64()),
    ])
    # 161 exchange rows in 10-row blocks: most partitions hold snapshot rows
    # and no query
    exchange_block_rows(10)
    out = temporal_entity_features(gb, ray.data.from_arrow(left)).materialize()
    assert out.schema().base_schema == want
    assert sorted(out.to_pandas()["w"].fillna(0).astype(int)) == [0, 1, 3]

    kernel = EntityKernel(["k"], gb.agg_parts(), left.column_names)
    snaps, muts = pq.read_table(snap_path), pq.read_table(mut_path)
    got = kernel(bucket_of(left, snaps, muts))
    assert got.schema == want and got.num_rows == 3
    empty = kernel(bucket_of(left.slice(0, 0), snaps, muts))
    assert empty.schema == want and empty.num_rows == 0
