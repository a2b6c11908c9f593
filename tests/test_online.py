"""Online lambda stack: upload + fetcher vs the offline kernel, seam
exactness, tiled streaming with late events, distributed enrichment."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from raywin.api import (
    Accuracy,
    Aggregation,
    EventSource,
    GroupBy,
    MILLIS_5MIN,
    MILLIS_DAY,
    Operation,
    Query,
    TimeUnit,
    Window,
)
from raywin.aggregator.windowing import NaiveOracle
from raywin.online import Fetcher, TileAggregator, group_by_upload, load_upload

HOUR = 3600 * 1000
DAY = MILLIS_DAY
BASE = (1_700_000_000_000 // DAY) * DAY  # midnight-aligned epoch
BATCH_END = BASE + 4 * DAY


def _events(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 8, n).astype(str),
            "ts": BASE + rng.integers(0, 5 * DAY, n),
            "v": rng.normal(10, 4, n).round(3),
            "cat": rng.choice(list("abc"), n),
        }
    )
    df.loc[rng.random(n) < 0.05, "v"] = np.nan
    return df.sort_values("ts", kind="stable").reset_index(drop=True)


@pytest.fixture(scope="module")
def online_fixture(tmp_path_factory):
    df = _events()
    path = str(tmp_path_factory.mktemp("online") / "events.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)
    gb = GroupBy(
        sources=[EventSource(table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "v", windows=[Window(6, TimeUnit.HOURS)]),
            Aggregation(Operation.AVERAGE, "v", windows=[Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.MIN, "v"),
            Aggregation(Operation.LAST_K, "v", arg_map={"k": 3}, windows=[Window(12, TimeUnit.HOURS)]),
            Aggregation(Operation.UNIQUE_COUNT, "cat", windows=[Window(3, TimeUnit.DAYS)]),
            Aggregation(Operation.HISTOGRAM, "cat", windows=[Window(1, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="online_gb",
    )
    return df, path, gb


def _queries(df, n=60, seed=9):
    """(key, ts) points inside the servable range [BATCH_END, BATCH_END+1d)."""
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "k": rng.integers(0, 8, n).astype(str),
            "ts": BATCH_END + rng.integers(1, DAY, n),
        }
    )


def _expected(df, gb, qdf):
    parts = gb.agg_parts()
    oracle = NaiveOracle(parts)
    out = []
    for k, t in zip(qdf["k"], qdf["ts"]):
        sub = df[df["k"] == k]
        events = [
            {"ts": int(r.ts), "v": None if pd.isna(r.v) else float(r.v), "cat": r.cat}
            for r in sub.itertuples()
        ]
        out.append(oracle.aggregate(events, [int(t)])[0])
    return out


def _rows(cols):
    """fetch_batch's {column: values} as one dict per query row."""
    return [dict(zip(cols, vals)) for vals in zip(*cols.values())]


def _check(got_rows, exp_rows, parts):
    for got, exp, i in zip(got_rows, exp_rows, range(len(got_rows))):
        for p in parts:
            g, e = got[p.output_column], exp[p.output_column]
            if e is None:
                assert g is None, (i, p.output_column, g)
            elif isinstance(e, float):
                assert g == pytest.approx(e, rel=1e-9), (i, p.output_column)
            else:
                assert g == e, (i, p.output_column, g, e)


def test_upload_fetch_matches_offline(ray_session, exchange_block_rows, online_fixture):
    """The lambda (batch IR + streaming rows) equals a full recompute — the
    zero-temporal-leakage property at the batch/stream seam."""
    exchange_block_rows(512)
    df, path, gb = online_fixture
    upload = group_by_upload(gb, BATCH_END)
    blob_map = load_upload(upload, ["k"])
    assert len(blob_map) == df["k"].nunique()

    fetcher = Fetcher(gb, BATCH_END, upload=blob_map)
    # feed the FULL event set — the fetcher must drop the pre-seam half
    fetcher.put_events(df)
    assert fetcher.dropped_pre_seam == int((df["ts"] < BATCH_END).sum())

    qdf = _queries(df)
    got = [fetcher.fetch(k, int(t)) for k, t in zip(qdf["k"], qdf["ts"])]
    _check(got, _expected(df, gb, qdf), gb.agg_parts())


def test_seam_boundary_exact(ray_session, online_fixture):
    """Events at ts == batch_end_ts belong to streaming exactly once."""
    _, path, gb = online_fixture
    df = pd.DataFrame(
        {
            "k": ["x"] * 3,
            "ts": [BATCH_END - 1, BATCH_END, BATCH_END + 1],
            "v": [1.0, 10.0, 100.0],
            "cat": ["a", "b", "c"],
        }
    )
    import pyarrow.parquet as pq_

    import tempfile, os

    d = tempfile.mkdtemp()
    p = os.path.join(d, "seam.parquet")
    pq_.write_table(pa.Table.from_pandas(df, preserve_index=False), p)
    gb2 = GroupBy(
        sources=[EventSource(table=p, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v"),
            Aggregation(Operation.COUNT, "v", windows=[Window(1, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="seam_gb",
    )
    upload = group_by_upload(gb2, BATCH_END)
    fetcher = Fetcher(gb2, BATCH_END, upload=load_upload(upload, ["k"]))
    fetcher.put_events(df)
    row = fetcher.fetch("x", BATCH_END + 2)
    assert row["v_sum"] == pytest.approx(111.0)  # each event exactly once
    assert row["v_count_1d"] == 3


def test_tiled_streaming_matches_offline(ray_session, exchange_block_rows, online_fixture):
    exchange_block_rows(512)
    df, path, gb = online_fixture
    upload = group_by_upload(gb, BATCH_END)
    fetcher = Fetcher(gb, BATCH_END, upload=load_upload(upload, ["k"]))
    tiles = TileAggregator(gb, tile_ms=MILLIS_5MIN, allowed_lateness_ms=HOUR,
                           batch_end_ts=BATCH_END)
    # stream up to a cutoff; serving queries live at/after the watermark
    cutoff = BATCH_END + 12 * HOUR
    stream = df[(df["ts"] >= BATCH_END) & (df["ts"] < cutoff)].sort_values(
        "ts", kind="stable"
    )
    for i in range(0, len(stream), 300):  # in-order micro-batches
        tiles.process_batch(stream.iloc[i : i + 300])
    assert tiles.late_count == 0
    fetcher.attach_tiles(tiles)
    # state compaction happened: sealed tiles exist, raw head is bounded
    assert tiles.sealed_until is not None and any(len(keys) for keys, _, _ in tiles.sealed)
    qdf = _queries(df)
    qdf = qdf[qdf["ts"] >= tiles.sealed_until].reset_index(drop=True)
    assert len(qdf) > 10
    got = [fetcher.fetch(k, int(t)) for k, t in zip(qdf["k"], qdf["ts"])]
    seen = df[df["ts"] < cutoff]  # batch half + applied streaming rows
    exp = _expected(seen, gb, qdf)
    _check(got, exp, gb.agg_parts())
    _check(_rows(fetcher.fetch_batch(qdf)), exp, gb.agg_parts())


def test_tile_backed_and_raw_row_serving_agree(online_fixture):
    """The same upload and stream served from raw rows (put_events) and
    from sealed tiles + raw head (an attached TileAggregator, lateness 0,
    tile-aligned seam) answer fetch_batch alike: both equal the NaiveOracle,
    and each other exactly except float sums and averages, whose sealed
    tiles fold with reduceat (pairwise summation).  A query behind the
    sealed boundary raises."""
    df, _, gb = online_fixture
    blobs = _local_upload(gb, df, BATCH_END)
    raw = Fetcher(gb, BATCH_END, upload=blobs)
    tiled = Fetcher(gb, BATCH_END, upload=blobs)
    tiles = TileAggregator(gb, tile_ms=MILLIS_5MIN, allowed_lateness_ms=0,
                           batch_end_ts=BATCH_END)
    tiled.attach_tiles(tiles)
    cutoff = BATCH_END + 14 * HOUR
    stream = df[(df["ts"] >= BATCH_END) & (df["ts"] < cutoff)]
    for i in range(0, len(stream), 250):
        raw.put_events(stream.iloc[i:i + 250])
        tiles.process_batch(stream.iloc[i:i + 250])
    assert tiles.late_count == 0 and any(len(keys) for keys, _, _ in tiles.sealed)
    qdf = _queries(df)
    qdf = pd.concat([
        qdf[qdf["ts"] >= tiles.sealed_until],
        pd.DataFrame({"k": list("0123"), "ts": [tiles.sealed_until] * 4}),
    ], ignore_index=True)
    assert len(qdf) > 10
    parts = gb.agg_parts()
    exp = _expected(df[df["ts"] < cutoff], gb, qdf)
    got_raw, got_tiled = raw.fetch_batch(qdf), tiled.fetch_batch(qdf)
    _check(_rows(got_raw), exp, parts)
    _check(_rows(got_tiled), exp, parts)
    for p in parts:
        r, t = got_raw[p.output_column], got_tiled[p.output_column]
        if p.operation in (Operation.SUM, Operation.AVERAGE):
            assert t == pytest.approx(r, rel=1e-12), p.output_column
        else:
            assert t == r, p.output_column
    behind = pd.DataFrame({"k": ["0"], "ts": [tiles.sealed_until - 1]})
    with pytest.raises(ValueError, match="sealed boundary"):
        tiled.fetch_batch(behind)
    with pytest.raises(ValueError, match="sealed boundary"):
        tiled.fetch("0", tiles.sealed_until - 1)


def test_late_events_counted_not_applied():
    gb = GroupBy(
        sources=[],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "v")],
        accuracy=Accuracy.TEMPORAL,
        name="late_gb",
    )
    tiles = TileAggregator(gb, tile_ms=MILLIS_5MIN, allowed_lateness_ms=0)
    t0 = BASE
    tiles.process_batch(pd.DataFrame({"k": ["a"], "ts": [t0 + 30 * MILLIS_5MIN], "v": [1.0]}))
    # watermark = t0+30 tiles sealed through there; this event is 2 tiles old
    tiles.process_batch(pd.DataFrame({"k": ["a"], "ts": [t0 + 28 * MILLIS_5MIN], "v": [100.0]}))
    assert tiles.late_count == 1
    row = tiles.query("a", t0 + 31 * MILLIS_5MIN)
    assert row["v_sum"] == pytest.approx(1.0)  # late row never applied


def test_online_enrich_distributed(ray_session, exchange_block_rows, online_fixture):
    """online_enrich_distributed (three-side co-partition shuffle) == full
    NaiveOracle recompute: the upload table and the streaming tail stay
    distributed."""
    import ray.data

    from raywin.online.serving import online_enrich_distributed

    exchange_block_rows(256)
    df, path, gb = online_fixture
    upload = group_by_upload(gb, BATCH_END)
    stream = ray.data.from_pandas(df[["k", "ts", "v", "cat"]])  # kernel seam-filters
    qdf = _queries(df, n=40)
    out = online_enrich_distributed(
        ray.data.from_pandas(qdf), gb, BATCH_END, upload, stream
    ).to_pandas()
    assert len(out) == len(qdf)
    out = out.set_index(["k", "ts"])
    got = [out.loc[(k, t)].to_dict() for k, t in zip(qdf["k"], qdf["ts"])]

    def py(v):
        # the output is Arrow with the offline kernel's types: to_pandas
        # turns null into nan, list<T> cells into arrays and map cells into
        # lists of (key, value) pairs
        if isinstance(v, float) and v != v:
            return None
        if isinstance(v, np.ndarray):
            return v.tolist()
        return dict(v) if isinstance(v, list) else v

    got = [{c: py(v) for c, v in r.items()} for r in got]
    _check(got, _expected(df, gb, qdf), gb.agg_parts())


def test_serving_kernel_output_schema(ray_session, exchange_block_rows, online_fixture):
    """ServingKernel returns one typed Arrow table, the offline kernel's
    feature types, and a partition with no query rows returns the same schema
    with zero rows."""
    import ray

    from raywin.online.serving import ServingKernel

    from .test_co_partition import bucket_of

    exchange_block_rows(1024)
    df, path, gb = online_fixture
    upload = pa.concat_tables(ray.get(group_by_upload(gb, BATCH_END).to_arrow_refs()))
    stream = pa.Table.from_pandas(df[df["ts"] >= BATCH_END][["k", "ts", "v", "cat"]], preserve_index=False)
    queries = pa.Table.from_pandas(_queries(df, n=10), preserve_index=False)
    want = pa.schema([
        ("k", pa.string()),
        ("ts", pa.int64()),
        ("v_sum_1d", pa.float64()),
        ("v_count_6h", pa.int64()),
        ("v_average_2d", pa.float64()),
        ("v_min", pa.float64()),
        ("v_last3_12h", pa.list_(pa.float64())),
        ("cat_unique_count_3d", pa.int64()),
        ("cat_histogram_1d", pa.map_(pa.string(), pa.int64())),
    ])
    kernel = ServingKernel(gb, BATCH_END, ["k", "ts"])
    got = kernel(bucket_of(queries, upload, stream))
    assert got.schema == want and got.num_rows == 10
    empty = kernel(bucket_of(queries.slice(0, 0), upload, stream))
    assert empty.schema == want and empty.num_rows == 0


def test_lambda_aggregate_many_bitwise(ray_session, exchange_block_rows, online_fixture):
    """lambda_aggregate_many (hop-memoized bases + shared incremental event
    fold) must be bitwise-identical to per-row lambda_aggregate across every
    op, key, and window shape — including empty windows, pre-window queries,
    unbounded parts, and keys with no batch IR / no tail."""
    from raywin.online.upload import read_ir

    exchange_block_rows(512)
    df, path, gb = online_fixture
    upload = group_by_upload(gb, BATCH_END)
    blob_map = load_upload(upload, ["k"])
    agg = Fetcher(gb, BATCH_END, upload=blob_map).agg
    in_cols = {p.input_column for p in agg.parts}
    tail = df[df["ts"] >= BATCH_END].sort_values("ts", kind="stable")
    rng = np.random.default_rng(17)
    for key in list(blob_map)[:4] + [("no_such_key",)]:
        k = key[0]
        sub = tail[tail["k"] == k]
        ts_arr = sub["ts"].to_numpy(dtype=np.int64)
        rows = {c: sub[c].to_numpy() for c in in_cols if c in sub.columns}
        ir = read_ir(blob_map.get(key), agg.columns)
        # 200 query points: dense inside the servable day, a few before the
        # seam (empty stream windows) and far future (all tiles expired)
        qts = np.concatenate([
            BATCH_END + rng.integers(1, DAY, 180),
            [BATCH_END - HOUR, BATCH_END, BATCH_END + 40 * DAY],
            BATCH_END + rng.integers(1, DAY, 17),
        ]).astype(np.int64)
        many = agg.lambda_aggregate_many(ir, ts_arr, rows, qts)
        for i, q in enumerate(qts):
            one = agg.lambda_aggregate(ir, ts_arr, rows, int(q))
            for p in agg.parts:
                assert many[p.output_column][i] == one[p.output_column], (
                    k, int(q), p.output_column)


def test_load_upload_count_gate(ray_session, exchange_block_rows, online_fixture):
    """load_upload refuses to materialize an upload table above max_rows —
    no caller can broadcast an unbounded IR state by default."""
    exchange_block_rows(1024)
    df, path, gb = online_fixture
    upload_ds = group_by_upload(gb, BATCH_END)
    with pytest.raises(ValueError, match="online_enrich_distributed"):
        load_upload(upload_ds, ["k"], max_rows=1)
    # explicit raise works, and the DataFrame fast path gates too
    m = load_upload(group_by_upload(gb, BATCH_END), ["k"])
    assert len(m) > 1
    updf = pd.DataFrame({"k": list("abc"), "__batch_ir": [b"x", b"y", b"z"]})
    with pytest.raises(ValueError, match="max_rows"):
        load_upload(updf, ["k"], max_rows=2)


def test_image_serving_lambda_matches_asof_oracle(ray_session, exchange_block_rows, tmp_path):
    """The image-table serving lambda (bench 10x-tail leg) is exact: batch
    IR + streaming tail == plain point-in-time recompute over all events."""
    import duckdb

    from raywin.pipelines.images import image_serving_lambda
    from raywin.stages.images import generate_image_events

    exchange_block_rows(128)
    path = str(tmp_path / "imgserv")
    generate_image_events(path, 1200, 60, files=2)
    out = image_serving_lambda(path).to_pandas()
    assert len(out) > 0

    DAY, HOUR = 86_400_000, 3_600_000
    FIVE = 5 * 60 * 1000
    con = duckdb.connect()
    con.execute(f"CREATE VIEW ev AS SELECT image_id, ts, views, score FROM '{path}/*.parquet'")
    oracle = con.execute(f"""
        WITH b AS (SELECT ((CAST(min(ts) AS BIGINT) + CAST(max(ts) AS BIGINT)) // 2)
                    // {DAY} * {DAY} AS batch_end FROM ev),
        q AS (SELECT DISTINCT image_id, ts FROM ev, b
              WHERE ts >= batch_end AND ts < batch_end + {DAY}),
        p AS (SELECT q.image_id, q.ts, e.views, e.score, e.ts AS ets
              FROM q LEFT JOIN ev e ON e.image_id = q.image_id AND e.ts < q.ts)
        SELECT image_id, ts,
          sum(views) FILTER (WHERE ets >= (ts - {DAY})//{HOUR}*{HOUR}) AS views_sum_1d,
          sum(views) AS views_sum,
          nullif(count(views) FILTER (WHERE ets >= (ts - 6*{HOUR})//{FIVE}*{FIVE}), 0)
            AS views_count_6h,
          max(score) FILTER (WHERE ets >= (ts - 7*{DAY})//{HOUR}*{HOUR}) AS score_max_7d
        FROM p GROUP BY image_id, ts
    """).df()
    m = oracle.merge(out, on=["image_id", "ts"], suffixes=("_o", ""))
    assert len(m) == len(oracle) == len(out)
    for c in ("views_sum_1d", "views_sum", "views_count_6h", "score_max_7d"):
        x = m[c + "_o"].astype(float)
        y = m[c].astype(float)
        assert ((x.isna() & y.isna()) | (abs(x - y) < 1e-9)).all(), c


# ---------------------------------------------------------------------------
# Property sweep: lambda_aggregate_many vs lambda_aggregate across random
# window shapes (5min/1h/1d tail hops + unbounded), random seam positions,
# and random event streams — pins the vectorized serving path the way the
# offline kernel is pinned (mirrors aggregator/src/test/scala/ai/chronon/
# aggregator/test/SawtoothOnlineAggregatorTest.scala's config sweep).
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_OPS = [
    (Operation.SUM, {}),
    (Operation.COUNT, {}),
    (Operation.AVERAGE, {}),
    (Operation.MIN, {}),
    (Operation.MAX, {}),
    (Operation.LAST_K, {"k": 2}),
    (Operation.UNIQUE_COUNT, {}),
]

_WINDOWS = st.sampled_from(
    [None]  # unbounded
    + [Window(h, TimeUnit.HOURS) for h in (1, 7, 11)]      # 5-min tail hop (<12h)
    + [Window(h, TimeUnit.HOURS) for h in (13, 36)]        # 1-hour tail hop
    + [Window(d, TimeUnit.DAYS) for d in (3, 15)]          # 1h / 1-day tail hop
)


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(_OPS), _WINDOWS), min_size=1, max_size=4
    ),
    n_events=st.integers(0, 250),
    seam_slot=st.integers(0, 24 * 12 * 6),  # 5-min slots over ~6 days
    seed=st.integers(0, 2**31),
)
def test_lambda_aggregate_many_property_sweep(specs, n_events, seam_slot, seed):
    from raywin.online.serving import SawtoothOnlineAggregator
    from raywin.online.upload import IR_COL, UploadKernel, read_ir

    rng = np.random.default_rng(seed)
    batch_end = BASE + DAY + seam_slot * MILLIS_5MIN
    aggs = [
        Aggregation(op, "v", windows=[w] if w else [Window(-1)], arg_map=am)
        for (op, am), w in specs
    ]
    gb = GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k"],
        aggregations=aggs,
        accuracy=Accuracy.TEMPORAL,
        name="sweep_gb",
    )
    parts = gb.agg_parts()
    ts = np.sort(BASE + rng.integers(0, 8 * DAY, n_events))
    vals = rng.normal(5, 3, n_events).round(3)
    vals[rng.random(n_events) < 0.1] = np.nan
    # batch IR straight from the (driver-local) upload kernel
    pre = ts < batch_end
    tbl = pa.table(
        {
            "k": pa.array(np.repeat("key", int(pre.sum()))),
            "ts": pa.array(ts[pre], pa.int64()),
            "v": pa.array(vals[pre]),
        }
    )
    kernel = UploadKernel(
        ["k"], parts, batch_end, 2 * DAY, [pa.field("k", pa.string())]
    )
    out = kernel(tbl)
    ir = read_ir(out[IR_COL][0].as_py(), [p.output_column for p in parts]) if out.num_rows else None
    # streaming tail
    post = ts >= batch_end
    ts_arr = ts[post].astype(np.int64)
    rows = {"v": vals[post]}
    if len(ts_arr) == 0:
        ts_arr, rows = None, None
    agg = SawtoothOnlineAggregator(gb, batch_end)
    qts = np.unique(
        np.concatenate(
            [
                [batch_end - HOUR, batch_end, batch_end + 2 * DAY + HOUR],
                batch_end + rng.integers(0, 2 * DAY, 25),
            ]
        ).astype(np.int64)
    )
    many = agg.lambda_aggregate_many(ir, ts_arr, rows, qts)
    for i, q in enumerate(qts):
        one = agg.lambda_aggregate(ir, ts_arr, rows, int(q))
        for p in agg.parts:
            assert many[p.output_column][i] == one[p.output_column], (
                int(q) - batch_end,
                p.output_column,
            )


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 400),
    n_segs=st.integers(1, 12),
    dtype=st.sampled_from(["f", "i", "o", "s"]),
    seed=st.integers(0, 2**31),
)
def test_fold_segments_matches_sequential_fold(n, n_segs, dtype, seed):
    """ScalarOp.fold_segments never returns None and equals the sequential
    prepare/update fold on every segment: the reduceat overrides to 1e-9 rel
    on floats (pairwise vs sequential summation), the default fold (object
    arrays, object IRs) exactly."""
    from raywin.aggregator.scalar_ops import (
        Average, Count, First, Histogram, Last, LastK, Max, Min, Sum, UniqueCount,
    )

    rng = np.random.default_rng(seed)
    ts = np.sort(rng.integers(0, 10**6, n)).astype(np.int64)
    vals = (
        rng.normal(0, 9, n).round(3)
        if dtype == "f"
        else rng.integers(-50, 50, n).astype(np.int64)
    )
    if dtype == "o":  # Python ints: the vectorized ops' default path
        vals = vals.astype(object)
    elif dtype == "s":
        vals = np.array([f"s{v}" for v in vals.tolist()], dtype=object)
    if n == 0:  # kernel derives starts from run boundaries: empty -> empty
        starts = np.zeros(0, dtype=np.int64)
    else:
        starts = np.unique(rng.integers(0, n, min(n_segs, n)))
        starts[0] = 0
    ends = np.append(starts[1:], n)
    ops = [Sum(), Count(), Min(), Max(), First(), Last(), LastK(3), UniqueCount(), Histogram()]
    if dtype != "s":
        ops.append(Average())
    for op in ops:
        got = op.fold_segments(vals, ts, starts)
        assert got is not None and len(got) == len(starts), type(op).__name__
        for g, s, e in zip(got, starts, ends):
            fe = _sequential(op, None, vals[s:e], ts[s:e], [e - s])[0]
            fg = op.finalize(g)
            if isinstance(fe, float):
                assert fg == pytest.approx(fe, rel=1e-9, nan_ok=True)
            else:
                assert fg == fe, (type(op).__name__, s, e)


@pytest.mark.parametrize("kind", ["int64", "int32", "float", "float32", "str", "mixed"])
def test_approx_unique_count_fold_segments_registers(kind, monkeypatch):
    """ApproxUniqueCount.fold_segments gives registers byte-identical to the
    sequential fold.  Int, float and all-str columns are hashed in one
    call, with no per-value prepare/update; a mixed object column, where one
    call would hash the ints as strings, keeps the sequential fold."""
    from raywin.aggregator.scalar_ops import ApproxUniqueCount, ScalarOp

    rng = np.random.default_rng(3)
    n = 3000
    ints = rng.integers(-(10**6), 10**6, n)
    vals = {
        "int64": ints,
        "int32": ints.astype(np.int32),
        "float": np.concatenate([rng.normal(0, 1e3, n - 4), [0.0, -0.0, np.inf, -np.inf]]),
        "float32": rng.normal(0, 1e3, n).astype(np.float32),
        "str": np.array([f"s{v}" for v in ints.tolist()], dtype=object),
        "mixed": np.array([v if v % 3 else f"{v}" for v in ints.tolist()], dtype=object),
    }[kind]
    ts = np.arange(n, dtype=np.int64)
    starts = np.unique(np.concatenate([[0], rng.integers(0, n, 40)]))
    op = ApproxUniqueCount()
    want = [sk.registers.tobytes() for sk in ScalarOp.fold_segments(op, vals, ts, starts)]
    if kind != "mixed":
        monkeypatch.setattr(ApproxUniqueCount, "prepare", None)
        monkeypatch.setattr(ApproxUniqueCount, "update", None)
    got = [sk.registers.tobytes() for sk in op.fold_segments(vals, ts, starts)]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_hash64_float32_hashes_each_value_as_float64(n):
    """A float32 array hashes each value as its float64 widening: odd
    lengths do not raise and even lengths do not hash pairs of values as
    one."""
    from raywin.aggregator.sketches import hash64

    vals = np.random.default_rng(n).normal(0, 1e3, n).astype(np.float32)
    want = hash64(vals.astype(np.float64))
    assert np.array_equal(hash64(vals), want)
    assert [hash64([v])[0] for v in vals] == want.tolist()


def test_approx_unique_count_clone_is_independent(monkeypatch):
    """ApproxUniqueCount.clone copies the registers byte for byte, without
    the deep copy of ScalarOp's default clone, and updating or merging into
    the clone leaves the original as it was."""
    import copy

    from raywin.aggregator.scalar_ops import ApproxUniqueCount

    monkeypatch.setattr(copy, "deepcopy", None)
    op = ApproxUniqueCount()
    ir = op.fold_segments(np.arange(50), np.arange(50), np.array([0]))[0]
    before = ir.registers.tobytes()
    twin = op.clone(ir)
    assert type(twin) is type(ir) and twin.lgk == ir.lgk
    assert twin.registers.tobytes() == before
    op.merge(op.update(twin, 10**9), op.prepare("x"))
    assert twin.registers.tobytes() != before
    assert ir.registers.tobytes() == before


# ---------------------------------------------------------------------------
# ScalarOp.scan: the running fold the serving lambda answers each hop group
# with.  Pinned bitwise (== plus the sign of float zeros) against the
# sequential prepare/update/finalize fold it replaces.
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    import math

    if isinstance(a, float) and isinstance(b, float) and a == 0 == b:
        return math.copysign(1, a) == math.copysign(1, b)
    return a == b


def _sequential(op, acc, vals, ts, stops):
    import copy

    acc = copy.deepcopy(acc)
    out, j = [], 0
    for stop in stops:
        while j < stop:
            v, t = vals[j], int(ts[j])
            acc = op.prepare(v, t) if acc is None else op.update(acc, v, t)
            j += 1
        out.append(None if acc is None else copy.deepcopy(op.finalize(acc)))
    return out


_ZEROS_AND_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=150, deadline=None)
@given(
    op_name=st.sampled_from(["sum", "count", "average", "min", "max", "last_k", "unique_count"]),
    dtype=st.sampled_from(["f", "i"]),
    data=st.data(),
)
def test_scan_matches_sequential_fold(op_name, dtype, data):
    import copy

    from raywin.aggregator.scalar_ops import (
        Average, Count, LastK, Max, Min, Sum, UniqueCount,
    )

    op = {
        "sum": Sum(), "count": Count(), "average": Average(), "min": Min(),
        "max": Max(), "last_k": LastK(3), "unique_count": UniqueCount(),
    }[op_name]
    elem = _ZEROS_AND_FLOATS if dtype == "f" else st.integers(-10**6, 10**6)
    vals = np.array(
        data.draw(st.lists(elem, max_size=40)),
        dtype=np.float64 if dtype == "f" else np.int64,
    )
    ts = np.sort(np.array(data.draw(st.lists(st.integers(0, 50), min_size=len(vals),
                                             max_size=len(vals))), dtype=np.int64))
    stops = np.sort(np.array(data.draw(st.lists(st.integers(0, len(vals)), max_size=12)),
                             dtype=np.int64))
    scalar = st.one_of(st.none(), st.integers(-10**6, 10**6), _ZEROS_AND_FLOATS)
    if op_name in ("sum", "min", "max"):
        acc = data.draw(scalar)
    elif op_name == "count":
        acc = data.draw(st.one_of(st.none(), st.integers(1, 10**6)))
    elif op_name == "average":
        acc = data.draw(st.one_of(
            st.none(),
            st.tuples(_ZEROS_AND_FLOATS, st.integers(1, 100)).map(list),
        ))
    else:  # default path: a base folded from a few values
        acc = None
        for i, v in enumerate(data.draw(st.lists(st.integers(-5, 5), max_size=4))):
            acc = op.prepare(v, -10 + i) if acc is None else op.update(acc, v, -10 + i)
    before = copy.deepcopy(acc)
    got = op.scan(acc, vals, ts, stops)
    want = _sequential(op, acc, vals, ts, stops)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _same(g, w), (g, w)
    assert acc == before  # scan never mutates acc


def test_scan_keeps_the_folds_signed_zero():
    """np.minimum/np.maximum pick a different zero than the fold's strict
    comparison; Min/Max.scan must still return the fold's zero."""
    from raywin.aggregator.scalar_ops import Max, Min

    for op in (Min(), Max()):
        for acc in (None, 0.0, -0.0):
            for vals in ([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0, 1.0, -1.0]):
                vals = np.array(vals)
                ts = np.arange(len(vals), dtype=np.int64)
                stops = np.arange(len(vals) + 1)
                got = op.scan(acc, vals, ts, stops)
                want = _sequential(op, acc, vals, ts, stops)
                assert all(_same(g, w) for g, w in zip(got, want)), (op, acc, vals)


def _composite_gb(aggregations):
    return GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k1", "k2"],
        aggregations=aggregations,
        accuracy=Accuracy.TEMPORAL,
        name="composite_gb",
    )


def test_put_events_interleaved_micro_batches():
    """Out-of-order, time-interleaved micro-batches over a composite key (and
    an all-pre-seam frame) ingest to the same per-key streams as one put of
    the concatenated frame: same fetch answers, same dropped_pre_seam."""
    gb = _composite_gb([
        Aggregation(Operation.SUM, "v", windows=[Window(2, TimeUnit.HOURS)]),
        Aggregation(Operation.COUNT, "v", windows=[Window(13, TimeUnit.HOURS)]),
        Aggregation(Operation.AVERAGE, "v"),
        Aggregation(Operation.LAST_K, "v", arg_map={"k": 3}, windows=[Window(1, TimeUnit.DAYS)]),
        Aggregation(Operation.MAX, "v", windows=[Window(1, TimeUnit.DAYS)]),
    ])
    rng = np.random.default_rng(23)
    n = 900
    df = pd.DataFrame({
        "k1": rng.choice(["a", "b", "c"], n),
        "k2": rng.integers(0, 3, n),
        # coarse ts: many equal-ts ties, order across batches matters
        "ts": BATCH_END - HOUR + rng.integers(0, 30, n) * (5 * 60_000),
        "v": rng.normal(3, 2, n).round(2),
    })
    df.loc[rng.random(n) < 0.05, "v"] = np.nan
    df.loc[rng.random(n) < 0.02, "k1"] = None  # null keys are dropped
    pre_seam = pd.DataFrame({"k1": ["a", "b"], "k2": [0, 1],
                             "ts": [BATCH_END - 5, BATCH_END - HOUR], "v": [1.0, 2.0]})
    parts = [df.iloc[i:i + 90] for i in range(0, n, 90)]
    parts = parts[::2] + [pre_seam] + parts[1::2]  # interleaved in time

    one = Fetcher(gb, BATCH_END)
    one.put_events(pd.concat(parts, ignore_index=True))
    many = Fetcher(gb, BATCH_END)
    for p in parts:
        many.put_events(p)
    assert many.dropped_pre_seam == one.dropped_pre_seam == int((df["ts"] < BATCH_END).sum()) + 2
    assert many._stream.keys() == one._stream.keys()

    q = pd.DataFrame({
        "k1": rng.choice(["a", "b", "c", "zz"], 200),
        "k2": rng.integers(0, 3, 200),
        "ts": BATCH_END + rng.integers(-HOUR, 3 * HOUR, 200),
    })
    got, want = many.fetch_batch(q), one.fetch_batch(q)
    for c in want:
        assert all(_same(g, w) for g, w in zip(got[c], want[c])), c
    # and the batch path equals the per-row reference lambda
    for i, (k1, k2, t) in enumerate(zip(q["k1"], q["k2"], q["ts"])):
        row = one.agg.lambda_aggregate(*one._state((k1, k2)), int(t))
        for c in want:
            assert _same(want[c][i], row[c]), (i, c)


def test_lambda_aggregate_many_nullable_columns_narrow_windows():
    """Nullable object and float columns under windows much shorter than the
    stream (which also holds events before the seam), with queries before
    the seam and past the last event, and a call with only pre-seam
    queries: lambda_aggregate_many equals the per-row reference lambda."""
    from raywin.online.serving import SawtoothOnlineAggregator

    gb = GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.UNIQUE_COUNT, "cat", windows=[Window(1, TimeUnit.HOURS)]),
            Aggregation(Operation.LAST_K, "cat", arg_map={"k": 2}, windows=[Window(13, TimeUnit.HOURS)]),
            Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.HOURS)]),
            Aggregation(Operation.AVERAGE, "v"),
            Aggregation(Operation.MIN, "v", windows=[Window(3, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="nullable_gb",
    )
    rng = np.random.default_rng(41)
    n = 2000
    ts = np.sort(BATCH_END + rng.integers(-DAY, 4 * DAY, n)).astype(np.int64)
    cat = rng.choice(np.array(["x", "y", "z", None], dtype=object), n)
    v = rng.normal(0, 3, n).round(2)
    v[rng.random(n) < 0.2] = np.nan
    agg = SawtoothOnlineAggregator(gb, BATCH_END)
    qts = np.concatenate([
        [BATCH_END - DAY, BATCH_END - 1, BATCH_END, BATCH_END + 5 * DAY],
        BATCH_END + rng.integers(0, 4 * DAY, 60),
    ]).astype(np.int64)
    rows = {"cat": cat, "v": v}
    for qs in (qts, qts[qts < BATCH_END]):
        many = agg.lambda_aggregate_many(None, ts, rows, qs)
        for i, q in enumerate(qs):
            one = agg.lambda_aggregate(None, ts, rows, int(q))
            for c, want in one.items():
                assert _same(many[c][i], want), (len(qs), i, c)


def _local_upload(gb, events, batch_end):
    """{key: blob} of the batch half, built in-process by the upload kernel."""
    from raywin.online.upload import IR_COL, UploadKernel

    pre = events[events["ts"] < batch_end]
    kernel = UploadKernel(gb.key_columns, gb.agg_parts(), batch_end, 2 * DAY,
                          [pa.field("k", pa.string())])
    out = kernel(pa.Table.from_pandas(pre, preserve_index=False))
    return dict(zip(((k,) for k in out["k"].to_pylist()), out[IR_COL].to_pylist()))


def test_fetch_batch_repeated_calls_match_fresh_fetcher():
    """fetch_batch folds the cached, decoded upload IRs (object IRs through
    ScalarOp.clone copies).  Query ts moving forward and back across hops,
    with put_events in between, must answer like a fresh Fetcher every
    time, and the cached IRs must stay equal to a fresh read of their
    blobs (no aliasing into them)."""
    from raywin.online.upload import read_ir

    gb = GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.AVERAGE, "v", windows=[Window(2, TimeUnit.HOURS)]),
            Aggregation(Operation.LAST_K, "v", arg_map={"k": 4}, windows=[Window(13, TimeUnit.HOURS)]),
            Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "v"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="repeat_gb",
    )
    rng = np.random.default_rng(31)
    n = 3000
    events = pd.DataFrame({
        "k": rng.choice(list("pqrs"), n),
        "ts": BATCH_END - 2 * DAY + rng.integers(0, 3 * DAY, n),
        "v": rng.normal(0, 5, n).round(3),
    }).sort_values("ts", kind="stable").reset_index(drop=True)
    blobs = _local_upload(gb, events, BATCH_END)
    stream = events[events["ts"] >= BATCH_END]
    chunks = [stream.iloc[i:i + 200] for i in range(0, len(stream), 200)]
    fetcher = Fetcher(gb, BATCH_END, upload=blobs)
    put = []
    for step in range(40):
        if step % 5 == 0 and chunks:
            put.append(chunks.pop(0))
            fetcher.put_events(put[-1])
        # ts jump back and forth across 5-min, 1-hour and 1-day hops
        centre = BATCH_END + int(rng.integers(0, DAY))
        q = pd.DataFrame({
            "k": rng.choice(list("pqrst"), 12),
            "ts": centre + rng.integers(-2 * HOUR, 2 * HOUR, 12),
        })
        fresh = Fetcher(gb, BATCH_END, upload=blobs)
        for p in put:
            fresh.put_events(p)
        got, want = fetcher.fetch_batch(q), fresh.fetch_batch(q)
        for c in want:
            assert all(_same(g, w) for g, w in zip(got[c], want[c])), (step, c)
    assert fetcher._cache
    for key, row in fetcher._cache.items():
        got = fetcher._irs.ir(row)
        want = read_ir(blobs.get(key), fetcher.agg.columns)
        assert (got is None) == (want is None) == (key not in blobs), key
        assert got == want, key
