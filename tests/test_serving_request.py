"""One lambda pass per request: Fetcher.fetch_batch and ServingKernel answer
all of a request's keys with one SawtoothOnlineAggregator.lambda_aggregate_many
call, bitwise equal to the per-row reference lambda; the segmented scan
pads within its bound on a hot key; a TileAggregator keeps only the tiles a
query can still reach."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.api import (
    MILLIS_5MIN, MILLIS_DAY, Accuracy, Aggregation, EventSource, GroupBy, Operation, Query,
    TimeUnit, Window,
)
from raywin.aggregator.windowing import NaiveOracle
from raywin.online import Fetcher, TileAggregator
from raywin.online.serving import SawtoothOnlineAggregator
from raywin.online.upload import IR_COL, UploadKernel, read_ir

from .test_online import _same

HOUR = 3600 * 1000
DAY = MILLIS_DAY
BASE = (1_700_000_000_000 // DAY) * DAY


def _gb(aggregations, table="unused"):
    return GroupBy(
        sources=[EventSource(table=table, query=Query())],
        key_columns=["k"],
        aggregations=aggregations,
        accuracy=Accuracy.TEMPORAL,
        name="request_gb",
    )


def _upload(gb, events: pd.DataFrame, batch_end: int) -> dict:
    """{key: blob} of the batch half, built in-process by the upload kernel."""
    pre = events[events["ts"] < batch_end]
    kernel = UploadKernel(["k"], gb.agg_parts(), batch_end, 2 * DAY, [pa.field("k", pa.string())])
    out = kernel(pa.Table.from_pandas(pre, preserve_index=False))
    return dict(zip(((k,) for k in out["k"].to_pylist()), out[IR_COL].to_pylist()))


# every op of test_online's sweep plus HISTOGRAM, over a float column with
# nulls and signed zeros ("v") and an int64 column ("n")
_OPS = [
    (Operation.SUM, {}), (Operation.COUNT, {}), (Operation.AVERAGE, {}),
    (Operation.MIN, {}), (Operation.MAX, {}), (Operation.LAST_K, {"k": 2}),
    (Operation.UNIQUE_COUNT, {}), (Operation.HISTOGRAM, {}),
]
# unbounded, 5-minute, 1-hour and 1-day tail hops
_WINDOWS = [None, Window(1, TimeUnit.HOURS), Window(13, TimeUnit.HOURS), Window(15, TimeUnit.DAYS)]


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(_OPS), st.sampled_from(_WINDOWS), st.sampled_from(["v", "n"])),
        min_size=1, max_size=5,
    ),
    n_keys=st.integers(2, 6),
    n_events=st.integers(0, 400),
    seam_slot=st.integers(0, 24 * 12 * 4),
    seed=st.integers(0, 2**31),
)
def test_many_key_request_matches_per_key_lambda(specs, n_keys, n_events, seam_slot, seed):
    """One lambda_aggregate_many call over a multi-key request equals
    lambda_aggregate per key and query, bit for bit: keys with no batch IR
    (k0 and a key never seen), with no stream (k1), queries before the seam
    and past every tile."""
    rng = np.random.default_rng(seed)
    batch_end = BASE + DAY + seam_slot * MILLIS_5MIN
    gb = _gb([
        Aggregation(op, col, windows=[w] if w else [Window(-1)], arg_map=am)
        for (op, am), w, col in specs
    ])
    key = rng.integers(0, n_keys, n_events)
    ts = BASE + rng.integers(0, 8 * DAY, n_events)
    v = rng.normal(0, 3, n_events).round(2)
    v[rng.random(n_events) < 0.1] = np.nan
    zeros = rng.random(n_events) < 0.1
    v[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    events = pd.DataFrame({
        "k": [f"k{i}" for i in key], "ts": ts.astype(np.int64), "v": v,
        "n": rng.integers(-5, 6, n_events).astype(np.int64),
    }).sort_values("ts", kind="stable").reset_index(drop=True)
    # k0 has no batch half, k1 no stream
    events = events[~(((events["k"] == "k0") & (events["ts"] < batch_end))
                      | ((events["k"] == "k1") & (events["ts"] >= batch_end)))]
    blobs = _upload(gb, events, batch_end) if len(events) else {}
    agg = SawtoothOnlineAggregator(gb, batch_end)
    tail = events[events["ts"] >= batch_end]

    keys = [f"k{i}" for i in range(n_keys)] + ["never_seen"]
    irs, streams, queries = [], [], []
    for k in keys:
        blob = blobs.get((k,))
        irs.append(read_ir(blob, agg.columns))
        sub = tail[tail["k"] == k]
        streams.append((sub["ts"].to_numpy(np.int64), {c: sub[c].to_numpy() for c in ("v", "n")}))
        queries.append(np.concatenate([
            [batch_end + 2 * DAY + HOUR, batch_end - HOUR],  # past every tile; before the seam
            batch_end + rng.integers(0, 2 * DAY, int(rng.integers(1, 6))),
        ]).astype(np.int64))
    lens = [len(t) for t, _ in streams]
    got = agg.lambda_aggregate_many(
        agg.decode(irs),
        np.concatenate([t for t, _ in streams]) if sum(lens) else None,
        {c: np.concatenate([r[c] for _, r in streams]) for c in ("v", "n")},
        np.concatenate(queries),
        np.concatenate(([0], np.cumsum(lens))),
        np.concatenate(([0], np.cumsum([len(q) for q in queries]))),
    )
    i = 0
    for ir, (k_ts, rows), qs in zip(irs, streams, queries):
        k_ts, rows = (k_ts, rows) if len(k_ts) else (None, None)
        one_key = agg.lambda_aggregate_many(ir, k_ts, rows, qs)
        for j, q in enumerate(qs.tolist()):
            want = agg.lambda_aggregate(ir, k_ts, rows, q)
            for c, w in want.items():
                assert _same(got[c][i], w), (c, q - batch_end)
                assert _same(one_key[c][j], w), (c, q - batch_end)
            i += 1


def test_serving_kernel_hot_key_bucket(ray_session, tmp_path, monkeypatch):
    """A bucket with one key of 50k streamed events beside 1000 light keys:
    ServingKernel makes one lambda call, every answer equals the per-row
    reference lambda, and each segmented scan pads its rows within twice
    the real cells plus _DENSE_CELLS per matrix (not to groups x the
    longest row)."""
    import raywin.aggregator.scalar_ops as scalar_ops
    from raywin.online.serving import ServingKernel

    from .test_co_partition import bucket_of

    batch_end = BASE + 4 * DAY
    rng = np.random.default_rng(7)
    n_hot, n_light = 50_000, 1000
    light = np.array([f"l{i}" for i in range(n_light)], dtype=object)
    events = pd.DataFrame({
        "k": np.concatenate([np.full(n_hot, "hot", dtype=object), light.repeat(3)]),
        "ts": np.concatenate([
            batch_end - DAY + rng.integers(0, 2 * DAY, n_hot),
            batch_end - DAY + rng.integers(0, 2 * DAY, 3 * n_light),
        ]).astype(np.int64),
        "v": rng.normal(0, 5, n_hot + 3 * n_light).round(2),
    }).sort_values("ts", kind="stable").reset_index(drop=True)
    table = str(tmp_path / "events.parquet")
    pq.write_table(pa.Table.from_pandas(events, preserve_index=False), table)
    gb = _gb([
        Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.HOURS)]),
        Aggregation(Operation.AVERAGE, "v", windows=[Window(13, TimeUnit.HOURS)]),
        Aggregation(Operation.MAX, "v", windows=[Window(1, TimeUnit.HOURS)]),
        Aggregation(Operation.COUNT, "v"),
    ], table)
    blobs = _upload(gb, events, batch_end)
    tail = events[events["ts"] >= batch_end]
    queries = pd.DataFrame({
        "k": np.concatenate([np.full(40, "hot", dtype=object), light]),
        "ts": batch_end + rng.integers(0, DAY, 40 + n_light),
    })
    upload = pa.table({
        "k": pa.array([k for (k,) in blobs], pa.string()),
        IR_COL: pa.array(list(blobs.values()), pa.binary()),
        "batch_end_ts": pa.array(np.full(len(blobs), batch_end), pa.int64()),
    })
    bucket = bucket_of(
        pa.Table.from_pandas(queries, preserve_index=False), upload,
        pa.Table.from_pandas(tail, preserve_index=False),
    )

    kernel = ServingKernel(gb, batch_end, ["k", "ts"])
    calls, scans = [], []
    lam = kernel.agg.lambda_aggregate_many
    kernel.agg.lambda_aggregate_many = lambda *a: calls.append(len(a[3])) or lam(*a)
    row_bins = scalar_ops._row_bins

    def recording_bins(n_tiles, n_events):
        bins = row_bins(n_tiles, n_events)
        real = int((1 + n_tiles + n_events).sum())
        padded = sum((len(n_tiles) if g is None else len(g)) * (1 + tw + ew) for g, tw, ew in bins)
        scans.append((real, padded, len(bins), len(n_tiles) * int((1 + n_tiles + n_events).max())))
        return bins

    monkeypatch.setattr(scalar_ops, "_row_bins", recording_bins)
    out = kernel(bucket).to_pandas()
    assert calls == [40 + n_light]
    assert scans
    for real, padded, n_bins, naive in scans:
        assert padded <= 2 * real + scalar_ops._DENSE_CELLS * n_bins, (real, padded, n_bins)
    assert max(p for _, p, _, _ in scans) < max(n for *_, n in scans) // 4

    stream = {k: g.sort_values("ts", kind="stable") for k, g in tail.groupby("k")}
    check = list(range(5)) + list(range(40, 40 + n_light, 40))
    for i in check:
        k, q = out["k"][i], int(out["ts"][i])
        sub = stream.get(k)
        ir = read_ir(blobs.get((k,)), kernel.agg.columns)
        want = kernel.agg.lambda_aggregate(
            ir, None if sub is None else sub["ts"].to_numpy(np.int64),
            None if sub is None else {"v": sub["v"].to_numpy()}, q,
        )
        for c, w in want.items():
            g = out[c][i]
            if w is None:
                assert g is None or g != g, (i, c)
            else:
                assert _same(float(g), float(w)), (i, c, g, w)


def _online_fetch_gb():
    """perfbench online_fetch's GroupBy, over a float column v and an int64
    column n, and 6000 events of 60 keys over 8 days."""
    gb = _gb([
        Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.DAYS), Window(7, TimeUnit.DAYS)]),
        Aggregation(Operation.COUNT, "v", windows=[Window(6, TimeUnit.HOURS)]),
        Aggregation(Operation.AVERAGE, "v", windows=[Window(3, TimeUnit.DAYS)]),
        Aggregation(Operation.MAX, "n", windows=[Window(1, TimeUnit.DAYS)]),
        Aggregation(Operation.SUM, "n"),
    ])
    rng = np.random.default_rng(11)
    n = 6000
    events = pd.DataFrame({
        "k": rng.choice([f"u{i}" for i in range(60)], n),
        "ts": (BASE + rng.integers(0, 8 * DAY, n)).astype(np.int64),
        "v": rng.normal(50, 20, n).round(2),
        "n": rng.integers(0, 20, n).astype(np.int64),
    }).sort_values("ts", kind="stable").reset_index(drop=True)
    return gb, events


def test_fetch_batch_perfbench_hook_contract():
    """perfbench's online_fetch wraps fetcher.agg.lambda_aggregate_many and
    runs np.searchsorted(args[1], args[3]) after every call.  fetch_batch
    makes exactly one call per request; args[1] is a 1-D int64 array or
    None and args[3] a 1-D int64 array, so the hook never raises; the
    answers are the unwrapped Fetcher's; and _cache gains one entry per key
    the request is the first to ask for."""
    gb, events = _online_fetch_gb()
    batch_end = BASE + 7 * DAY
    rng = np.random.default_rng(11)
    blobs = _upload(gb, events, batch_end)
    tail = events[events["ts"] >= batch_end].reset_index(drop=True)
    hooked = Fetcher(gb, batch_end, upload=blobs)
    plain = Fetcher(gb, batch_end, upload=blobs)

    calls, folded = [], [0]
    lam = hooked.agg.lambda_aggregate_many

    def count_folded(*args, **kwargs):
        result = lam(*args, **kwargs)
        stream_ts, qts = args[1], args[3]
        assert stream_ts is None or (
            isinstance(stream_ts, np.ndarray) and stream_ts.ndim == 1 and stream_ts.dtype == np.int64)
        assert isinstance(qts, np.ndarray) and qts.ndim == 1 and qts.dtype == np.int64
        if stream_ts is not None and len(stream_ts):
            folded[0] += int(np.searchsorted(stream_ts, qts, side="left").sum())
        calls.append(len(qts))
        return result

    hooked.agg.lambda_aggregate_many = count_folded
    seen = set()
    for m in range(0, len(tail), 200):
        batch = tail.iloc[m:m + 200]
        hooked.put_events(batch)
        plain.put_events(batch)
        for _ in range(3):
            req = pd.DataFrame({
                "k": rng.choice([f"u{i}" for i in range(70)], 8),  # some keys have no state
                "ts": int(batch["ts"].max()) + rng.integers(1, HOUR, 8),
            })
            before, n_calls = len(hooked._cache), len(calls)
            got, want = hooked.fetch_batch(req), plain.fetch_batch(req)
            assert len(calls) == n_calls + 1 and calls[-1] == len(req)
            new = set(req["k"]) - seen
            seen |= new
            assert len(hooked._cache) - before == len(new)
            for c in want:
                assert all(_same(g, w) for g, w in zip(got[c], want[c])), c
            for i, (k, t) in enumerate(zip(req["k"], req["ts"])):
                st_ = plain._stream.get((k,))
                one = plain.agg.lambda_aggregate(
                    read_ir(blobs.get((k,)), plain.agg.columns),
                    *(st_ if st_ else (None, None)), int(t))
                assert all(_same(got[c][i], w) for c, w in one.items()), (k, t)
    assert folded[0] > 0


def test_tile_aggregator_releases_unreachable_tiles():
    """Seven days streamed into a 1-hour SUM (5-minute tiles) keep at most
    window / hop + 2 tiles per key, where the tiles never released kept
    every 5-minute tile of the week; an unbounded part keeps one tile.
    Answers after the seal equal the NaiveOracle (sums to 1e-12)."""
    gb = _gb([
        Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.HOURS)]),
        Aggregation(Operation.MAX, "v", windows=[Window(1, TimeUnit.HOURS)]),
        Aggregation(Operation.SUM, "v"),
        Aggregation(Operation.COUNT, "v"),
    ])
    rng = np.random.default_rng(5)
    n = 7 * 2000
    events = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], n),
        "ts": np.sort(BASE + rng.integers(0, 7 * DAY, n)).astype(np.int64),
        "v": rng.normal(10, 4, n).round(3),
    })
    events.loc[rng.random(n) < 0.05, "v"] = np.nan
    tiles = TileAggregator(gb, tile_ms=MILLIS_5MIN, allowed_lateness_ms=0)
    bound = HOUR // MILLIS_5MIN + 2
    for i in range(0, n, 500):
        tiles.process_batch(events.iloc[i:i + 500])
        for row in tiles.rows(list(tiles.keys)).tolist():
            key_tiles = tiles.table.ir(row)
            assert len(key_tiles["v_sum_1h"]["t"]) <= bound
            assert len(key_tiles["v_max_1h"]["t"]) <= bound
            assert len(key_tiles["v_sum"]["t"]) == len(key_tiles["v_count"]["t"]) == 1
    parts = gb.agg_parts()
    oracle = NaiveOracle(parts)
    for k in ("a", "b", "c"):
        sub = events[events["k"] == k]
        rows = [{"ts": int(t), "v": None if v != v else float(v)} for t, v in zip(sub["ts"], sub["v"])]
        for q in (tiles.sealed_until, tiles.sealed_until + 7 * 60_000, int(events["ts"].max()) + 1):
            got = tiles.query(k, q)
            want = oracle.aggregate(rows, [q])[0]
            for p in parts:
                g, w = got[p.output_column], want[p.output_column]
                if isinstance(w, float):
                    assert g == pytest.approx(w, rel=1e-12), (k, q, p.output_column)
                else:
                    assert g == w, (k, q, p.output_column)


@pytest.mark.parametrize("span", [10**6, 2**61])
def test_runs_search_matches_per_key_searchsorted(span):
    """One search over every key's ascending run equals np.searchsorted on
    each run, for values close enough for one composite int64 order and
    for values too far apart for it (searched run by run)."""
    from raywin.online.serving import _Runs

    rng = np.random.default_rng(3)
    runs = [np.sort(rng.integers(-span, span, n)) for n in (0, 5, 1, 40, 0, 12)]
    bounds = np.concatenate(([0], np.cumsum([len(r) for r in runs])))
    keys = rng.integers(0, len(runs), 200)
    x = rng.integers(-span - 10, span + 10, 200)
    got = _Runs(np.concatenate(runs), bounds).search(keys, x)
    want = [bounds[k] + np.searchsorted(runs[k], v) for k, v in zip(keys, x)]
    assert got.tolist() == want


def test_request_scans_one_matrix_per_channel(monkeypatch):
    """On online_fetch's GroupBy a request stacks the rows of its numeric
    parts into one _scan_rows matrix per (ufunc, dtype) channel, whatever
    the part's window or input column: at most 3 matrices (5 with a matrix
    per part), none for the same channel twice.  The int64 sums and the
    counts need none.  Answers equal the per-row reference lambda."""
    import raywin.aggregator.scalar_ops as scalar_ops

    gb, events = _online_fetch_gb()
    batch_end = BASE + 7 * DAY
    blobs = _upload(gb, events, batch_end)
    tail = events[events["ts"] >= batch_end].reset_index(drop=True)
    fetcher = Fetcher(gb, batch_end, upload=blobs)
    scans = []
    scan_rows = scalar_ops._scan_rows

    def recording(ufunc, heads, *args, **kwargs):
        scans.append((ufunc.__name__, heads.dtype.name))
        return scan_rows(ufunc, heads, *args, **kwargs)

    monkeypatch.setattr(scalar_ops, "_scan_rows", recording)
    rng = np.random.default_rng(12)
    for m in range(0, len(tail), 300):
        batch = tail.iloc[m:m + 300]
        fetcher.put_events(batch)
        req = pd.DataFrame({
            "k": rng.choice([f"u{i}" for i in range(70)], 8),
            "ts": int(batch["ts"].max()) + rng.integers(1, HOUR, 8),
        })
        before = len(scans)
        got = fetcher.fetch_batch(req)
        made = scans[before:]
        assert 0 < len(made) <= 3 and len(set(made)) == len(made), made
        for i, (k, t) in enumerate(zip(req["k"], req["ts"])):
            st_ = fetcher._stream.get((k,))
            one = fetcher.agg.lambda_aggregate(
                read_ir(blobs.get((k,)), fetcher.agg.columns),
                *(st_ if st_ else (None, None)), int(t))
            assert all(_same(got[c][i], w) for c, w in one.items()), (k, t)
    assert ("add", "float64") in scans and ("maximum", "int64") in scans


_NUMERIC = [Operation.SUM, Operation.COUNT, Operation.AVERAGE, Operation.MIN, Operation.MAX]


@settings(max_examples=30, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(_NUMERIC), st.sampled_from(_WINDOWS),
                  st.sampled_from(["v", "w", "z", "n"])),
        min_size=2, max_size=8, unique=True,
    ),
    n_keys=st.integers(1, 5),
    n_events=st.integers(0, 300),
    seam_slot=st.integers(0, 24 * 12 * 4),
    seed=st.integers(0, 2**31),
)
def test_shared_channels_match_per_row_lambda(specs, n_keys, n_events, seam_slot, seed):
    """Numeric parts that share a fold channel across windows and input
    columns answer bit for bit as lambda_aggregate: float sums beside
    AVERAGE's sums over the int64 column n, int64 sums beside counts, and
    float MIN/MAX over z, mostly 0.0 and -0.0, so a short window's extremum
    is a zero tie, beside v (nulls, few zeros) and w (neither): a channel
    whose rows mix 0.0 and -0.0 takes the per-part fold for each of its
    parts.  One request never scans a channel twice."""
    from unittest import mock

    import raywin.aggregator.scalar_ops as scalar_ops

    rng = np.random.default_rng(seed)
    batch_end = BASE + DAY + seam_slot * MILLIS_5MIN
    gb = _gb([Aggregation(op, col, windows=[w] if w else [Window(-1)]) for op, w, col in specs])
    v = rng.normal(0, 3, n_events).round(2)
    v[rng.random(n_events) < 0.1] = np.nan
    zeros = rng.random(n_events) < 0.1
    v[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
    events = pd.DataFrame({
        "k": [f"k{i}" for i in rng.integers(0, n_keys, n_events)],
        "ts": (BASE + rng.integers(0, 8 * DAY, n_events)).astype(np.int64),
        "v": v,
        "w": rng.normal(10, 3, n_events).round(2),
        "z": rng.choice([0.0, -0.0, 1.25, -1.25], n_events, p=[0.45, 0.45, 0.05, 0.05]),
        "n": rng.integers(-5, 6, n_events).astype(np.int64),
    }).sort_values("ts", kind="stable").reset_index(drop=True)
    blobs = _upload(gb, events, batch_end) if len(events) else {}
    agg = SawtoothOnlineAggregator(gb, batch_end)
    tail = events[events["ts"] >= batch_end]
    irs, streams, queries = [], [], []
    for k in [f"k{i}" for i in range(n_keys)]:
        blob = blobs.get((k,))
        irs.append(read_ir(blob, agg.columns))
        sub = tail[tail["k"] == k]
        streams.append((sub["ts"].to_numpy(np.int64), {c: sub[c].to_numpy() for c in "vwzn"}))
        queries.append(np.concatenate([
            [batch_end + 2 * DAY + HOUR], batch_end + rng.integers(-HOUR, 2 * DAY, 6),
        ]).astype(np.int64))
    lens = [len(t) for t, _ in streams]
    scans = []
    scan_rows = scalar_ops._scan_rows

    def recording(ufunc, heads, *args, **kwargs):
        scans.append((ufunc, heads.dtype))
        return scan_rows(ufunc, heads, *args, **kwargs)

    with mock.patch.object(scalar_ops, "_scan_rows", recording):
        got = agg.lambda_aggregate_many(
            agg.decode(irs),
            np.concatenate([t for t, _ in streams]) if sum(lens) else None,
            {c: np.concatenate([r[c] for _, r in streams]) for c in "vwzn"},
            np.concatenate(queries),
            np.concatenate(([0], np.cumsum(lens))),
            np.concatenate(([0], np.cumsum([len(q) for q in queries]))),
        )
    assert len(set(scans)) == len(scans), scans
    i = 0
    for ir, (k_ts, rows), qs in zip(irs, streams, queries):
        k_ts, rows = (k_ts, rows) if len(k_ts) else (None, None)
        for q in qs.tolist():
            for c, want in agg.lambda_aggregate(ir, k_ts, rows, q).items():
                assert _same(got[c][i], want), (c, q - batch_end)
            i += 1


def test_key_groups_int_keys_match_factorize():
    """Two integer key columns are grouped by a lexsort of their values;
    the same keys as object columns go through factorize.  Both give the
    same Python int key tuples and the same rows per key, ts-ascending with
    ts ties in row order, with and without a keep mask; a nullable key
    column drops its null keys."""
    from raywin.online.serving import _key_groups

    rng = np.random.default_rng(9)
    n = 600
    df = pd.DataFrame({
        "a": rng.integers(-3, 3, n),
        "b": rng.integers(0, 4, n).astype(np.uint32),
    })
    ts = rng.integers(0, 15, n).astype(np.int64)  # many ties
    as_objects = df.astype(object)

    def by_key(frame, keep):
        pos, groups = _key_groups([frame[k].to_numpy() for k in ("a", "b")], ts, keep)
        return {key: pos[a:b].tolist() for key, a, b in groups}

    for keep in (None, rng.random(n) < 0.6):
        got, want = by_key(df, keep), by_key(as_objects, keep)
        assert got == want
        assert all(type(x) is int for key in got for x in key)
        kept = np.flatnonzero(np.ones(n, dtype=bool) if keep is None else keep)
        assert sorted(r for rows in got.values() for r in rows) == kept.tolist()
        for rows in got.values():
            assert rows == sorted(rows, key=lambda r: (ts[r], r))
    nullable = df.astype({"a": "Int64"})
    nullable.loc[::7, "a"] = pd.NA
    got = by_key(nullable, None)
    assert sum(map(len, got.values())) == n - len(range(0, n, 7))
    assert got == {k: rows for k, rows in by_key(df, np.arange(n) % 7 != 0).items()}


def test_datetime_keys_find_their_upload(ray_session, tmp_path):
    """A datetime key column: the Fetcher (query frame) and ServingKernel
    (Arrow sides) key the upload's blobs and the requests alike, so each
    key gets its batch IR and its stream, not a null answer."""
    from raywin.online.serving import ServingKernel
    from raywin.online.upload import load_upload

    from .test_co_partition import bucket_of

    batch_end = BASE + 2 * DAY
    days = pd.to_datetime(["2020-01-01", "2020-01-02", "2020-01-01", "2020-01-02"])
    events = pd.DataFrame({"k": days, "ts": [BASE + 1, BASE + 2, BASE + 3, batch_end + 1],
                           "v": [1.0, 2.0, 4.0, 8.0]})
    table = str(tmp_path / "events.parquet")
    pq.write_table(pa.Table.from_pandas(events, preserve_index=False), table)
    gb = _gb([Aggregation(Operation.SUM, "v")], table)
    kernel = UploadKernel(["k"], gb.agg_parts(), batch_end, 2 * DAY, [pa.field("k", pa.timestamp("ns"))])
    upload = kernel(pa.Table.from_pandas(events[events["ts"] < batch_end], preserve_index=False))
    tail = events[events["ts"] >= batch_end]
    queries = pd.DataFrame({"k": days[:2], "ts": [batch_end + 5, batch_end + 5]})
    fetcher = Fetcher(gb, batch_end, upload=load_upload(upload.to_pandas(), ["k"]))
    fetcher.put_events(tail)
    assert fetcher.fetch_batch(queries)["v_sum"] == [5.0, 10.0]
    bucket = bucket_of(pa.Table.from_pandas(queries, preserve_index=False), upload,
                       pa.Table.from_pandas(tail, preserve_index=False))
    out = ServingKernel(gb, batch_end, ["k", "ts"])(bucket)
    assert out["v_sum"].to_pylist() == [5.0, 10.0]


def test_put_events_appends_in_order_and_merges_out_of_order():
    """Micro-batches that continue a key's stream (appended, ties at the
    join included) and ones that go back in time or interleave (merged)
    leave each key's stream as one stable ts sort of every row put: ts
    ties stay in ingest order."""
    gb = _gb([Aggregation(Operation.SUM, "seq")])
    batch_end = BASE
    rng = np.random.default_rng(17)
    frames, seq = [], 0
    for lo, hi in [(0, 10), (9, 20), (5, 15), (20, 30), (20, 30), (0, 40), (39, 45)]:
        m = 60
        frames.append(pd.DataFrame({
            "k": rng.integers(0, 4, m),
            "ts": (batch_end + rng.integers(lo, hi, m) * 1000).astype(np.int64),
            "seq": np.arange(seq, seq + m),
        }))
        seq += m
    fetcher = Fetcher(gb, batch_end)
    for f in frames:
        fetcher.put_events(f)
    every = pd.concat(frames, ignore_index=True)
    assert sorted(fetcher._stream) == [(k,) for k in sorted(every["k"].unique())]
    for k, rows in every.groupby("k"):
        want = rows.sort_values("ts", kind="stable")
        ts, cols = fetcher._stream[(k,)]
        assert ts.tolist() == want["ts"].tolist()
        assert cols["seq"].tolist() == want["seq"].tolist()
