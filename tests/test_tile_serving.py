"""Tile-backed serving on the upload's flat layout: a TileAggregator keeps its
sealed tiles as encode_irs rows and one IRTable, and a Fetcher gathers them
after the batch tiles.  Answers equal the per-row reference lambda over the
batch IR plus the sealed tiles read back from the tile table, bit for bit;
sealed tiles equal a per-key, per-tile fold; a fetch encodes nothing; and a
TileAggregator with another seam than the Fetcher's is refused."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.aggregator.windowing import FiveMinuteResolution, round_down
from raywin.api import MILLIS_5MIN, Aggregation, Operation, TimeUnit, Window
from raywin.online import Fetcher, TileAggregator
from raywin.online import serving as serving_mod
from raywin.online import streaming as streaming_mod
from raywin.online import upload as upload_mod
from raywin.online.upload import read_ir

from .test_ir_codec import _bits
from .test_online import _same
from .test_serving_request import BASE, DAY, HOUR, _gb, _upload

BATCH_END = BASE + 2 * DAY

# an unbounded SUM and COUNT (one merged tile per key), 5-minute, 1-hour and
# 1-day tail hops, and a LAST_K part whose IRs are pickled
_PARTS = [
    Aggregation(Operation.SUM, "v"),
    Aggregation(Operation.COUNT, "v"),
    Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.HOURS)]),
    Aggregation(Operation.AVERAGE, "v", windows=[Window(13, TimeUnit.HOURS)]),
    Aggregation(Operation.MAX, "n", windows=[Window(15, TimeUnit.DAYS)]),
    Aggregation(Operation.LAST_K, "v", arg_map={"k": 2}, windows=[Window(1, TimeUnit.HOURS)]),
]


def _events(rng, n, lo, hi, n_keys):
    v = rng.normal(0, 3, n).round(2)
    v[rng.random(n) < 0.1] = np.nan
    return pd.DataFrame({
        "k": [f"k{i}" for i in rng.integers(0, n_keys, n)],
        "ts": rng.integers(lo, hi, n).astype(np.int64),
        "v": v,
        "n": rng.integers(-5, 6, n).astype(np.int64),
    })


def _with_sealed(batch_ir, sealed_ir, columns):
    """A key's batch IR in dict form with its sealed tiles after its own."""
    if sealed_ir is None:
        return batch_ir
    out = {}
    for c in columns:
        entry = (batch_ir or {}).get(c) or {"c": None, "t": []}
        out[c] = {"c": entry["c"], "t": list(entry["t"]) + list(sealed_ir[c]["t"])}
    return out


@settings(max_examples=25, deadline=None)
@given(
    n_keys=st.integers(1, 5),
    n_events=st.integers(0, 300),
    n_batches=st.integers(1, 8),
    lateness=st.sampled_from([0, 10 * 60_000, HOUR]),
    seed=st.integers(0, 2**31),
)
def test_tile_backed_fetch_matches_reference_lambda(n_keys, n_events, n_batches, lateness, seed):
    """Random micro-batches (out of order, some rows late, some before the
    seam) into a TileAggregator whose seals cross tile boundaries: after
    every micro-batch, fetch_batch over every key equals lambda_aggregate
    over the key's batch IR plus its sealed tiles read back from the tile
    table and its raw head, bit for bit; and each key's sealed tiles equal
    one fold_segments call per key and tile over the rows kept (for an
    unbounded part, the merge of one fold per seal)."""
    rng = np.random.default_rng(seed)
    gb = _gb(_PARTS)
    parts = gb.agg_parts()
    batch = _events(rng, 200, BATCH_END - 3 * DAY, BATCH_END, n_keys)
    blobs = _upload(gb, batch, BATCH_END)
    stream = _events(rng, n_events, BATCH_END - HOUR, BATCH_END + 8 * HOUR, n_keys)
    order = np.argsort(stream["ts"].to_numpy() + rng.integers(0, 2 * HOUR, n_events), kind="stable")
    stream = stream.iloc[order].reset_index(drop=True)  # ts-ordered, up to 2 h out of order
    tiles = TileAggregator(gb, MILLIS_5MIN, lateness, batch_end_ts=BATCH_END)
    fetcher = Fetcher(gb, BATCH_END, upload=blobs)
    fetcher.attach_tiles(tiles)
    agg = fetcher.agg
    keys = [f"k{i}" for i in range(n_keys)] + ["never_seen"]
    kept = stream.iloc[:0]
    merged = {}  # (key, part index) -> [start, IR] of an unbounded part
    cuts = np.sort(rng.integers(0, n_events + 1, n_batches - 1))
    for a, b in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [n_events]))):
        mb = stream.iloc[a:b]
        ok = mb["ts"] >= BATCH_END
        if tiles.sealed_until is not None:
            ok &= mb["ts"] >= tiles.sealed_until
        kept = pd.concat([kept, mb[ok]])
        before = tiles.sealed_until
        tiles.process_batch(mb)
        if tiles.sealed_until is None:
            continue
        if before != tiles.sealed_until:  # this batch sealed: fold each key's new rows
            lo = BATCH_END if before is None else before
            new = kept[(kept["ts"] >= lo) & (kept["ts"] < tiles.sealed_until)]
            for p, (part, op) in enumerate(zip(parts, agg.ops)):
                if not part.window.unbounded:
                    continue
                for k, rows in new.sort_values("ts", kind="stable").groupby("k"):
                    rows = rows[rows[part.input_column].notna()]
                    if len(rows):
                        ts = rows["ts"].to_numpy()
                        ir = op.fold_segments(rows[part.input_column].to_numpy(), ts,
                                              np.zeros(1, dtype=np.int64))[0]
                        if (k, p) in merged:
                            merged[k, p][1] = op.merge(merged[k, p][1], ir)
                        else:
                            merged[k, p] = [int(round_down(ts[0], MILLIS_5MIN)), ir]
        # the sealed tiles, read back from the tile table
        sealed = kept[kept["ts"] < tiles.sealed_until].sort_values("ts", kind="stable")
        for k in keys:
            got = tiles.table.ir(int(tiles.rows([(k,)])[0]))
            rows_k = sealed[sealed["k"] == k]
            for p, (part, op) in enumerate(zip(parts, agg.ops)):
                if part.window.unbounded:
                    want = [tuple(merged[k, p])] if (k, p) in merged else []
                else:
                    hop = FiveMinuteResolution.tail_hop(part.window)
                    r = rows_k[rows_k[part.input_column].notna()]
                    r = r[r["ts"] >= round_down(tiles.sealed_until - part.window.millis, hop)]
                    ts = r["ts"].to_numpy()
                    tile = ts // MILLIS_5MIN
                    st_ = np.flatnonzero(np.diff(tile, prepend=-1)) if len(ts) else ts
                    want = list(zip((tile[st_] * MILLIS_5MIN).tolist(),
                                    op.fold_segments(r[part.input_column].to_numpy(), ts, st_)))
                have = [] if got is None else got[part.output_column]["t"]
                assert _bits(have) == _bits(want), (k, part.output_column)
        # every key at and after the sealed boundary, one request
        qs = [tiles.sealed_until, tiles.sealed_until + int(rng.integers(0, 3 * HOUR))]
        req = pd.DataFrame({"k": [k for k in keys for _ in qs], "ts": qs * len(keys)})
        res = fetcher.fetch_batch(req)
        for i, (k, q) in enumerate(zip(req["k"], req["ts"])):
            state = _with_sealed(read_ir(blobs.get((k,)), agg.columns),
                                 tiles.table.ir(int(tiles.rows([(k,)])[0])), agg.columns)
            head = tiles.raw.get((k,))
            want = agg.lambda_aggregate(state, *(head if head else (None, None)), int(q))
            for c, w in want.items():
                assert _same(res[c][i], w), (k, q - tiles.sealed_until, c)
    assert tiles.late_count + tiles.pre_seam_count + len(kept) == n_events


def test_tile_backed_fetch_encodes_nothing(monkeypatch):
    """A tile-backed fetch_batch reads the batch IRs and the sealed tiles
    as decoded: no encode_irs or encode_dicts call on any fetch (each
    advance encodes the live tiles once), and the answers are raw-row
    serving's (sums to 1e-12)."""
    rng = np.random.default_rng(4)
    gb = _gb(_PARTS)
    blobs = _upload(gb, _events(rng, 300, BATCH_END - 3 * DAY, BATCH_END, 4), BATCH_END)
    stream = _events(rng, 600, BATCH_END, BATCH_END + 6 * HOUR, 4).sort_values("ts", kind="stable")
    tiles = TileAggregator(gb, MILLIS_5MIN, 0, batch_end_ts=BATCH_END)
    raw = Fetcher(gb, BATCH_END, upload=blobs)
    for i in range(0, len(stream), 100):
        tiles.process_batch(stream.iloc[i:i + 100])
        raw.put_events(stream.iloc[i:i + 100])
    tiled = Fetcher(gb, BATCH_END, upload=blobs)
    tiled.attach_tiles(tiles)
    assert tiles.sealed_until is not None

    def encode(*args, **kwargs):
        raise AssertionError("a fetch encoded IRs")

    for mod in (upload_mod, serving_mod, streaming_mod):
        for name in ("encode_irs", "encode_dicts"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, encode)
    req = pd.DataFrame({"k": ["k0", "k1", "k3", "k2", "k0", "nope"],
                        "ts": [tiles.sealed_until + d for d in (0, 1, 5, HOUR, 2 * HOUR, 7)]})
    for _ in range(2):  # cached keys too
        got, want = tiled.fetch_batch(req), raw.fetch_batch(req)
        for c in want:
            if c.startswith(("v_sum", "v_average")):
                assert got[c] == pytest.approx(want[c], rel=1e-12), c
            else:
                assert got[c] == want[c], c


def test_attach_tiles_rejects_a_seam_mismatch():
    """A TileAggregator without the Fetcher's seam folds rows on both sides
    of it into its tiles (an unbounded part into a single tile that starts
    before the seam), which tile-backed serving would lose: attach_tiles
    raises.  With the same seam, tile-backed and raw-row serving count the
    batch event and every streamed one once."""
    gb = _gb([Aggregation(Operation.SUM, "v")])
    events = pd.DataFrame({
        "k": ["a"] * 4,
        "ts": [BATCH_END - HOUR, BATCH_END + HOUR, BATCH_END + 2 * HOUR, BATCH_END + 3 * HOUR],
        "v": [1.0, 10.0, 100.0, 1000.0],
    })
    blobs = _upload(gb, events, BATCH_END)
    for seam in (None, BATCH_END - DAY):
        with pytest.raises(ValueError, match="seam"):
            Fetcher(gb, BATCH_END, upload=blobs).attach_tiles(TileAggregator(gb, batch_end_ts=seam))
    with pytest.raises(ValueError, match="seam"):
        Fetcher(gb, BATCH_END).attach_tiles(TileAggregator(gb))
    tiles = TileAggregator(gb, batch_end_ts=BATCH_END)
    tiles.process_batch(events)
    assert tiles.pre_seam_count == 1 and tiles.sealed_until == BATCH_END + 3 * HOUR
    tiled, raw = Fetcher(gb, BATCH_END, upload=blobs), Fetcher(gb, BATCH_END, upload=blobs)
    tiled.attach_tiles(tiles)
    raw.put_events(events)
    q = BATCH_END + 4 * HOUR
    assert tiled.fetch("a", q)["v_sum"] == raw.fetch("a", q)["v_sum"] == 1111.0
    # a pure-streaming aggregator serves itself through a seamless Fetcher
    alone = TileAggregator(gb)
    alone.process_batch(events)
    assert alone.query("a", q)["v_sum"] == 1111.0
