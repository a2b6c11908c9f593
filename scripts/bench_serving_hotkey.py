"""Serving-lambda microbench, two legs on fixed-seed inputs:

* hot key: per-row lambda_aggregate vs the vectorized lambda_aggregate_many
  on ONE hot key — 100k tail events x 20k queries;
* Fetcher closed loop: put_events micro-batches, each followed by
  fetch_batch requests over Zipf-keyed rows, against a 2k-key batch upload.

Both legs spot-check the vectorized answers against the per-row reference
lambda (bitwise: ==, and the sign of float zeros).

Run:  python scripts/bench_serving_hotkey.py
Prints one JSON line with both legs' timings.
"""

import json
import math
import os
import pickle
import sys
import time

import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from raywin.api import (  # noqa: E402
    Accuracy, Aggregation, EventSource, GroupBy, MILLIS_DAY, Operation, Query,
    TimeUnit, Window,
)
from raywin.online.serving import Fetcher, SawtoothOnlineAggregator  # noqa: E402

DAY = MILLIS_DAY
BASE = (1_700_000_000_000 // DAY) * DAY
BATCH_END = BASE + 30 * DAY
N_TAIL = 100_000
N_QUERIES = 20_000
N_CHECK = 2_000  # extrapolate the per-row path (a full run is minutes)
# Fetcher leg: keys, micro-batches x rows, requests per micro-batch x rows
N_KEYS = 2_000
MICRO_BATCHES, MICRO_BATCH_ROWS = 40, 200
REQUESTS, REQUEST_ROWS = 5, 8


def _group_by():
    return GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "v", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "v", windows=[Window(30, TimeUnit.DAYS)]),
            Aggregation(Operation.LAST_K, "v", arg_map={"k": 5}, windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.MAX, "v"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="hot_serving_gb",
    )


def _batch_ir(agg, rng, n_collapsed=200, n_tiles=64, tile_rows=20):
    """A collapsed piece + tail-hop tiles per part, the realistic upload shape."""
    ir = {}
    for p, op in zip(agg.parts, agg.ops):
        c = None
        for i, v in enumerate(rng.normal(10, 4, n_collapsed).round(3)):
            t = int(BASE + i * 1000)
            c = op.prepare(v, t) if c is None else op.update(c, v, t)
        tiles = []
        for h in range(n_tiles):
            start = BATCH_END - (n_tiles - h) * 3_600_000
            tir = None
            for i, v in enumerate(rng.normal(10, 4, tile_rows).round(3)):
                tt = int(start + i * 100)
                tir = op.prepare(v, tt) if tir is None else op.update(tir, v, tt)
            tiles.append((start, tir))
        ir[p.output_column] = {"c": c, "t": tiles}
    return ir


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and a == 0 == b:
        return math.copysign(1, a) == math.copysign(1, b)
    return a == b


def hot_key_leg(gb, rng) -> dict:
    agg = SawtoothOnlineAggregator(gb, BATCH_END)
    ts_arr = np.sort(BATCH_END + rng.integers(0, DAY, N_TAIL)).astype(np.int64)
    rows = {"v": rng.normal(10, 4, N_TAIL).round(3)}
    ir = _batch_ir(agg, rng)
    qts = np.sort(BATCH_END + rng.integers(1, DAY, N_QUERIES)).astype(np.int64)

    t0 = time.perf_counter()
    many = agg.lambda_aggregate_many(ir, ts_arr, rows, qts)
    t_many = time.perf_counter() - t0

    sample_idx = np.linspace(0, N_QUERIES - 1, N_CHECK).astype(int)
    t0 = time.perf_counter()
    ones = [agg.lambda_aggregate(ir, ts_arr, rows, int(qts[i])) for i in sample_idx]
    t_one = (time.perf_counter() - t0) * (N_QUERIES / N_CHECK)
    for j, i in enumerate(sample_idx):
        for p in agg.parts:
            assert _same(many[p.output_column][i], ones[j][p.output_column]), p.output_column
    return {
        "tail_events": N_TAIL, "queries": N_QUERIES, "parts": len(agg.parts),
        "lambda_aggregate_many_s": t_many,
        "per_row_extrapolated_s": t_one, "per_row_sampled": N_CHECK,
        "speedup": t_one / t_many,
    }


def fetcher_leg(gb, rng) -> dict:
    agg = SawtoothOnlineAggregator(gb, BATCH_END)
    keys = [f"u{i}" for i in range(N_KEYS)]
    upload = {(k,): pickle.dumps(_batch_ir(agg, rng, 20, 24, 4)) for k in keys}
    zipf = np.minimum(rng.zipf(1.2, MICRO_BATCHES * (MICRO_BATCH_ROWS + REQUESTS * REQUEST_ROWS)),
                      N_KEYS) - 1
    zipf = iter(zipf.tolist())
    fetcher = Fetcher(gb, BATCH_END, upload=upload)
    put_s = fetch_s = 0.0
    checked = 0
    for m in range(MICRO_BATCHES):
        t_lo = BATCH_END + m * DAY // MICRO_BATCHES
        mb = pd.DataFrame({
            "k": [keys[next(zipf)] for _ in range(MICRO_BATCH_ROWS)],
            # up to an hour late: some keys need the merge path
            "ts": t_lo + rng.integers(-3_600_000, DAY // MICRO_BATCHES, MICRO_BATCH_ROWS),
            "v": rng.normal(10, 4, MICRO_BATCH_ROWS).round(3),
        })
        t0 = time.perf_counter()
        fetcher.put_events(mb)
        put_s += time.perf_counter() - t0
        for r in range(REQUESTS):
            req = pd.DataFrame({
                "k": [keys[next(zipf)] for _ in range(REQUEST_ROWS)],
                "ts": t_lo + rng.integers(0, DAY // MICRO_BATCHES, REQUEST_ROWS),
            })
            t0 = time.perf_counter()
            res = fetcher.fetch_batch(req)
            fetch_s += time.perf_counter() - t0
            if r == 0:  # spot-check one request per micro-batch
                for i, (k, t) in enumerate(zip(req["k"], req["ts"])):
                    one = fetcher.fetch(k, int(t))
                    for c, col in res.items():
                        assert _same(col[i], one[c]), c
                    checked += 1
    return {
        "keys": N_KEYS, "micro_batches": MICRO_BATCHES, "micro_batch_rows": MICRO_BATCH_ROWS,
        "requests": MICRO_BATCHES * REQUESTS, "request_rows": REQUEST_ROWS,
        "put_events_s": put_s, "fetch_batch_s": fetch_s,
        "fetch_rows_per_s": MICRO_BATCHES * REQUESTS * REQUEST_ROWS / fetch_s,
        "rows_checked": checked,
    }


def main():
    gb = _group_by()
    rng = np.random.default_rng(5)
    out = {
        "bench": "serving_hotkey",
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "hot_key": hot_key_leg(gb, rng),
        "fetcher_loop": fetcher_leg(gb, rng),
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
