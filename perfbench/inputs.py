"""Seeded input generation, cached on disk by (workload, seed, size) and
verified by content hash before every use.

Generation runs in a spawned child process, so neither its time nor its
memory reaches any metric; raywin receives only the generated tables.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil

import numpy as np

DAY = 86_400_000
HOUR = 3_600_000
BASE_TS = (1_700_000_000_000 // DAY) * DAY  # midnight-aligned epoch millis
HASH_FILE = "CONTENT_SHA256"
# bump when a generator changes, so cached inputs of the old one are not reused
GENERATOR_VERSION = 2

# Workload sizes.  Each timed iteration does the same fixed work over these.
SIZES = {
    # mixed png/jpeg/qimg images, Zipf-1.2 entities over a 30-day span
    "img_backfill": {"rows": 8_000, "entities": 200, "span_days": 30, "files": 4},
    # numeric events; queries in the last `query_days`, backfilled in
    # `step_days` steps, one parquet partition + manifest per step
    "events_backfill": {
        "rows": 100_000, "keys": 2_000, "span_days": 30, "files": 4,
        "queries": 10_000, "query_days": 4, "step_days": 2,
    },
    # batch half before batch_end, then a script of `micro_batches`
    # put_events micro-batches, each followed by `requests_per_batch`
    # fetch_batch requests of `request_rows` Zipf-keyed rows
    "online_fetch": {
        "batch_rows": 40_000, "keys": 2_000, "batch_days": 7,
        "micro_batches": 20, "micro_batch_rows": 200,
        "requests_per_batch": 5, "request_rows": 8,
    },
}
ZIPF_SKEW = 1.2


def size_key(workload: str) -> str:
    spec = {"version": GENERATOR_VERSION, **SIZES[workload]}
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:10]


def content_hash(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name == HASH_FILE:
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def ensure_inputs(workload: str, seed: int, work_dir: str) -> str:
    """Directory holding the workload's inputs for this seed: reused when its
    content hash verifies, otherwise (re)generated."""
    path = os.path.join(work_dir, "inputs", f"{workload}-s{seed}-{size_key(workload)}")
    try:
        with open(os.path.join(path, HASH_FILE)) as f:
            if f.read().strip() == content_hash(path):
                return path
    except OSError:
        pass
    tmp = path + ".tmp"
    shutil.rmtree(path, ignore_errors=True)
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    proc = multiprocessing.get_context("spawn").Process(
        target=GENERATORS[workload], args=(tmp, seed)
    )
    proc.start()
    proc.join()
    if proc.exitcode != 0:
        raise RuntimeError(f"input generation for {workload} failed (exit {proc.exitcode})")
    with open(os.path.join(tmp, HASH_FILE), "w") as f:
        f.write(content_hash(tmp))
    os.replace(tmp, path)
    return path


def read_meta(path: str) -> dict:
    with open(os.path.join(path, "meta.json")) as f:
        return json.load(f)


def _write_meta(path: str, meta: dict) -> None:
    with open(os.path.join(path, "meta.json"), "w") as f:
        json.dump(meta, f, sort_keys=True)


def zipf_keys(rng, key_ids: np.ndarray, n: int, skew: float = ZIPF_SKEW) -> np.ndarray:
    """n draws of Zipf-distributed keys: rank r has weight r**-skew and maps
    to key_ids[r].  Draws are stratified (one uniform per 1/n quantile, then
    shuffled), so every seed gets nearly the same rank histogram and the
    seed changes which ids are hot and in what order, not how much work
    the draws make."""
    ranks = np.arange(1, len(key_ids) + 1, dtype=np.float64)
    cdf = np.cumsum(ranks**-skew)
    cdf /= cdf[-1]
    u = (np.arange(n) + rng.random(n)) / n
    drawn = np.minimum(np.searchsorted(cdf, u, side="right"), len(key_ids) - 1)
    rng.shuffle(drawn)
    return key_ids[drawn]


def gen_img(path: str, seed: int) -> None:
    from raywin.stages.images import FORMATS_MIXED, generate_image_events

    s = SIZES["img_backfill"]
    # raywin's own fixture generator: DecodeFeatures' invariants re-derive
    # each image's pixels from its id, so payloads must come from it.  It
    # also writes the per-row decoded-feature truth table the oracle reads.
    generate_image_events(
        os.path.join(path, "events"), n_rows=s["rows"], n_entities=s["entities"],
        seed=seed, base_ts=BASE_TS, span_days=s["span_days"], skew=ZIPF_SKEW,
        files=s["files"], formats=FORMATS_MIXED,
    )
    _write_meta(path, {"workload": "img_backfill", "seed": seed, **s})


def _write_parts(table, directory: str, files: int) -> None:
    import pyarrow.parquet as pq

    os.makedirs(directory)
    per = -(-table.num_rows // files)
    for i in range(files):
        pq.write_table(table.slice(i * per, per), os.path.join(directory, f"part-{i:04d}.parquet"))


def _numeric_events(rng, key_ids, n: int, lo: int, hi: int):
    import pyarrow as pa

    keys = zipf_keys(rng, key_ids, n)
    ts = rng.integers(lo, hi, n)
    order = np.argsort(ts, kind="stable")
    return pa.table({
        "user_id": keys[order],
        "ts": ts[order].astype(np.int64),
        # two decimals, so sums are exact enough for a tight tolerance
        "amount": np.round(rng.normal(50.0, 20.0, n), 2)[order],
        "clicks": rng.integers(0, 20, n)[order].astype(np.int64),
    })


def gen_events(path: str, seed: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    s = SIZES["events_backfill"]
    rng = np.random.default_rng([seed, 2])
    key_ids = rng.permutation(s["keys"]).astype(np.int64)
    span = s["span_days"] * DAY
    _write_parts(_numeric_events(rng, key_ids, s["rows"], BASE_TS, BASE_TS + span),
                 os.path.join(path, "events"), s["files"])
    q_lo = BASE_TS + span - s["query_days"] * DAY
    q = pa.table({
        "user_id": zipf_keys(rng, key_ids, s["queries"]),
        "ts": rng.integers(q_lo, BASE_TS + span, s["queries"]).astype(np.int64),
    })
    os.makedirs(os.path.join(path, "queries"))
    pq.write_table(q, os.path.join(path, "queries", "part-0000.parquet"))
    _write_meta(path, {"workload": "events_backfill", "seed": seed, "query_lo": q_lo,
                       "query_hi": BASE_TS + span, **s})


def gen_online(path: str, seed: int) -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    s = SIZES["online_fetch"]
    rng = np.random.default_rng([seed, 3])
    key_ids = rng.permutation(s["keys"]).astype(np.int64)
    batch_end = BASE_TS + s["batch_days"] * DAY
    _write_parts(_numeric_events(rng, key_ids, s["batch_rows"], BASE_TS, batch_end),
                 os.path.join(path, "batch"), 1)
    n_stream = s["micro_batches"] * s["micro_batch_rows"]
    # strictly increasing stream timestamps from the seam on (mean gap 5 s),
    # so a query ts can always fall after the last event put and no later
    # than the next one
    ts = batch_end + np.cumsum(rng.integers(1, 10_000, n_stream)).astype(np.int64)
    stream = _numeric_events(rng, key_ids, n_stream, 0, 1).set_column(1, "ts", pa.array(ts))
    pq.write_table(stream, os.path.join(path, "stream.parquet"))
    # requests after micro-batch i ask at a ts after the last event put and
    # no later than the next unput one, so "every event before the query ts"
    # is exactly what has been ingested
    mb = s["micro_batch_rows"]
    reqs = s["requests_per_batch"]
    rows = s["request_rows"]
    keys = zipf_keys(rng, key_ids, s["micro_batches"] * reqs * rows)
    req_id, mb_id, qts = [], [], []
    for i in range(s["micro_batches"]):
        last = int(ts[(i + 1) * mb - 1])
        nxt = int(ts[(i + 1) * mb]) if (i + 1) * mb < len(ts) else last + HOUR
        for r in range(reqs):
            req_id.append(np.full(rows, i * reqs + r))
            mb_id.append(np.full(rows, i))
            qts.append(rng.integers(last + 1, nxt + 1, rows))
    pq.write_table(pa.table({
        "req": np.concatenate(req_id).astype(np.int64),
        "micro_batch": np.concatenate(mb_id).astype(np.int64),
        "user_id": keys,
        "ts": np.concatenate(qts).astype(np.int64),
    }), os.path.join(path, "requests.parquet"))
    _write_meta(path, {"workload": "online_fetch", "seed": seed, "batch_end": batch_end, **s})


GENERATORS = {"img_backfill": gen_img, "events_backfill": gen_events, "online_fetch": gen_online}
