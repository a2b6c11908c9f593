"""The upload blob codec (upload.encode_irs / IRTable): every IR the upload
fold produced reads back from its blob bit for bit, with its own type;
parts without an ir_array, or whose IRs the words cannot give back,
ride a pickled section; and a Fetcher decodes a request's cache misses in
one pass, with no per-key decode."""

import struct

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.aggregator.scalar_ops import Average, Count, LastK, Max, Min, Sum
from raywin.api import MILLIS_5MIN, Aggregation, Operation, TimeUnit, Window
from raywin.online import Fetcher
from raywin.online import upload as upload_mod
from raywin.online.serving import KeyIRs, SawtoothOnlineAggregator
from raywin.online.upload import IR_COL, IRTable, UploadKernel, encode_dicts, encode_irs, read_ir

from .test_online import _same
from .test_serving_request import BASE, DAY, HOUR, _gb, _online_fetch_gb, _upload

I64 = np.iinfo(np.int64)


def _bits(x):
    """x as a comparable value that tells apart types, signed zeros and
    NaN payloads."""
    if isinstance(x, (list, tuple)):
        return type(x), [_bits(v) for v in x]
    if isinstance(x, dict):
        return dict, {k: _bits(v) for k, v in x.items()}
    if isinstance(x, float):  # float and np.float64
        return type(x), struct.pack("<d", x)
    return type(x), x


# SUM, COUNT, AVERAGE, MIN and MAX over a float column with signed zeros
# and infinities (an inf - inf sum is a NaN IR) and an int64 column with
# its extremes (sums wrap); LAST_K, UNIQUE_COUNT and HISTOGRAM keep object
# IRs
_UPLOAD_OPS = [
    (Operation.SUM, {}), (Operation.COUNT, {}), (Operation.AVERAGE, {}),
    (Operation.MIN, {}), (Operation.MAX, {}), (Operation.LAST_K, {"k": 2}),
    (Operation.UNIQUE_COUNT, {}), (Operation.HISTOGRAM, {}),
]
_WINDOWS = [None, Window(1, TimeUnit.HOURS), Window(13, TimeUnit.HOURS), Window(15, TimeUnit.DAYS)]
_FLOATS = [0.0, -0.0, 1.5, -2.25, np.inf, -np.inf, np.nan, 1e308]
_INTS = [0, 1, -1, 7, int(I64.max), int(I64.min), int(I64.max) - 3]


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.tuples(st.sampled_from(_UPLOAD_OPS), st.sampled_from(_WINDOWS),
                  st.sampled_from(["v", "n", "s"])),
        min_size=1, max_size=6,
    ),
    n_events=st.integers(0, 200),
    seed=st.integers(0, 2**31),
)
def test_upload_blobs_read_back_what_the_fold_produced(specs, n_events, seed):
    """read_ir of each key's blob gives exactly the collapsed IR and the
    (start, IR) tiles the upload fold handed to encode_irs: same types,
    same bits (-0.0, NaN, int64 extremes), object IRs equal."""
    specs = [(op, w, col) for op, w, col in specs
             if col != "s" or op[0] in (Operation.LAST_K, Operation.HISTOGRAM,
                                        Operation.UNIQUE_COUNT, Operation.COUNT)]
    if not specs:
        return
    rng = np.random.default_rng(seed)
    batch_end = BASE + 2 * DAY
    gb = _gb([Aggregation(op, col, windows=[w] if w else [Window(-1)], arg_map=am)
              for (op, am), w, col in specs])
    events = pd.DataFrame({
        "k": [f"k{i}" for i in rng.integers(0, 5, n_events)],
        "ts": (batch_end - rng.integers(1, 3 * DAY, n_events)).astype(np.int64),
        "v": rng.choice(_FLOATS, n_events),
        "n": rng.choice(np.array(_INTS, dtype=np.int64), n_events),
        "s": rng.choice(["a", "b", None], n_events),
    })
    parts = gb.agg_parts()
    folded = []
    encode = upload_mod.encode_irs

    def recording(ops, n_keys, p):
        folded.append(p)
        return encode(ops, n_keys, p)

    kernel = UploadKernel(["k"], parts, batch_end, 2 * DAY, [pa.field("k", pa.string())])
    upload_mod.encode_irs = recording
    try:
        out = kernel(pa.Table.from_pandas(events, preserve_index=False))
    finally:
        upload_mod.encode_irs = encode
    (fold,) = folded
    cols = [p.output_column for p in parts]
    for k, blob in enumerate(out[IR_COL].to_pylist()):
        ir = read_ir(blob, cols)
        for col, (ck, c_irs, tk, starts, t_irs) in zip(cols, fold):
            c = [x for kk, x in zip(ck.tolist(), c_irs) if kk == k]
            want_t = [(s, x) for kk, s, x in zip(tk.tolist(), starts.tolist(), t_irs) if kk == k]
            assert _bits(ir[col]["c"]) == _bits(c[0] if c else None), col
            assert _bits(ir[col]["t"]) == _bits(want_t), col
            assert all(type(s) is int for s, _ in ir[col]["t"])


def _scalars(kind):
    """IRs of one Python type for SUM, MIN and MAX."""
    return {
        "f8": st.sampled_from(_FLOATS).map(np.float64),
        "pyf": st.sampled_from(_FLOATS),
        "i8": st.sampled_from(_INTS).map(np.int64),
        "pyi": st.sampled_from(_INTS + [2**63, -(2**70)]),  # beyond int64: pickled
        "mixed": st.sampled_from([1.5, np.float64(2.0), 3, np.int64(4)]),  # pickled
    }[kind]


_CRAFTED = [
    (Sum(), None), (Min(), None), (Max(), None),
    (Count(), st.integers(0, 2**62)),
    (Average(), st.tuples(st.sampled_from(_FLOATS), st.integers(1, 2**53)).map(list)),
    (LastK(2), st.lists(st.tuples(st.integers(0, 99), st.floats(allow_nan=False)),
                        max_size=2)),
]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_keys=st.integers(0, 5))
def test_crafted_irs_round_trip(data, n_keys):
    """encode_irs then IRTable: keys with no collapsed IR, zero tiles or no
    IRs at all, Python and numpy scalars, ints beyond int64 and mixed
    types (both pickled) read back bit for bit."""
    ops, parts, want = [], [], [{} for _ in range(n_keys)]
    for i, (op, gen) in enumerate(data.draw(st.lists(st.sampled_from(_CRAFTED), min_size=1,
                                                      max_size=5))):
        if gen is None:
            gen = _scalars(data.draw(st.sampled_from(["f8", "pyf", "i8", "pyi", "mixed"])))
        ck, c_irs, tk, starts, t_irs = [], [], [], [], []
        for k in range(n_keys):
            c = data.draw(st.one_of(st.none(), gen))
            if c is not None:
                ck.append(k)
                c_irs.append(c)
            ts = sorted(data.draw(st.lists(st.integers(-10**15, 10**15), max_size=4)))
            irs = [data.draw(gen) for _ in ts]
            tk += [k] * len(ts)
            starts += ts
            t_irs += irs
            want[k][f"p{i}"] = {"c": c, "t": list(zip(ts, irs))}
        ops.append(op)
        parts.append((np.array(ck, dtype=np.int64), c_irs, np.array(tk, dtype=np.int64),
                      np.array(starts, dtype=np.int64), t_irs))
    cols = [f"p{i}" for i in range(len(ops))]
    blobs = encode_irs(ops, n_keys, parts).to_pylist()
    assert all(len(b) % 8 == 0 for b in blobs)
    table = IRTable(cols)
    rows = table.add(blobs)
    for k in range(n_keys):
        assert _bits(table.ir(int(rows[k]))) == _bits(want[k])
        assert _bits(read_ir(blobs[k], cols)) == _bits(want[k])
    # dict form -> blob -> dict form
    assert [_bits(read_ir(b, cols)) for b in encode_dicts(ops, cols, want)] == \
        [_bits(w) for w in want]


def test_mixed_kinds_in_one_request_match_the_reference_lambda():
    """Keys whose SUM IRs are float64 for one and int64 or pickled Python
    ints for the others, decoded into one table: the request folds that
    part from a list of IRs and answers as the per-row lambda."""
    gb = _gb([Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.HOURS)]),
              Aggregation(Operation.AVERAGE, "v")])
    batch_end = BASE + DAY
    agg = SawtoothOnlineAggregator(gb, batch_end)
    cols = agg.columns
    t0 = batch_end - HOUR

    def ir(c, tiles):
        return {cols[0]: {"c": c, "t": [(t0 + i * MILLIS_5MIN, x) for i, x in enumerate(tiles)]},
                cols[1]: {"c": [1.5, 2], "t": []}}

    irs = [ir(np.float64(2.5), [np.float64(1.0), np.float64(-0.0)]),
           ir(np.int64(7), [np.int64(1), np.int64(2)]),
           ir(2**64, [1, 2])]
    table = IRTable(cols)
    rows = table.add([b for x in irs for b in encode_dicts(agg.ops, cols, [x])] + [None])
    assert table.gather(rows)[3][0].__class__ is list  # one part, three kinds
    qts = np.array([batch_end + 1, batch_end + 20 * 60_000, batch_end + 2 * HOUR] * 4)
    got = agg.lambda_aggregate_many(KeyIRs(table, rows), None, None, qts, [0, 0, 0, 0, 0],
                                    [0, 3, 6, 9, 12])
    for i, q in enumerate(qts.tolist()):
        want = agg.lambda_aggregate(irs[i // 3] if i < 9 else None, None, None, q)
        for c, w in want.items():
            assert _same(got[c][i], w), (i, c)


def test_request_misses_decode_in_one_pass(monkeypatch):
    """On online_fetch's numeric GroupBy, every fetch_batch with cache
    misses decodes them with one IRTable.add call over all of them; no
    blob is unpickled and no IR is rebuilt key by key."""
    gb, events = _online_fetch_gb()
    batch_end = BASE + 7 * DAY
    blobs = _upload(gb, events, batch_end)
    tail = events[events["ts"] >= batch_end].reset_index(drop=True)
    fetcher = Fetcher(gb, batch_end, upload=blobs)
    adds = []
    add = fetcher._irs.add
    fetcher._irs.add = lambda b: adds.append(len(b)) or add(b)

    def per_key(*args):
        raise AssertionError("a per-key decode")

    monkeypatch.setattr(IRTable, "_irs", per_key)
    rng = np.random.default_rng(4)
    multi = 0
    for m in range(0, len(tail), 300):
        batch = tail.iloc[m:m + 300]
        fetcher.put_events(batch)
        req = pd.DataFrame({
            "k": rng.choice([f"u{i}" for i in range(70)], 8),
            "ts": int(batch["ts"].max()) + rng.integers(1, HOUR, 8),
        })
        new = set(req["k"]) - {k for (k,) in fetcher._cache}
        before = len(adds)
        fetcher.fetch_batch(req)
        assert adds[before:] == ([len(new)] if new else []), (adds[before:], len(new))
        multi += len(new) > 1
    assert multi > 0
    assert not fetcher._irs.objects  # nothing was unpickled
