"""List auto-explode and map-column aggregation vs brute-force oracles.

Mirrors the reference's VectorDispatcher / MapColumnAggregator semantics
(ColumnAggregator.scala:79-116, MapColumnAggregator.scala:1-75): a
``list<T>`` input aggregates every element as if it were its own row; a
``map<K, V>`` input aggregates values per key and outputs ``map<K, out>``.
Oracle = explode in the test, then the same NaiveOracle used by the scalar
kernel tests.
"""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raywin.api import Aggregation, Operation, TimeUnit, Window
from raywin.aggregator.kernel import PartitionAggregator
from raywin.aggregator.windowing import FiveMinuteResolution, NaiveOracle, window_bounds

from .test_kernel_vs_oracle import _check, aggregate

WINDOWS = [Window(1, TimeUnit.DAYS), Window(7, TimeUnit.DAYS), Window(-1)]
TYPES = {"emb": pa.list_(pa.float64()), "m": pa.map_(pa.string(), pa.int64())}
BASE_TS = 1_600_000_000_000


def gen_list_data(seed=11, n_events=600, n_queries=80, n_keys=6, span_days=20):
    rng = np.random.default_rng(seed)
    span = span_days * 24 * 3600 * 1000
    embs = []
    for _ in range(n_events):
        if rng.random() < 0.05:
            embs.append(None)  # whole-cell null
            continue
        ln = int(rng.integers(0, 5))
        lst = [float(x) for x in np.round(rng.normal(10, 5, ln), 3)]
        if ln and rng.random() < 0.1:
            lst[int(rng.integers(0, ln))] = float("nan")  # element null
        embs.append(lst)
    ev = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys, n_events).astype(str),
            "ts": BASE_TS + rng.integers(0, span, n_events),
            "emb": np.array(embs + [None], dtype=object)[:-1],
            "seq": np.arange(n_events),
        }
    )
    q = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys + 1, n_queries).astype(str),
            "ts": BASE_TS + rng.integers(0, span, n_queries),
        }
    )
    return ev, q


def _exploded_by_key(ev):
    rows = {}
    for r in ev.to_dict("records"):
        lst = r["emb"]
        if lst is None:
            continue
        for x in lst:
            if isinstance(x, float) and math.isnan(x):
                continue
            rows.setdefault(r["user"], []).append({"ts": int(r["ts"]), "value": x})
    return rows


@pytest.mark.parametrize(
    "op,args",
    [
        (Operation.SUM, None),
        (Operation.COUNT, None),
        (Operation.AVERAGE, None),
        (Operation.MIN, None),
        (Operation.MAX, None),
        (Operation.UNIQUE_COUNT, None),
        (Operation.TOP_K, {"k": 3}),
    ],
)
def test_list_explode_vs_oracle(op, args):
    ev, q = gen_list_data()
    parts = Aggregation(op, "emb", windows=WINDOWS, arg_map=args or {}).unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
    out = aggregate(agg, ev, q, TYPES)

    flat = _exploded_by_key(ev)
    for part in parts:
        scalar = Aggregation(op, "value", windows=[part.window], arg_map=args or {}).unpack()[0]
        col = out[part.output_column].tolist()
        expected = [
            NaiveOracle([scalar], FiveMinuteResolution).aggregate(
                flat.get(u, []), [int(t)]
            )[0][scalar.output_column]
            for u, t in zip(out["user"], out["ts"])
        ]
        _check(part.output_column, col, expected, op)


@pytest.mark.parametrize(
    "op,reduce", [(Operation.SUM, np.sum), (Operation.AVERAGE, np.mean), (Operation.MAX, np.max)]
)
def test_element_wise_vs_oracle(op, reduce):
    """element_wise=True (ElementWiseOp): output[i] reduces element i of
    every in-window list that has one, against a per-index numpy
    reference.  Lists are ragged (0-4 elements), so a longer list after a
    shorter one appends indexes to the IR (ElementWiseOp.update's append)."""
    ev, q = gen_list_data()
    ev["emb"] = pd.Series(
        [None if v is None else [x for x in v if not math.isnan(x)] for v in ev["emb"]],
        dtype=object,
    )
    parts = Aggregation(op, "emb", windows=WINDOWS, element_wise=True).unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
    out = aggregate(agg, ev, q, TYPES)

    has_list = ev["emb"].notna().to_numpy()
    for part in parts:
        lo, hi = window_bounds(out["ts"].to_numpy(), part, FiveMinuteResolution)
        expected = []
        for u, l, h in zip(out["user"], lo, hi):
            m = has_list & (ev["user"] == u).to_numpy() & (ev["ts"] >= l).to_numpy() & (ev["ts"] < h).to_numpy()
            lists = ev["emb"][m].tolist()
            width = max(map(len, lists), default=0)
            expected.append(
                [float(reduce([v[i] for v in lists if len(v) > i])) for i in range(width)]
                if lists else None
            )
        assert any(e and len(e) > 1 for e in expected)
        _check(part.output_column, out[part.output_column].tolist(), expected, op)


def gen_map_data(seed=13, n_events=300, n_queries=50, n_keys=5, span_days=15):
    rng = np.random.default_rng(seed)
    span = span_days * 24 * 3600 * 1000
    subkeys = ["a", "b", "c", "d"]
    maps = []
    for _ in range(n_events):
        if rng.random() < 0.05:
            maps.append(None)
            continue
        ks = [k for k in subkeys if rng.random() < 0.6]
        maps.append({k: int(rng.integers(1, 50)) for k in ks})
    ev = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys, n_events).astype(str),
            "ts": BASE_TS + rng.integers(0, span, n_events),
            "m": np.array(maps + [None], dtype=object)[:-1],
            "seq": np.arange(n_events),
        }
    )
    q = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys + 1, n_queries).astype(str),
            "ts": BASE_TS + rng.integers(0, span, n_queries),
        }
    )
    return ev, q


@pytest.mark.parametrize(
    "op", [Operation.SUM, Operation.COUNT, Operation.AVERAGE, Operation.MAX]
)
def test_map_column_vs_oracle(op):
    ev, q = gen_map_data()
    parts = Aggregation(op, "m", windows=WINDOWS[:2]).unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
    out = aggregate(agg, ev, q, TYPES)

    # per-subkey scalar rows
    per_key: dict = {}
    for r in ev.to_dict("records"):
        m = r["m"]
        if m is None:
            continue
        for k, v in m.items():
            per_key.setdefault((r["user"], k), []).append({"ts": int(r["ts"]), "value": v})
    subkeys = sorted({k for (_, k) in per_key})

    for part in parts:
        scalar = Aggregation(op, "value", windows=[part.window]).unpack()[0]
        oracle = NaiveOracle([scalar], FiveMinuteResolution)
        col = out[part.output_column].tolist()
        expected = []
        for u, t in zip(out["user"], out["ts"]):
            d = {}
            for k in subkeys:
                res = oracle.aggregate(per_key.get((u, k), []), [int(t)])[0][
                    scalar.output_column
                ]
                if res is not None:
                    d[k] = res
            expected.append(d or None)
        _check(part.output_column, col, expected, op)


def test_list_map_pipeline(ray_session, exchange_block_rows, tmp_path):
    """End-to-end through features_for_queries: arrow list/map typing,
    maps_as_pydicts conversion, the kernel's answers of the declared types."""
    import ray.data

    from raywin.api import Accuracy, EventSource, GroupBy, Query
    from raywin.pipelines.group_by import features_for_queries

    exchange_block_rows(128)
    ev, q = gen_list_data(seed=17, n_events=200, n_queries=40, n_keys=4)
    evm, _ = gen_map_data(seed=17, n_events=200, n_queries=1, n_keys=4)
    tbl = pa.table(
        {
            "user": pa.array(ev["user"]),
            "ts": pa.array(ev["ts"].astype("int64")),
            "emb": pa.array(ev["emb"].tolist(), type=pa.list_(pa.float64())),
            "m": pa.array(
                [None if m is None else sorted(m.items()) for m in evm["m"]],
                type=pa.map_(pa.string(), pa.int64()),
            ),
        }
    )
    import pyarrow.parquet as pq

    path = str(tmp_path / "listmap.parquet")
    pq.write_table(tbl, path)

    gb = GroupBy(
        sources=[
            EventSource(
                table=path,
                query=Query(
                    selects={"user": "user", "emb": "emb", "m": "m"},
                    time_column="ts",
                ),
            )
        ],
        key_columns=["user"],
        aggregations=[
            Aggregation(Operation.SUM, "emb", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "emb"),
            Aggregation(Operation.SUM, "m", windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="listmap",
    )
    left = ray.data.read_parquet(path, columns=["user", "ts"])
    out = features_for_queries(gb, left)
    sch = out.schema()
    t_by_name = dict(zip(sch.names, sch.types))
    assert pa.types.is_floating(t_by_name["emb_sum_7d"])
    assert pa.types.is_floating(t_by_name["emb_average"])
    assert pa.types.is_map(t_by_name["m_sum_7d"])
    df = out.to_pandas()
    assert len(df) == len(ev)

    # spot-check one row against the kernel directly
    agg = PartitionAggregator(
        ["user"],
        [p for a in gb.aggregations for p in a.unpack()],
        FiveMinuteResolution,
    )
    ev_k = ev.copy()
    ev_k["m"] = evm["m"].to_numpy()
    exp = aggregate(agg, ev_k, ev[["user", "ts"]].copy(), TYPES)
    exp_map = dict(
        zip(zip(exp["user"], exp["ts"]), zip(exp["emb_sum_7d"], exp["emb_average"]))
    )
    for _, row in df.head(25).iterrows():
        e_sum, e_avg = exp_map[(row["user"], row["ts"])]
        for got, want in ((row["emb_sum_7d"], e_sum), (row["emb_average"], e_avg)):
            if want is None or (isinstance(want, float) and math.isnan(want)):
                assert got is None or (isinstance(got, float) and math.isnan(got))
            else:
                assert math.isclose(float(got), float(want), rel_tol=1e-9)
