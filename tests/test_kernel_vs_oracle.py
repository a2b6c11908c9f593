"""Vectorized partition kernel vs the brute-force NaiveOracle.

Mirrors the reference's layer-1 test strategy
(aggregator/src/test/scala/ai/chronon/aggregator/test/SawtoothAggregatorTest.scala:99-175):
random events + random query timestamps, every operation x window, exact or
allclose comparison per (query, column).
"""

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from raywin.api import Aggregation, Operation, TimeUnit, Window
from raywin.aggregator.kernel import PartitionAggregator
from raywin.aggregator.windowing import FiveMinuteResolution, NaiveOracle

WINDOWS = [Window(1, TimeUnit.HOURS), Window(1, TimeUnit.DAYS), Window(7, TimeUnit.DAYS), Window(30, TimeUnit.DAYS), Window(-1)]

BASE_TS = 1_600_000_000_000  # fixed epoch anchor


def gen_data(seed=7, n_events=2000, n_queries=300, n_keys=12, span_days=40, null_rate=0.01):
    rng = np.random.default_rng(seed)
    span = span_days * 24 * 3600 * 1000
    ev = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys, n_events).astype(str),
            "ts": BASE_TS + rng.integers(0, span, n_events),
            "value": rng.normal(50, 20, n_events),
            "qty": rng.integers(1, 100, n_events),
            "tag": rng.choice(["a", "b", "c"], n_events),
            "seq": np.arange(n_events),
        }
    )
    ev.loc[rng.random(n_events) < null_rate, "value"] = np.nan
    q = pd.DataFrame(
        {
            "user": rng.integers(0, n_keys + 2, n_queries).astype(str),  # some unmatched keys
            "ts": BASE_TS + rng.integers(0, span, n_queries),
        }
    )
    # exact-tie cases: query ts equal to an event ts of the same key
    for i in range(0, 20):
        q.loc[i, "user"] = ev.loc[i, "user"]
        q.loc[i, "ts"] = ev.loc[i, "ts"]
    return ev, q


def _check(part_col, kernel_out, oracle_out, op):
    assert len(kernel_out) == len(oracle_out)
    for i, (k, o) in enumerate(zip(kernel_out, oracle_out)):
        if o is None:
            assert k is None or (isinstance(k, float) and math.isnan(k)), f"{part_col}[{i}]: {k} != None"
            continue
        if isinstance(o, float):
            if math.isnan(o):
                assert k is None or math.isnan(k), f"{part_col}[{i}]: {k} != NaN"
            else:
                assert k is not None and not (isinstance(k, float) and math.isnan(k)), f"{part_col}[{i}]: None != {o}"
                assert math.isclose(float(k), o, rel_tol=1e-9, abs_tol=1e-9), f"{part_col}[{i}]: {k} != {o}"
        elif isinstance(o, list):
            assert list(k) == o or all(
                math.isclose(a, b, rel_tol=1e-9) for a, b in zip(k, o)
            ) and len(k) == len(o), f"{part_col}[{i}]: {k} != {o}"
        elif isinstance(o, dict):
            kd = dict(k)
            assert set(kd) == set(o), f"{part_col}[{i}]: {k} != {o}"
            for key in o:
                a, b = kd[key], o[key]
                if isinstance(b, float):
                    assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9), f"{part_col}[{i}][{key}]: {a} != {b}"
                else:
                    assert a == b, f"{part_col}[{i}][{key}]: {a} != {b}"
        else:
            assert k == o, f"{part_col}[{i}]: {k!r} != {o!r}"


def to_arrow(df: pd.DataFrame, types=None) -> pa.Table:
    """Arrow copy of a test frame; columns named in ``types`` (list / map
    inputs: map cells as dicts) get that explicit type."""
    types = types or {}
    cols = {}
    for c in df.columns:
        vals = df[c].to_numpy()
        t = types.get(c)
        if t is not None and pa.types.is_map(t):
            vals = [None if v is None else sorted(v.items()) for v in vals]
        cols[c] = pa.array(vals, type=t, from_pandas=True)
    return pa.table(cols)


def aggregate(agg, ev: pd.DataFrame, q: pd.DataFrame, types=None) -> pd.DataFrame:
    """agg.aggregate_tables over Arrow copies of ev and q: the query rows in
    kernel order plus one column per part."""
    q_order, results = agg.aggregate_tables(to_arrow(ev, types), to_arrow(q, types))
    out = q.iloc[q_order].reset_index(drop=True)
    for part in agg.parts:
        out[part.output_column] = results[part.output_column]
    return out


def run_case(aggs, ev=None, q=None, seed=7):
    if ev is None:
        ev, q = gen_data(seed)
    parts = [p for a in aggs for p in a.unpack()]
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
    out = aggregate(agg, ev, q)

    oracle = NaiveOracle(parts, FiveMinuteResolution)
    # oracle computed per key
    ev_rows_by_key = {}
    for row in ev.replace({np.nan: None}).to_dict("records"):
        ev_rows_by_key.setdefault(row["user"], []).append(row)
    for part in parts:
        col = out[part.output_column].tolist()
        expected = []
        for u, t in zip(out["user"], out["ts"]):
            res = NaiveOracle([part], FiveMinuteResolution).aggregate(
                ev_rows_by_key.get(u, []), [int(t)]
            )[0]
            expected.append(res[part.output_column])
        _check(part.output_column, col, expected, part.operation)
    return out


@pytest.mark.parametrize("op,col", [
    (Operation.SUM, "value"),
    (Operation.COUNT, "value"),
    (Operation.AVERAGE, "value"),
    (Operation.SUM, "qty"),
    (Operation.MIN, "value"),
    (Operation.MAX, "value"),
    (Operation.VARIANCE, "value"),
    (Operation.SKEW, "value"),
    (Operation.KURTOSIS, "value"),
    (Operation.FIRST, "value"),
    (Operation.LAST, "value"),
    (Operation.LAST, "tag"),
    (Operation.UNIQUE_COUNT, "tag"),
    (Operation.BOUNDED_UNIQUE_COUNT, "tag"),
    (Operation.HISTOGRAM, "tag"),
    (Operation.MIN, "tag"),
    (Operation.MAX, "tag"),
])
def test_op_vs_oracle(op, col):
    run_case([Aggregation(op, col, windows=WINDOWS)])


@pytest.mark.parametrize("op", [Operation.LAST_K, Operation.FIRST_K, Operation.TOP_K, Operation.BOTTOM_K])
def test_k_ops_vs_oracle(op):
    run_case([Aggregation(op, "value", windows=WINDOWS, arg_map={"k": 4})])


def test_bucketed_vs_oracle():
    run_case([Aggregation(Operation.SUM, "value", windows=WINDOWS[:3], buckets=["tag"])])
    run_case([Aggregation(Operation.AVERAGE, "qty", windows=[Window(7, TimeUnit.DAYS)], buckets=["tag"])])


def test_small_hand_case():
    """Exact-tie: event at query ts must be EXCLUDED (strict head,
    reference JoinTest.scala:409-411)."""
    ev = pd.DataFrame(
        {"user": ["u", "u", "u"], "ts": [1000, 2000, 3000], "value": [1.0, 2.0, 4.0], "seq": [0, 1, 2]}
    )
    q = pd.DataFrame({"user": ["u", "u", "u", "u"], "ts": [1000, 2000, 3000, 4000]})
    parts = Aggregation(Operation.SUM, "value").unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution)
    out = aggregate(agg, ev, q).sort_values("ts")
    got = out["value_sum"].tolist()
    assert math.isnan(got[0]) and got[1:] == [1.0, 3.0, 7.0]


def test_window_tail_rounding():
    """Tail boundary is round(q - w, hop): an event just inside the rounded
    hop start is included even though q - w is after it."""
    from raywin.api import MILLIS_HOUR

    # 1d window -> 1h tail hop (Resolution.scala:37-47)
    q_ts = BASE_TS + 30 * 60 * 1000 + 24 * 3600 * 1000  # w + 30min past base
    ev_ts = ((q_ts - 24 * 3600 * 1000) // MILLIS_HOUR) * MILLIS_HOUR  # rounded tail start
    ev = pd.DataFrame({"user": ["u", "u"], "ts": [ev_ts, ev_ts - 1], "value": [5.0, 100.0], "seq": [0, 1]})
    q = pd.DataFrame({"user": ["u"], "ts": [q_ts]})
    parts = Aggregation(Operation.SUM, "value", windows=[Window(1, TimeUnit.DAYS)]).unpack()
    out = aggregate(PartitionAggregator(["user"], parts, FiveMinuteResolution), ev, q)
    assert out["value_sum_1d"].tolist() == [5.0]  # ev_ts-1 is outside the rounded tail


def test_null_keys_and_passthrough_vs_oracle():
    """Null keys route the entity factorization through the object
    fallback, where null is a key of its own; string and list passthrough
    payload rides the q_order reorder untouched."""
    ev, q = gen_data(seed=11, n_events=3000, n_queries=500)
    ev.loc[ev.index[:5], "user"] = None
    q.loc[q.index[:3], "user"] = None
    q["qid"] = np.arange(len(q))
    q["url"] = [f"u/{i % 37}" for i in range(len(q))]
    q["emb"] = [[float(i % 5), float(i % 3)] for i in range(len(q))]
    out = run_case(
        [
            Aggregation(Operation.SUM, "value", windows=[Window(7, TimeUnit.DAYS)]),
            Aggregation(Operation.AVERAGE, "qty", windows=[Window(-1)]),
            Aggregation(Operation.LAST, "tag", windows=[Window(30, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "qty", windows=[Window(1, TimeUnit.DAYS)]),
        ],
        ev,
        q,
    )
    assert out["user"].isna().sum() == 3
    assert out["url"].tolist() == q["url"].to_numpy()[out["qid"]].tolist()
    assert [list(e) for e in out["emb"]] == [q["emb"][i] for i in out["qid"]]


def test_binned_percentiles_ignore_other_keys_in_the_call():
    """A hot key's wide windows take the binned percentile path (over 4M
    window values in one call).  Its bins are its own: adding a key whose
    values live on another scale to the same kernel call changes none of
    its answers, and they stay within a few bins of the exact ones."""
    rng = np.random.default_rng(5)
    n_ev, n_q, day = 3000, 2500, 86_400_000
    hot = pd.DataFrame({"user": "hot", "ts": BASE_TS + np.sort(rng.integers(0, 30 * day, n_ev)),
                        "value": rng.normal(50, 5, n_ev)})
    far = pd.DataFrame({"user": "far", "ts": BASE_TS + rng.integers(0, 30 * day, 200),
                        "value": rng.normal(1e6, 1e5, 200)})
    q = pd.DataFrame({"user": "hot", "ts": BASE_TS + 30 * day + np.sort(rng.integers(0, day, n_q))})
    aggs = [Aggregation(Operation.APPROX_PERCENTILE, "value", windows=[Window(60, TimeUnit.DAYS)],
                        arg_map={"k": 128, "percentiles": "[0.5, 0.95]"})]
    parts = [p for a in aggs for p in a.unpack()]
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution)
    col = parts[0].output_column
    alone = aggregate(agg, hot, q)[col].tolist()
    shared = aggregate(agg, pd.concat([hot, far], ignore_index=True), q)[col].tolist()
    assert alone == shared
    exact = np.quantile(hot["value"], [0.5, 0.95])
    assert np.allclose(alone[0], exact, rtol=0.01)


def test_light_key_percentiles_stay_exact_beside_a_heavy_key():
    """Exact vs binned is chosen per entity: a light key's percentiles are
    the same exact answers alone and when a heavy key in the same kernel
    call pushes the call past 4M window values."""
    rng = np.random.default_rng(11)
    day = 86_400_000
    light = pd.DataFrame({"user": "light", "ts": BASE_TS + np.sort(rng.integers(0, 30 * day, 400)),
                          "value": rng.normal(10, 3, 400)})
    heavy = pd.DataFrame({"user": "heavy", "ts": BASE_TS + np.sort(rng.integers(0, 30 * day, 3000)),
                          "value": rng.normal(50, 5, 3000)})
    q_light = pd.DataFrame({"user": "light", "ts": BASE_TS + 30 * day + np.sort(rng.integers(0, day, 300))})
    q_heavy = pd.DataFrame({"user": "heavy", "ts": BASE_TS + 30 * day + np.sort(rng.integers(0, day, 2500))})
    aggs = [Aggregation(Operation.APPROX_PERCENTILE, "value", windows=[Window(60, TimeUnit.DAYS)],
                        arg_map={"k": 128, "percentiles": "[0.5, 0.95]"})]
    parts = [p for a in aggs for p in a.unpack()]
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution)
    col = parts[0].output_column
    alone = aggregate(agg, light, q_light)[col].tolist()
    shared = aggregate(agg, pd.concat([heavy, light], ignore_index=True),
                       pd.concat([q_heavy, q_light], ignore_index=True))
    assert shared.loc[shared["user"] == "light", col].tolist() == alone
    assert alone[0] == np.quantile(light["value"], [0.5, 0.95]).tolist()


# Column kinds of the engine pin: one input column each, bucketed parts
# sum by "string" and element-wise parts read "list"
_ENGINE_KINDS = ("float", "decimal", "int", "string", "list", "map", "bucketed", "element_wise")

# The engine each part is served by, per kind (in _ENGINE_KINDS order)
_ENGINES = {
    "count": "prefix prefix prefix prefix list_prefix object object object",
    "sum": "prefix prefix prefix prefix list_prefix object object object",
    "average": "prefix prefix prefix prefix list_prefix object object object",
    "histogram": "object object object object object object object object",
    "min": "segtree segtree segtree segtree object object object object",
    "max": "segtree segtree segtree segtree object object object object",
    "first": "position position position position object object object object",
    "last": "position position position position object object object object",
    "first_k": "position position position position object object object object",
    "last_k": "position position position position object object object object",
    "top_k": "segtree segtree segtree object object object object object",
    "bottom_k": "segtree segtree segtree object object object object object",
    "unique_count": "object object object object object object object object",
    "approx_unique_count": "object object object object object object object object",
    "bounded_unique_count": "object object object object object object object object",
    "approx_histogram_k": "object object object object object object object object",
    "variance": "segtree exact_moments exact_moments object object object object object",
    "skew": "segtree exact_moments exact_moments object object object object object",
    "kurtosis": "segtree exact_moments exact_moments object object object object object",
    "approx_percentile": "percentile percentile percentile percentile object object object object",
}


class _Served(Exception):
    pass


def test_engine_per_op_and_column_kind(monkeypatch):
    """Every (operation, column kind) reaches the engine it has always
    reached.  The oracle tests check answers, so they would still pass if a
    part moved to the slower object engine; this pin would not."""
    for name in [n for n in vars(PartitionAggregator) if n.endswith("_engine")]:
        def served(self, *args, name=name, **kwargs):
            raise _Served(name[1:-len("_engine")])
        monkeypatch.setattr(PartitionAggregator, name, served)
    events = pa.table({
        "user": ["u"] * 4,
        "ts": pa.array([BASE_TS + i for i in range(4)], pa.int64()),
        "float": [0.1234567891, 2.718281828459, 3.14159265358, 1e-7],
        "decimal": [1.25, 2.5, 3.75, 5.0],
        "int": pa.array([3, 1, 4, 1], pa.int64()),
        "string": ["a", "b", "a", "c"],
        "list": pa.array([[1.0, 2.0], [3.0], [], [4.0, 5.0]], pa.list_(pa.float64())),
        "map": pa.array([[("a", 1.0)], [("b", 2.0)], [("a", 3.0)], []],
                        pa.map_(pa.string(), pa.float64())),
    })
    queries = pa.table({"user": ["u", "u"], "ts": pa.array([BASE_TS + 2, BASE_TS + 9], pa.int64())})
    got = {}
    for op in Operation:
        served = []
        for kind in _ENGINE_KINDS:
            col = {"bucketed": "float", "element_wise": "list"}.get(kind, kind)
            part = Aggregation(op, col, arg_map={"k": 2}, buckets=["string"] if kind == "bucketed" else None,
                               element_wise=kind == "element_wise").unpack()[0]
            with pytest.raises(_Served) as e:
                PartitionAggregator(["user"], [part]).aggregate_tables(events, queries)
            served.append(str(e.value))
        got[op.value] = " ".join(served)
    assert got == _ENGINES
