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
from raywin.aggregator.kernel import PartitionAggregator, output_type
from raywin.aggregator.windowing import FiveMinuteResolution, NaiveOracle, window_bounds

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
    kernel order plus one column per part, read from the part's Arrow array
    (of its declared type): float answers as floats with NaN for null, any
    other answer as its Python value with None for null."""
    events = to_arrow(ev, types)
    q_order, results = agg.aggregate_tables(events, to_arrow(q, types))
    out = q.iloc[q_order].reset_index(drop=True)
    for part in agg.parts:
        col = results[part.output_column]
        assert col.type == output_type(part, events.schema.field(part.input_column).type)
        out[part.output_column] = (
            col.to_numpy(zero_copy_only=False) if pa.types.is_floating(col.type)
            else pd.Series(col.to_pylist(), dtype=object)
        )
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


def stable_sort_percentiles(vals, pct, disc=False):
    """Percentiles of one window by the documented rules, from a stable sort
    of its non-null values (ties keep event order): disc reads nearest rank
    ceil(p*cnt)-1 clamped to [0, cnt-1]; linear reads lo = int(p*(cnt-1))
    and min(lo+1, cnt-1), answering v_lo when frac is 0.  None when empty."""
    v = np.asarray(vals, dtype=np.float64)
    v = np.sort(v[~np.isnan(v)], kind="stable")
    cnt = len(v)
    if cnt == 0:
        return None
    out = []
    for p in pct:
        if disc:
            out.append(float(v[min(max(math.ceil(p * cnt) - 1, 0), cnt - 1)]))
            continue
        pos = p * (cnt - 1)
        lo = int(pos)
        frac = pos - lo
        v_lo, v_hi = v[lo], v[min(lo + 1, cnt - 1)]
        out.append(float(v_lo if frac == 0 else v_lo * (1 - frac) + v_hi * frac))
    return out


def same_bits(a, b) -> bool:
    """Two percentile answers are the same lists of floats, NaN equal to NaN
    and the sign of zero included."""
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(
        (math.isnan(x) and math.isnan(y)) or (x == y and np.signbit(x) == np.signbit(y))
        for x, y in zip(a, b)
    )


def test_linear_percentile_does_not_depend_on_neighbour_keys():
    """A key whose window holds [1.0, inf] gets [1.0, inf] for percentiles
    [0.0, 0.5] alone and beside a 3000-event key: p = 0 lands exactly on 1.0
    (frac 0), so inf never meets a zero weight."""
    day = 86_400_000
    a = pd.DataFrame({"user": "a", "ts": [BASE_TS, BASE_TS + 1], "value": [1.0, np.inf]})
    rng = np.random.default_rng(2)
    b = pd.DataFrame({"user": "b", "ts": BASE_TS + np.sort(rng.integers(0, 20 * day, 3000)),
                      "value": rng.normal(0, 1, 3000)})
    q = pd.DataFrame({"user": ["a", "b"], "ts": [BASE_TS + 21 * day] * 2})
    parts = Aggregation(Operation.APPROX_PERCENTILE, "value", windows=[Window(30, TimeUnit.DAYS)],
                        arg_map={"percentiles": "[0.0, 0.5]"}).unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution)
    col = parts[0].output_column
    alone = aggregate(agg, a, q.iloc[:1])[col].tolist()
    shared = aggregate(agg, pd.concat([a, b], ignore_index=True), q)
    assert alone == [[1.0, np.inf]]
    assert shared.loc[shared["user"] == "a", col].tolist() == [[1.0, np.inf]]


def test_percentile_ties_keep_event_order():
    """Among equal values the earlier event ranks first, so a window of
    mixed 0.0 and -0.0 answers with the zero a stable sort puts there."""
    rng = np.random.default_rng(4)
    n, hour = 2000, 3_600_000
    ev = pd.DataFrame({"user": "u", "ts": BASE_TS + np.sort(rng.integers(0, 48 * hour, n)),
                       "value": rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -1.0], n),
                       "seq": np.arange(n)})
    q = pd.DataFrame({"user": "u", "ts": BASE_TS + np.sort(rng.integers(hour, 49 * hour, 300))})
    pct = [0.3, 0.4, 0.5, 0.6, 0.7]
    for disc in (True, False):
        arg_map = {"percentiles": str(pct)} | ({"interpolation": "disc"} if disc else {})
        parts = Aggregation(Operation.APPROX_PERCENTILE, "value", windows=[Window(6, TimeUnit.HOURS)],
                            arg_map=arg_map).unpack()
        agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
        out = aggregate(agg, ev, q)
        lo, hi = window_bounds(out["ts"].to_numpy(), parts[0], FiveMinuteResolution)
        for a, b, got in zip(lo, hi, out[parts[0].output_column]):
            win = ev.loc[(ev["ts"] >= a) & (ev["ts"] < b), "value"]
            assert same_bits(got, stable_sort_percentiles(win, pct, disc)), (b, got)


def test_hot_key_percentiles_ignore_other_keys_in_the_call():
    """A hot key (7.5M window values over its 2500 queries) gets the exact
    percentiles of its window, the same alone and beside a key whose values
    live on another scale."""
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
    # every window holds all of the hot key's events
    assert alone == [stable_sort_percentiles(hot["value"], [0.5, 0.95])] * n_q


def test_light_key_percentiles_stay_exact_beside_a_heavy_key():
    """A light key's percentiles are the same exact answers alone and beside
    a heavy key whose windows hold 7.5M values, and the heavy key's are
    exact too."""
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
    assert shared.loc[shared["user"] == "heavy", col].tolist() == (
        [stable_sort_percentiles(heavy["value"], [0.5, 0.95])] * len(q_heavy))


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


_PIN_EVENTS = pa.table({
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
# windows of 0, 2 and 4 events
_PIN_QUERIES = pa.table({"user": ["u"] * 3, "ts": pa.array([BASE_TS, BASE_TS + 2, BASE_TS + 9], pa.int64())})


def _pin_part(op, kind, k=2):
    col = {"bucketed": "float", "element_wise": "list"}.get(kind, kind)
    return Aggregation(op, col, arg_map={"k": k}, buckets=["string"] if kind == "bucketed" else None,
                       element_wise=kind == "element_wise").unpack()[0]


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
    got = {}
    for op in Operation:
        served = []
        for kind in _ENGINE_KINDS:
            with pytest.raises(_Served) as e:
                PartitionAggregator(["user"], [_pin_part(op, kind)]).aggregate_tables(_PIN_EVENTS, _PIN_QUERIES)
            served.append(str(e.value))
        got[op.value] = " ".join(served)
    assert got == _ENGINES


# ops that need numbers: over the string column they have no answer
_NUMERIC_ONLY = {Operation.SUM, Operation.AVERAGE, Operation.VARIANCE, Operation.SKEW,
                 Operation.KURTOSIS, Operation.APPROX_PERCENTILE}


@pytest.mark.parametrize("case", ["events", "zero_events", "all_null", "ragged"])
def test_every_engine_answers_with_its_declared_arrow_type(case):
    """Every (operation, column kind) answers with one Arrow array of the
    part's declared output type, one row per query, null for the empty
    window: over the pin's events, over no events, over all-null input
    columns, and with k = 3 where a window holds 2 events (ragged
    LAST_K/FIRST_K/TOP_K lists)."""
    events = _PIN_EVENTS
    if case == "zero_events":
        events = events.slice(0, 0)
    elif case == "all_null":
        events = pa.table({f.name: events[f.name] if f.name in ("user", "ts") else pa.nulls(4, f.type)
                           for f in events.schema})
    for op in Operation:
        for kind in _ENGINE_KINDS:
            if kind == "string" and op in _NUMERIC_ONLY:
                continue
            part = _pin_part(op, kind, k=3 if case == "ragged" else 2)
            q_order, results = PartitionAggregator(["user"], [part]).aggregate_tables(events, _PIN_QUERIES)
            got = results[part.output_column]
            assert isinstance(got, pa.Array), (op, kind, type(got))
            assert got.type == output_type(part, events.schema.field(part.input_column).type), (op, kind)
            assert len(got) == len(q_order) == 3, (op, kind)
            assert not got[0].is_valid, (op, kind)  # q_order is ts order: the empty window first
