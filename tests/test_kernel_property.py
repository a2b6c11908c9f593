"""Property-based kernel-vs-NaiveOracle check (hypothesis).

The parametrized random suite (test_kernel_vs_oracle.py) covers one fixed
distribution; here hypothesis searches the adversarial corners: timestamps
ON hop boundaries, events exactly at query ts (strict-head exclusion),
duplicate timestamps, single-event keys, all-null values, windows equal to
or one hop larger than the data span.
"""

import json

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from raywin.aggregator.kernel import PartitionAggregator
from raywin.aggregator.windowing import FiveMinuteResolution, window_bounds
from raywin.api import Aggregation, Operation, TimeUnit, Window
from tests.test_kernel_vs_oracle import (
    BASE_TS, aggregate, run_case, same_bits, stable_sort_percentiles,
)

HOUR = 3600 * 1000
HOP = 5 * 60 * 1000  # FiveMinuteResolution tail hop for hourly windows

# offsets biased to land exactly on hop boundaries and their neighbours
offset = st.one_of(
    st.integers(0, 48).map(lambda h: h * HOP),
    st.integers(0, 48).map(lambda h: h * HOP + 1),
    st.integers(0, 48).map(lambda h: h * HOP - 1),
    st.integers(0, 4 * 24 * HOUR),
)

# values are clean 6-decimal numbers: the kernel's exact fixed-point path
# deliberately absorbs sub-1e-6 noise around <=4-digit decimals (kernel.py
# detect_decimal), so raw floats in that noise band would diverge from the
# sequential-sum oracle by design, not by bug
value = st.one_of(
    st.integers(-20, 20).map(float),
    st.floats(-100, 100, allow_nan=False).map(lambda x: round(x, 6)),
)

event = st.tuples(
    st.sampled_from(["a", "b"]),
    offset,
    st.one_of(st.none(), value),
)

OPS = [
    Operation.SUM,
    Operation.COUNT,
    Operation.AVERAGE,
    Operation.MIN,
    Operation.MAX,
    Operation.VARIANCE,
    Operation.FIRST,
    Operation.LAST,
    Operation.UNIQUE_COUNT,
]


@settings(max_examples=75, deadline=None)
@given(
    events=st.lists(event, min_size=1, max_size=40),
    query_offsets=st.lists(offset, min_size=1, max_size=10),
    window_hours=st.sampled_from([1, 2, 24, 7 * 24, None]),  # None = unbounded
    op=st.sampled_from(OPS),
    tie_query=st.booleans(),
)
def test_kernel_matches_oracle(events, query_offsets, window_hours, op, tie_query):
    ev = pd.DataFrame(
        {
            "user": [e[0] for e in events],
            "ts": np.array([BASE_TS + e[1] for e in events], dtype=np.int64),
            "value": np.array(
                [np.nan if e[2] is None else e[2] for e in events], dtype=np.float64
            ),
            "seq": np.arange(len(events)),
        }
    )
    q_ts = [BASE_TS + o for o in query_offsets]
    if tie_query:
        q_ts.append(int(ev["ts"].iloc[0]))  # exact tie with an event
    q = pd.DataFrame(
        {
            "user": ["a", "b"] * len(q_ts),
            "ts": np.array(q_ts * 2, dtype=np.int64),
        }
    )
    win = Window(-1) if window_hours is None else Window(window_hours, TimeUnit.HOURS)
    run_case([Aggregation(op, "value", windows=[win])], ev=ev, q=q)


K_OPS = [Operation.LAST_K, Operation.FIRST_K, Operation.TOP_K, Operation.BOTTOM_K]


@settings(max_examples=40, deadline=None)
@given(
    events=st.lists(event, min_size=1, max_size=30),
    query_offsets=st.lists(offset, min_size=1, max_size=8),
    window_hours=st.sampled_from([1, 24, None]),
    op=st.sampled_from(K_OPS),
    k=st.sampled_from([1, 3]),
)
def test_k_ops_match_oracle(events, query_offsets, window_hours, op, k):
    ev = pd.DataFrame(
        {
            "user": [e[0] for e in events],
            "ts": np.array([BASE_TS + e[1] for e in events], dtype=np.int64),
            "value": np.array(
                [np.nan if e[2] is None else e[2] for e in events], dtype=np.float64
            ),
            "seq": np.arange(len(events)),
        }
    )
    q = pd.DataFrame(
        {
            "user": ["a", "b"] * len(query_offsets),
            "ts": np.array(
                [BASE_TS + o for o in query_offsets] * 2, dtype=np.int64
            ),
        }
    )
    win = Window(-1) if window_hours is None else Window(window_hours, TimeUnit.HOURS)
    run_case([Aggregation(op, "value", windows=[win], arg_map={"k": k})], ev=ev, q=q)


@settings(max_examples=30, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),
            offset,
            st.floats(-50, 50, allow_nan=False).map(lambda x: round(x, 6)),
            st.sampled_from(["x", "y", "z"]),
        ),
        min_size=1,
        max_size=30,
    ),
    query_offsets=st.lists(offset, min_size=1, max_size=6),
    op=st.sampled_from([Operation.SUM, Operation.COUNT, Operation.AVERAGE]),
)
def test_bucketed_matches_oracle(events, query_offsets, op):
    ev = pd.DataFrame(
        {
            "user": [e[0] for e in events],
            "ts": np.array([BASE_TS + e[1] for e in events], dtype=np.int64),
            "value": np.array([e[2] for e in events], dtype=np.float64),
            "tag": [e[3] for e in events],
            "seq": np.arange(len(events)),
        }
    )
    q = pd.DataFrame(
        {
            "user": ["a", "b"] * len(query_offsets),
            "ts": np.array(
                [BASE_TS + o for o in query_offsets] * 2, dtype=np.int64
            ),
        }
    )
    run_case(
        [Aggregation(op, "value", windows=[Window(24, TimeUnit.HOURS)], buckets=["tag"])],
        ev=ev,
        q=q,
    )


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            offset,
            # duplicates, both zeros, both infinities and nulls
            st.one_of(st.none(), st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0]), value),
        ),
        min_size=1,
        max_size=60,
    ),
    queries=st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), offset), min_size=1, max_size=12),
    window=st.sampled_from([Window(1, TimeUnit.HOURS), Window(1, TimeUnit.DAYS),
                            Window(7, TimeUnit.DAYS), Window(30, TimeUnit.DAYS), Window(-1)]),
    pct=st.lists(st.one_of(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), st.floats(0, 1)),
                 min_size=1, max_size=4),
    disc=st.booleans(),
)
def test_percentile_engine_matches_stable_sort(events, queries, window, pct, disc):
    """Every percentile answer is, bit for bit, the documented rule over a
    stable sort of its window's values, and each key's answers are the same
    alone as in a call shared with the other keys."""
    ev = pd.DataFrame(
        {
            "user": [e[0] for e in events],
            "ts": np.array([BASE_TS + e[1] for e in events], dtype=np.int64),
            "value": np.array([np.nan if e[2] is None else e[2] for e in events], dtype=np.float64),
            "seq": np.arange(len(events)),
        }
    )
    q = pd.DataFrame({"user": [u for u, _ in queries],
                      "ts": np.array([BASE_TS + o for _, o in queries], dtype=np.int64)})
    arg_map = {"percentiles": json.dumps(pct)}
    if disc:
        arg_map["interpolation"] = "disc"
    parts = Aggregation(Operation.APPROX_PERCENTILE, "value", windows=[window], arg_map=arg_map).unpack()
    agg = PartitionAggregator(["user"], parts, FiveMinuteResolution, tie_breaker="seq")
    col = parts[0].output_column
    shared = aggregate(agg, ev, q)
    lo, hi = window_bounds(shared["ts"].to_numpy(), parts[0], FiveMinuteResolution)
    for user, a, b, got in zip(shared["user"], lo, hi, shared[col]):
        rows = ev[(ev["user"] == user) & (ev["ts"] >= a) & (ev["ts"] < b)].sort_values(["ts", "seq"])
        assert same_bits(got, stable_sort_percentiles(rows["value"], pct, disc)), (user, got)
    for user in set(q["user"]) & set(ev["user"]):
        alone = aggregate(agg, ev[ev["user"] == user], q[q["user"] == user])[col]
        mine = shared.loc[shared["user"] == user, col]
        assert all(same_bits(x, y) for x, y in zip(alone, mine)), user


def test_mix_codes_no_int64_wrap_aliasing():
    """4 high-cardinality key columns: prod(cards) > 2**62 would wrap the
    naive radix mix and alias distinct entities; _mix_codes must re-factorize
    mid-mix and keep the exact partition structure + encounter order of the
    object-tuple path (ADVICE r4: kernel.py radix guard)."""
    from raywin.aggregator.kernel import _mix_codes

    rng = np.random.default_rng(7)
    n = 70_000  # card per column == n -> n**4 ~ 2.4e19 > 2**62 ~ 4.6e18
    cols = [rng.permutation(n).astype(np.int64) for _ in range(4)]
    joint = _mix_codes(cols)
    # all 4-tuples are distinct (each column is a permutation paired by row),
    # so the joint codes must be a bijection onto 0..n-1 in encounter order
    assert len(np.unique(joint)) == n
    np.testing.assert_array_equal(joint, np.arange(n, dtype=joint.dtype))
    # and a low-cardinality sanity case keeps duplicate tuples grouped
    small = [np.array([0, 1, 0, 1]), np.array([0, 0, 0, 0]), np.array([2, 3, 2, 3])]
    np.testing.assert_array_equal(_mix_codes(small), np.array([0, 1, 0, 1]))
