"""The kernel's tile two-stack (``kernel._TileTwoStack``) vs the brute-force
NaiveOracle, and its linear merge bound.

The kernel reaches the two-stack only through its object engine (K-ops,
sets, maps, sketches).  These cases drive it directly over every op shape,
the sawtooth way: whole hop tiles in the stack, the query's own partial tile
folded from raw events (reference TwoStackLiteAggregatorTest semantics:
exact agreement with naive recompute on sorted events/queries)."""

import copy

import numpy as np
import pytest

from raywin.api import MILLIS_5MIN, Aggregation, Operation, TimeUnit, Window
from raywin.aggregator.kernel import _TileTwoStack
from raywin.aggregator.scalar_ops import Sum, make_scalar_op
from raywin.aggregator.windowing import FiveMinuteResolution, NaiveOracle, round_down

HOUR = 3600 * 1000
DAY = 24 * HOUR
BASE = 1_700_000_000_000


def _mk_events(rng, n):
    ts = np.sort(rng.integers(0, 10 * DAY, n)) + BASE
    vals = rng.normal(50, 20, n).round(2)
    vals[rng.random(n) < 0.08] = np.nan  # null guard path
    return ts, vals


def _two_stack_windows(part, ev_ts, vals, q_ts):
    """Window answers for ascending q_ts: hop-tile IRs (one fold_segments
    call over the non-null events) pushed into a _TileTwoStack and evicted
    below each query's window start, merged with the query's partial tile.
    The pushed IRs must come back unchanged: the stack clones before every
    merge that may mutate its first argument."""
    op = make_scalar_op(part)
    hop = MILLIS_5MIN if part.window.unbounded else FiveMinuteResolution.tail_hop(part.window)
    tile = ev_ts // hop
    st = np.concatenate(([0], np.flatnonzero(np.diff(tile)) + 1))
    tile_ids, tile_irs = tile[st].tolist(), op.fold_segments(vals, ev_ts, st)
    pristine = copy.deepcopy(tile_irs)
    stack = _TileTwoStack(op)
    pushed = 0
    out = []
    for q in q_ts.tolist():
        while pushed < len(tile_ids) and tile_ids[pushed] < q // hop:
            stack.push(tile_ids[pushed], tile_irs[pushed])
            pushed += 1
        if not part.window.unbounded:
            stack.evict_before(round_down(q - part.window.millis, hop) // hop)
        ir = stack.query_cloned()
        a, b = np.searchsorted(ev_ts, [round_down(q, hop), q])
        if b > a:
            head = op.fold_segments(vals[a:b], ev_ts[a:b], np.zeros(1, dtype=np.int64))[0]
            ir = head if ir is None else op.merge(ir, head)
        out.append(None if ir is None else op.finalize(ir))
    assert tile_irs == pristine
    return out


@pytest.mark.parametrize(
    "op,args,window",
    [
        (Operation.SUM, {}, Window(1, TimeUnit.DAYS)),
        (Operation.COUNT, {}, Window(6, TimeUnit.HOURS)),
        (Operation.AVERAGE, {}, Window(2, TimeUnit.DAYS)),
        (Operation.MIN, {}, Window(1, TimeUnit.DAYS)),
        (Operation.MAX, {}, None),  # unbounded
        (Operation.LAST_K, {"k": 3}, Window(12, TimeUnit.HOURS)),
        (Operation.UNIQUE_COUNT, {}, Window(3, TimeUnit.DAYS)),
        (Operation.HISTOGRAM, {}, Window(1, TimeUnit.DAYS)),
    ],
)
def test_two_stack_matches_naive(op, args, window):
    rng = np.random.default_rng(5)
    ev_ts, ev_vals = _mk_events(rng, 400)
    q_ts = np.sort(rng.integers(0, 10 * DAY, 120)) + BASE
    agg = Aggregation(op, "v", windows=[window] if window else None, arg_map=args)
    part = agg.unpack()[0]

    ok = ~np.isnan(ev_vals)
    ev_ts, ev_vals = ev_ts[ok], ev_vals[ok]
    if op is Operation.HISTOGRAM:
        ev_vals = np.array([str(int(v)) for v in np.round(ev_vals / 20)], dtype=object)

    got = _two_stack_windows(part, ev_ts, ev_vals, q_ts)

    events = [{"ts": int(t), "v": v} for t, v in zip(ev_ts, ev_vals.tolist())]
    exp = [row[part.output_column]
           for row in NaiveOracle([part]).aggregate(events, q_ts.tolist())]

    assert len(got) == len(exp)
    for g, e, q in zip(got, exp, q_ts):
        if e is None:
            assert g is None, q
        elif isinstance(e, float):
            assert g == pytest.approx(e, rel=1e-9), q
        else:
            assert g == e, q


def test_two_stack_amortized_shape():
    """Every tile enters the back once and flips to the front at most once:
    n monotone pushes, evictions and queries cost fewer than 8·n op merges,
    whatever the window length."""
    calls = {"n": 0}

    class CountingSum(Sum):
        def merge(self, a, b):
            calls["n"] += 1
            return super().merge(a, b)

    n = 3000
    for width in (1, 50, n):  # window length in tiles
        calls["n"] = 0
        stack = _TileTwoStack(CountingSum())
        for t in range(n):
            stack.push(t, 1.0)
            stack.evict_before(t - width + 1)
            assert stack.query_cloned() == min(t + 1, width)
        assert calls["n"] < 8 * n, (width, calls["n"])
