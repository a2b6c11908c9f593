"""ApproxHistogramK: hybrid exact->space-saving frequent-items histogram.

Mirrors the reference's ApproxHistogramTest strategy
(aggregator/src/test/scala/ai/chronon/aggregator/test/ApproxHistogramTest.scala):
exact parity below the mapSize cutoff, bounded IR and heavy-hitter recovery
above it, merge in every exact/sketch combination.
"""

import numpy as np
import pandas as pd

from raywin.api import Aggregation, Operation, TimeUnit, Window
from raywin.aggregator.kernel import PartitionAggregator
from raywin.aggregator.scalar_ops import ApproxHistogramK, Histogram
from raywin.aggregator.windowing import FiveMinuteResolution

from .test_kernel_vs_oracle import aggregate


def _run_stream(op, values, splits=1, seed=0):
    """Feed values through `splits` independent IRs (round-robin) then merge."""
    rng = np.random.default_rng(seed)
    assign = rng.integers(0, splits, len(values))
    irs = [None] * splits
    for v, s in zip(values, assign):
        irs[s] = op.prepare(v) if irs[s] is None else op.update(irs[s], v)
    ir = None
    for sub in irs:
        if sub is None:
            continue
        ir = sub if ir is None else op.merge(ir, sub)
    return ir


def test_exact_mode_matches_histogram():
    rng = np.random.default_rng(1)
    values = rng.choice(list("abcdefgh"), 5000)  # 8 distinct <= map_size
    op = ApproxHistogramK(map_size=8)
    exact = Histogram()
    for splits in (1, 3, 7):
        ir = _run_stream(op, values, splits=splits)
        assert ir[0] == "E"
        expected = exact.finalize(_run_stream(exact, values, splits=1))
        assert op.finalize(ir) == expected


def test_ir_memory_is_bounded():
    op = ApproxHistogramK(map_size=8)
    assert op.capacity == 32
    ir = None
    for i in range(20_000):  # 20k distinct values
        v = f"item_{i}"
        ir = op.prepare(v) if ir is None else op.update(ir, v)
        tag, d = ir
        assert len(d) <= op.capacity
    assert ir[0] == "S"


def test_heavy_hitters_recovered():
    # Zipf-ish: a few hot items + a long uniform tail. Space-saving guarantee:
    # any item with true count > n/capacity is retained; est >= true >= est-err.
    rng = np.random.default_rng(7)
    hot = [f"hot_{i}" for i in range(4)]
    tail = [f"tail_{i}" for i in range(2000)]
    values = list(rng.choice(tail, 4000)) + [h for h in hot for _ in range(3000)]
    rng.shuffle(values)
    n = len(values)
    true = pd.Series(values).value_counts().to_dict()

    op = ApproxHistogramK(map_size=8)
    for splits in (1, 5):
        ir = _run_stream(op, values, splits=splits, seed=splits)
        assert ir[0] == "S"
        tag, d = ir
        assert len(d) <= op.capacity
        for h in hot:
            assert h in d, f"heavy hitter {h} evicted (splits={splits})"
            est, err = d[h]
            assert est >= true[h] >= est - err
        out = op.finalize(ir)
        for h in hot:
            assert out[h] >= true[h]


def test_merge_exact_into_sketch_both_orders():
    op = ApproxHistogramK(map_size=4)
    sketch_ir = _run_stream(op, [f"s{i}" for i in range(100)] + ["x"] * 50)
    assert sketch_ir[0] == "S"
    exact_ir = _run_stream(op, ["x"] * 10 + ["y"] * 3)
    assert exact_ir[0] == "E"
    import copy

    m1 = op.merge(copy.deepcopy(sketch_ir), copy.deepcopy(exact_ir))
    m2 = op.merge(copy.deepcopy(exact_ir), copy.deepcopy(sketch_ir))
    assert m1[0] == m2[0] == "S"
    for m in (m1, m2):
        est, err = m[1]["x"]
        assert est >= 60 >= est - err


def test_kernel_integration_exact_cardinality():
    """APPROX_HISTOGRAM_K through the partition kernel == exact HISTOGRAM when
    cardinality stays under map_size (the reference's exact-mode contract)."""
    rng = np.random.default_rng(3)
    n = 1500
    ev = pd.DataFrame(
        {
            "user": rng.integers(0, 10, n).astype(str),
            "ts": 1_600_000_000_000 + rng.integers(0, 30 * 86400_000, n),
            "tag": rng.choice(["a", "b", "c", "d"], n),
            "seq": np.arange(n),
        }
    )
    q = pd.DataFrame(
        {
            "user": rng.integers(0, 10, 200).astype(str),
            "ts": 1_600_000_000_000 + rng.integers(0, 30 * 86400_000, 200),
        }
    )
    win = [Window(7, TimeUnit.DAYS), Window(-1)]
    approx = [
        p
        for a in [Aggregation(Operation.APPROX_HISTOGRAM_K, "tag", windows=win, arg_map={"k": 16})]
        for p in a.unpack()
    ]
    exact = [
        p
        for a in [Aggregation(Operation.HISTOGRAM, "tag", windows=win)]
        for p in a.unpack()
    ]
    out_a = aggregate(PartitionAggregator(["user"], approx, FiveMinuteResolution, tie_breaker="seq"), ev, q)
    out_e = aggregate(PartitionAggregator(["user"], exact, FiveMinuteResolution, tie_breaker="seq"), ev, q)
    for pa_, pe in zip(approx, exact):
        got = [None if v is None else dict(v) for v in out_a[pa_.output_column]]
        want = [None if v is None else dict(v) for v in out_e[pe.output_column]]
        assert got == want
