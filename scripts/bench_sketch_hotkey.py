"""Hot-key ORDER-SENSITIVE sketch microbench: one entity key, M events, Q
queries, windowed APPROX_HISTOGRAM_K (space-saving — merge-order-sensitive,
so it cannot ride the two-stack; it uses the ascending prefix-fold cache).

Usage: python scripts/bench_sketch_hotkey.py [M] [Q]
Prints one JSON line {"m": M, "q": Q, "sec": best-of-2}.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pandas as pd

DAY = 86400000
BASE = 1_600_000_000_000 // DAY * DAY


def main():
    m = int(sys.argv[1]) if len(sys.argv) > 1 else 200_000
    q = int(sys.argv[2]) if len(sys.argv) > 2 else 20_000

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    import ray.data

    from raywin.api import (
        Accuracy, Aggregation, EventSource, GroupBy, Operation, Query,
        TimeUnit, Window,
    )
    from raywin.pipelines.group_by import features_for_queries

    rng = np.random.default_rng(3)
    span = 30 * DAY
    ev = pd.DataFrame(
        {
            "k": "hot",
            "ts": BASE + np.sort(rng.integers(0, span, m)),
            "cat": rng.choice([f"c{i}" for i in range(40)], m),
        }
    )
    qdf = pd.DataFrame(
        {"k": "hot", "ts": BASE + np.sort(rng.integers(DAY, span, q))}
    )
    gb = GroupBy(
        sources=[EventSource(table="unused", query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.APPROX_HISTOGRAM_K, "cat",
                        arg_map={"k": 8}, windows=[Window(7, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="sketch_hot",
    )
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        out = features_for_queries(
            gb,
            ray.data.from_pandas(qdf),
            right_ds=ray.data.from_pandas(ev),
        ).to_pandas()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert len(out) == q
    print(json.dumps({"m": m, "q": q, "sec": round(best, 3)}))
    ray.shutdown()


if __name__ == "__main__":
    main()
