"""Co-partitioned keyed range join vs a DuckDB oracle.

Covers the cases the chunked design must get right: intervals spanning
many chunks (replication > 2), intervals inside one chunk, empty
intervals, hot keys, duplicate matches (multiplicity preserved), and
matches exactly at the inclusive start / exclusive end boundaries.
"""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data

from raywin.functions.relational import bucketed_range_join

CHUNK_MS = 1_000  # tiny on purpose: forces multi-chunk interval replication


def _random_tables(seed: int, n_left: int = 4_000, n_right: int = 1_200):
    rng = np.random.default_rng(seed)
    # a few hot keys + a long tail
    keys = np.concatenate(
        [np.zeros(n_left // 4, dtype=np.int64), rng.integers(0, 50, n_left - n_left // 4)]
    )
    left = pd.DataFrame(
        {
            "pid": np.arange(n_left, dtype=np.int64),
            "k": keys,
            "ts": rng.integers(0, 20_000, n_left).astype(np.int64),
        }
    )
    start = rng.integers(0, 20_000, n_right).astype(np.int64)
    # lengths from sub-chunk to ~8 chunks, plus some empty intervals
    length = rng.integers(0, 8_000, n_right).astype(np.int64)
    length[rng.random(n_right) < 0.05] = 0  # empty: end == start, matches nothing
    right = pd.DataFrame(
        {
            "iid": np.arange(n_right, dtype=np.int64),
            "k": rng.integers(0, 50, n_right).astype(np.int64),
            "s": start,
            "e": start + length,
        }
    )
    return left, right


def _oracle(left: pd.DataFrame, right: pd.DataFrame) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    return con.execute(
        "SELECT l.pid, l.k, l.ts, r.iid, r.s, r.e FROM l JOIN r "
        "ON l.k = r.k AND l.ts >= r.s AND l.ts < r.e"
    ).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("seed", [0, 7])
def test_range_join_matches_oracle(ray_session, exchange_block_rows, seed):
    exchange_block_rows(512)
    left, right = _random_tables(seed)
    out = bucketed_range_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on=["k"],
        left_ts="ts",
        right_start="s",
        right_end="e",
        chunk_ms=CHUNK_MS,
    ).to_pandas()
    exp = _oracle(left, right)
    assert len(out) == len(exp) and len(exp) > 0
    pd.testing.assert_frame_equal(_canon(out), _canon(exp))


def test_range_join_boundaries(ray_session, exchange_block_rows):
    exchange_block_rows(2)
    # inclusive start, exclusive end, interval spanning 5 chunks
    left = pd.DataFrame(
        {"pid": [0, 1, 2, 3], "k": [1, 1, 1, 1], "ts": [100, 5_099, 5_100, 99]}
    )
    right = pd.DataFrame({"iid": [0], "k": [1], "s": [100], "e": [5_100]})
    out = bucketed_range_join(
        ray.data.from_pandas(left),
        ray.data.from_pandas(right),
        on=["k"],
        left_ts="ts",
        right_start="s",
        right_end="e",
        chunk_ms=CHUNK_MS,
    ).to_pandas()
    # ts=100 (== start) and ts=5099 (== end-1) match; 5100 (== end) and 99 do not,
    # and the 5-chunk replication must not produce duplicate matches
    assert sorted(out["pid"].tolist()) == [0, 1]
