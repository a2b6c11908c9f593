"""Local stand-in for the driver's correctness gate: run every queries()
entry and its oracle_sql() side by side, compare row count, schema, and
order-insensitive rounded values.

Usage: python scripts/check_queries.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, ".")

import duckdb
import numpy as np
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in df.columns:
        if df[c].dtype == object or str(df[c].dtype).startswith("list"):
            df[c] = df[c].map(
                lambda v: None
                if v is None or (isinstance(v, float) and np.isnan(v))
                else (
                    tuple(round(float(x), 6) if isinstance(x, (int, float, np.floating)) else x for x in v)
                    if isinstance(v, (list, tuple, np.ndarray))
                    else v
                )
            )
        elif str(df[c].dtype).startswith("float"):
            df[c] = df[c].round(6)
        elif "datetime" in str(df[c].dtype):
            df[c] = df[c].astype("int64")
        elif str(df[c].dtype) in ("Int64", "Int32"):
            df[c] = df[c].astype("float64")
        elif str(df[c].dtype).startswith("int"):
            df[c] = df[c].astype("float64")
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), na_position="first").reset_index(drop=True)


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    # an untimed job first, so no query's seconds include the Ray worker
    # start-up of the fresh session
    ray.data.range(64, override_num_blocks=8).map_batches(lambda b: b).materialize()

    sys.path.insert(0, ".")
    import importlib

    entry_mod = importlib.import_module("__ray_entry__")

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entry_mod.queries()
    oracles = entry_mod.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} ({dt:.1f}s, rows-only)")
            continue
        try:
            oracle = canon(con.execute(oracles[name]).df())
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: oracle raised {e}")
            continue
        problems = []
        if len(mine) != len(oracle):
            problems.append(f"rows {len(mine)} != {len(oracle)}")
        if list(mine.columns) != list(oracle.columns):
            problems.append(f"schema {list(mine.columns)} != {list(oracle.columns)}")
        if not problems:
            if not mine.equals(oracle):
                # strict: the driver hashes round(6) values, so require exact
                # equality of the canonicalized frames (no isclose tolerance)
                neq = pd.DataFrame(index=mine.index)
                for c in mine.columns:
                    if str(mine[c].dtype).startswith("float"):
                        neq[c] = ~(
                            (mine[c].isna() & oracle[c].isna())
                            | (mine[c] == oracle[c])
                        )
                    else:
                        neq[c] = (mine[c] != oracle[c]) & ~(mine[c].isna() & oracle[c].isna())
                bad_cols = [c for c in mine.columns if neq[c].any()]
                if bad_cols:
                    problems.append(f"values differ in {bad_cols}")
                    for c in bad_cols[:2]:
                        idx = neq[c].idxmax()
                        problems.append(f"  e.g. {c}[{idx}]: {mine[c][idx]!r} vs {oracle[c][idx]!r}")
        if problems:
            failures.append(name)
            print(f"FAIL {name} ({dt:.1f}s): " + "; ".join(problems))
        else:
            print(f"ok   {name}: rows={len(mine)} ({dt:.1f}s)")
    ray.shutdown()
    if failures:
        print("FAILURES:", failures)
        sys.exit(1)
    print("all green")


if __name__ == "__main__":
    main()
