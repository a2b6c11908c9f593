"""Partition sizing and the engine's Ray Data context.

The read rule (sources/io.read_block_count: one block per CPU of the
session), and the generator-buffer deadlock fix
(context.tune_data_context): a multi-branch plan — two reads, two sorts, a
union — whose read tasks each yield several blocks must finish at 1 CPU.
With Ray's default 2-block buffer it wedges: one branch's sort blocks the
scheduling loop while the other branch's reader pauses on its full buffer,
still holding the only CPU.  And every catalog query that once ran a map
stage as an actor pool finishes at 1 and at 4 CPUs: a pool held the CPUs
its own upstream read and kernel tasks needed, so those queries hung."""

import os
import signal
import subprocess
import sys
import textwrap

import pytest
import ray

from raywin.sources import io

from .test_external import SF

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read_blocks_at(monkeypatch, cpus):
    monkeypatch.setattr(ray, "is_initialized", lambda: True)
    monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": float(cpus)})
    return io.read_block_count()


def test_read_rule_one_cpu_is_one_block(monkeypatch):
    assert _read_blocks_at(monkeypatch, 1) == 1


def test_read_rule_one_block_per_cpu(monkeypatch):
    assert _read_blocks_at(monkeypatch, 32) == 32


WEDGE_PLAN = textwrap.dedent("""
    import sys
    sys.path.insert(0, {root!r})
    import numpy as np, pyarrow as pa, pyarrow.parquet as pq
    import ray, ray.data
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    from raywin.context import tune_data_context
    from raywin.sources.io import read_parquet
    tune_data_context()
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    # 1 MB blocks: the 6 MB read below is one task yielding several blocks
    ctx.target_max_block_size = 1 << 20
    rng = np.random.default_rng(0)
    d = {tmp!r}
    pq.write_table(pa.table({{"k": rng.integers(0, 1000, 2000), "v": rng.random(2000)}}), d + "/a.parquet")
    pq.write_table(pa.table({{"k": rng.integers(0, 1000, 400_000), "v": rng.random(400_000)}}),
                   d + "/b.parquet", row_group_size=20_000)
    a = read_parquet(d + "/a.parquet").sort("k")
    b = read_parquet(d + "/b.parquet").sort("v")
    print("ROWS", a.union(b).count(), flush=True)
    ray.shutdown()
""")


def _run_child(script: str, timeout: int) -> str:
    """What a Python child running ``script`` in its own session printed
    before it exited or ``timeout`` seconds passed, whichever came first."""
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, start_new_session=True, env={**os.environ, "PYTHONPATH": ROOT},
    )
    try:
        return proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        pass
    finally:
        # the child's Ray processes share its session: take them down too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.communicate()[0]


def test_multi_branch_plan_does_not_wedge(tmp_path):
    out = _run_child(WEDGE_PLAN.format(root=ROOT, tmp=str(tmp_path)), 120)
    assert "ROWS 402000" in out, f"multi-branch plan wedged (no result in 120 s): {out}"


# every catalog query whose plan held an ActorPoolMapOperator before its
# map stages became tasks
FORMERLY_POOLED = [
    "bucketed_ann", "decontaminate", "external_enrich", "langid_quality", "lm_quality",
    "log_flatten", "model_scores", "pii_scrub", "q3_top_revenue", "staging_query",
    "tfidf_top_terms",
]

# each query in a fresh Ray session: a pool starved its inputs most
# reliably in a cold one (model_scores at 1 CPU, langid_quality at 4)
QUERY_RUN = textwrap.dedent("""
    import glob, os, sys
    sys.path.insert(0, {root!r})
    import duckdb, ray, ray.data
    import __ray_entry__ as entry
    queries, oracles = entry.queries(), entry.oracle_sql()
    con = duckdb.connect()
    for path in glob.glob({sf!r} + "/*.parquet"):
        name = os.path.basename(path)[:-len(".parquet")]
        con.execute(f"CREATE VIEW {{name}} AS SELECT * FROM '{{path}}'")
    for name in {names!r}:
        ray.init(address="local", num_cpus={cpus}, include_dashboard=False, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        res = queries[name]({sf!r})
        rows = res.count() if isinstance(res, ray.data.Dataset) else len(res)
        ray.shutdown()
        print("ROWS", name, rows, len(con.execute(oracles[name]).fetchall()), flush=True)
""")


@pytest.mark.parametrize("cpus", [1, 4])
def test_formerly_pooled_queries_finish(cpus):
    out = _run_child(QUERY_RUN.format(root=ROOT, cpus=cpus, sf=SF, names=FORMERLY_POOLED), 300)
    rows = {ln.split()[1]: ln.split()[2:] for ln in out.splitlines() if ln.startswith("ROWS ")}
    assert [q for q in FORMERLY_POOLED if q not in rows] == [], f"no result in 300 s at {cpus} CPUs: {out}"
    assert all(mine == oracle for mine, oracle in rows.values()), rows
