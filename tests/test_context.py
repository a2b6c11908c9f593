"""Partition sizing and the engine's Ray Data context.

The read rule (sources/io.read_block_count: one block per CPU of the
session), and the generator-buffer deadlock fix
(context.tune_data_context): a multi-branch plan — two reads, two sorts, a
union — whose read tasks each yield several blocks must finish at 1 CPU.
With Ray's default 2-block buffer it wedges: one branch's sort blocks the
scheduling loop while the other branch's reader pauses on its full buffer,
still holding the only CPU."""

import os
import signal
import subprocess
import sys
import textwrap

import ray

from raywin.sources import io

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


def test_multi_branch_plan_does_not_wedge(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-c", WEDGE_PLAN.format(root=ROOT, tmp=str(tmp_path))],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        # the child's Ray processes share its session: take them down too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert out is not None, "multi-branch plan wedged (no result in 120 s)"
    assert "ROWS 402000" in out, out
