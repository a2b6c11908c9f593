"""Workflow DAG scheduler (raywin/scheduler.py): topological order, failure
propagation, lineage-stamped resume, parallel independent steps, and the
day-partitioned backfill flow builder end-to-end."""

import threading

import numpy as np
import pandas as pd
import pytest

from raywin.scheduler import Flow, LocalOrchestrator, flow_from_backfill

DAY = 86400000


def test_topo_order_deterministic_and_cycles():
    f = Flow("f")
    f.add_step("c", lambda: None, deps=("a", "b"))
    f.add_step("b", lambda: None, deps=("a",))
    f.add_step("a", lambda: None)
    assert f.topo_order() == ["a", "b", "c"]
    assert "- c" in f.visualize()

    g = Flow("g")
    g.add_step("x", lambda: None, deps=("y",))
    g.add_step("y", lambda: None, deps=("x",))
    with pytest.raises(ValueError, match="cycle"):
        g.topo_order()

    h = Flow("h")
    h.add_step("x", lambda: None, deps=("nope",))
    with pytest.raises(ValueError, match="unknown"):
        h.topo_order()


def test_failure_marks_dependents_upstream_failed():
    f = Flow("fail")
    ran = []
    f.add_step("a", lambda: ran.append("a"))
    f.add_step("b", lambda: 1 / 0, deps=("a",))
    f.add_step("c", lambda: ran.append("c"), deps=("b",))
    f.add_step("d", lambda: ran.append("d"), deps=("a",))
    res = LocalOrchestrator().run(f)
    assert res["a"].status == "ok"
    assert res["b"].status == "failed" and "ZeroDivisionError" in res["b"].error
    assert res["c"].status == "upstream_failed"
    assert res["d"].status == "ok"
    assert ran == ["a", "d"]  # c never executed


def test_resume_markers_respect_lineage(tmp_path):
    calls = []

    def build():
        f = Flow("resume")
        f.add_step("a", lambda: calls.append("a"))
        f.add_step("b", lambda: calls.append("b"), deps=("a",))
        return f

    orch = LocalOrchestrator(state_dir=str(tmp_path))
    r1 = orch.run(build(), lineage="v1")
    assert {s.status for s in r1.values()} == {"ok"}
    r2 = orch.run(build(), lineage="v1")
    assert {s.status for s in r2.values()} == {"resumed"}
    assert calls == ["a", "b"]  # nothing re-ran
    r3 = orch.run(build(), lineage="v2")
    assert {s.status for s in r3.values()} == {"ok"}
    assert calls == ["a", "b", "a", "b"]


def test_retries_setting():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise RuntimeError("transient")
        return "finally"

    f = Flow("retry")
    f.add_step("a", flaky, retries=2)
    res = LocalOrchestrator().run(f)
    assert res["a"].status == "ok" and res["a"].value == "finally"
    assert len(attempts) == 3

    g = Flow("retry2")
    g.add_step("a", lambda: 1 / 0, retries=1)
    assert LocalOrchestrator().run(g)["a"].status == "failed"


def test_parallel_independent_steps():
    f = Flow("par")
    barrier = threading.Barrier(2, timeout=10)
    f.add_step("seed", lambda: True)
    # both steps block until BOTH have started — only passes when the
    # orchestrator actually overlaps independent steps
    f.add_step("left", barrier.wait, deps=("seed",))
    f.add_step("right", barrier.wait, deps=("seed",))
    f.add_step("sink", lambda: "done", deps=("left", "right"))
    res = LocalOrchestrator(max_parallel=2).run(f)
    assert all(s.status == "ok" for s in res.values())
    assert res["sink"].value == "done"


@pytest.fixture(scope="module")
def ev_table(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(5)
    n = 3000
    base = pd.Timestamp("2024-03-01").value // 1_000_000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 20, n).astype(str).astype(object)),
            "ts": pa.array(base + np.sort(rng.integers(0, 4 * DAY, n))),
            "v": pa.array(rng.normal(5, 2, n)),
        }
    )
    path = tmp_path_factory.mktemp("sched") / "events.parquet"
    pq.write_table(t, str(path))
    return str(path)


def test_flow_from_backfill_end_to_end(ray_session, exchange_block_rows, ev_table, tmp_path):
    import pyarrow.dataset as pads
    import ray.data

    from raywin.api import (
        Accuracy, Aggregation, EventSource, GroupBy, Operation, Query,
        TimeUnit, Window,
    )

    exchange_block_rows(1024)
    gb = GroupBy(
        sources=[EventSource(table=ev_table, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(2, TimeUnit.DAYS)])
        ],
        accuracy=Accuracy.TEMPORAL,
        name="sched_gb",
    )
    out_dir = str(tmp_path / "out")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])
    flow = flow_from_backfill(
        gb, left_fn, out_dir, "2024-03-01", "2024-03-04",
        step_days=2,
    )
    # validate + 2 partition steps, partitions independent of each other
    assert len(flow.steps) == 3
    res = LocalOrchestrator(max_parallel=2).run(flow, lineage="l1")
    assert all(s.status == "ok" for s in res.values()), res
    done = [m for s in res.values() if isinstance(s.value, list) for _, m in s.value]
    assert sum(m["rows"] for m in done) == 3000
    import glob
    import os

    data_dirs = glob.glob(os.path.join(out_dir, "ds=*", "data"))
    total = sum(
        pads.dataset(d, format="parquet").count_rows() for d in data_dirs
    )
    assert total == 3000
    # second run: the orchestrator skips everything via its own markers
    res2 = LocalOrchestrator(state_dir=str(tmp_path / "state")).run(flow, lineage="l1")
    assert all(s.status in ("ok", "resumed") for s in res2.values())
