"""Resumable backfill: skip completed partitions, archive on config change,
and produce byte-identical results to a single-shot run."""

import os
import shutil

import numpy as np
import pandas as pd
import pytest

from raywin.api import Accuracy, Aggregation, EventSource, GroupBy, Operation, Query, TimeUnit, Window
from raywin.pipelines.backfill import backfill_temporal
from raywin.state import manifest as mf

DAY = 86400000


@pytest.fixture(scope="module")
def ev_table(tmp_path_factory):
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    n = 5000
    base = pd.Timestamp("2024-02-01").value // 1_000_000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 40, n).astype(str).astype(object)),
            "ts": pa.array(base + np.sort(rng.integers(0, 6 * DAY, n))),
            "v": pa.array(rng.normal(10, 3, n)),
        }
    )
    path = tmp_path_factory.mktemp("bf") / "events.parquet"
    pq.write_table(t, str(path))
    return str(path)


def _gb(path, windows=None):
    return GroupBy(
        sources=[EventSource(table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=windows or [Window(2, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "v"),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="bf_gb",
    )


def _single(gb, left_fn):
    from raywin.pipelines.group_by import features_for_queries

    return features_for_queries(gb, left_fn(), dedupe_queries=True).to_pandas()


def _assert_same(full, single, cols):
    key = ["k", "ts"]
    assert not full.duplicated(key).any(), "duplicate (k, ts) rows in the output"
    a = full.sort_values(key).reset_index(drop=True)
    b = single.sort_values(key).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a[key].values == b[key].values).all()
    for col in cols:
        x, y = a[col].astype(float), b[col].astype(float)
        assert ((x.isna() & y.isna()) | np.isclose(x, y, rtol=1e-9, equal_nan=True)).all(), col


def _data_rows(out_dir, label):
    import pyarrow.parquet as pq

    ddir = mf.data_dir(out_dir, label)
    return sum(pq.read_metadata(os.path.join(ddir, f)).num_rows for f in os.listdir(ddir))


def test_resumable_backfill(ray_session, exchange_block_rows, ev_table, tmp_path):
    import ray.data

    exchange_block_rows(2048)
    out_dir = str(tmp_path / "out")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    done = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert len(done) == 3  # 6 days / 2-day steps
    labels = [d[0] for d in done]
    # one plan computed all 3 steps: each manifest carries its wall
    assert [m["metrics"]["plan_partitions"] for _, m in done] == [3, 3, 3]
    assert len({m["metrics"]["wall_sec"] for _, m in done}) == 1
    assert done[0][1]["metrics"]["wall_sec"] > 0
    total_rows = sum(d[1]["rows"] for d in done)

    # restart: nothing to do
    done2 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert done2 == []

    # delete one partition -> only that one recomputed
    shutil.rmtree(mf.partition_dir(out_dir, labels[1]))
    done3 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert [d[0] for d in done3] == [labels[1]]
    assert done3[0][1]["metrics"]["plan_partitions"] == 1

    # output equals a single-shot full-range computation
    full = mf.load_output(out_dir).to_pandas()
    assert len(full) == total_rows
    _assert_same(full, _single(_gb(ev_table), left_fn), ["v_sum_2d", "v_count"])

    # config change -> all partitions recomputed, stale archived
    done4 = backfill_temporal(
        _gb(ev_table, windows=[Window(1, TimeUnit.DAYS)]), left_fn, out_dir,
        "2024-02-01", "2024-02-06", step_days=2,
    )
    assert len(done4) == 3
    stale = [d for d in os.listdir(out_dir) if d.startswith("_stale_")]
    assert stale, "stale outputs must be archived on semantic change"


def test_empty_partition_records_zero_row_manifest(
    ray_session, exchange_block_rows, ev_table, tmp_path
):
    """A day range with no events must complete with a rows=0 manifest (so
    resume skips it), not crash on the missing data directory."""
    import ray.data

    exchange_block_rows(1024)
    out_dir = str(tmp_path / "empty_out")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])
    # ev_table covers 2024-02-01..07; this range is far in the future
    done = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2025-06-01", "2025-06-02",
        step_days=2,
    )
    assert len(done) == 1
    label, m = done[0]
    assert m["rows"] == 0
    # resume: nothing left to do
    done2 = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2025-06-01", "2025-06-02",
        step_days=2,
    )
    assert done2 == []


def test_truncated_step_recomputed_on_extended_range(
    ray_session, exchange_block_rows, ev_table, tmp_path
):
    """A backfill first launched with an end date that TRUNCATES its final
    step must not poison a later full-range resume: the truncated step's
    manifest records its actual ts_range, and the resume recomputes it
    instead of silently skipping the missing tail days."""
    import ray.data

    exchange_block_rows(2048)
    out_dir = str(tmp_path / "trunc")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    # 2-day steps, but the first launch ends mid-step (02-01..02-03 covers
    # one full step + a 1-day truncated second step with the same label)
    first = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-03", step_days=2
    )
    assert [d[0] for d in first] == ["ds=2024-02-01", "ds=2024-02-03"]

    # full range: the truncated ds=2024-02-03 step must be recomputed
    resumed = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert "ds=2024-02-03" in [d[0] for d in resumed]
    assert [d for d in os.listdir(out_dir) if "truncated" in d], "truncated step archived"

    full = mf.load_output(out_dir).to_pandas()
    from raywin.pipelines.group_by import features_for_queries

    single = features_for_queries(
        _gb(ev_table), left_fn(), dedupe_queries=True
    ).to_pandas()
    assert len(full) == len(single), "resume after truncation must lose no rows"


def test_lost_manifest_step_rewritten_not_appended(
    ray_session, exchange_block_rows, ev_table, tmp_path
):
    """A run that dies after a step's write and before its manifest leaves
    data files without a manifest; the re-run recomputes the step into an
    emptied directory instead of adding a second copy beside the first."""
    import ray.data

    exchange_block_rows(2048)
    out_dir = str(tmp_path / "lost")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])
    first = dict(backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    ))
    label = "ds=2024-02-03"
    os.remove(os.path.join(mf.partition_dir(out_dir, label), mf.MANIFEST_NAME))

    again = backfill_temporal(
        _gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2
    )
    assert [d[0] for d in again] == [label]
    assert again[0][1]["rows"] == first[label]["rows"] > 0
    assert _data_rows(out_dir, label) == first[label]["rows"]
    _assert_same(mf.load_output(out_dir).to_pandas(), _single(_gb(ev_table), left_fn),
                 ["v_sum_2d", "v_count"])


def test_killed_mid_write_leaves_no_manifest(
    ray_session, exchange_block_rows, ev_table, tmp_path, monkeypatch
):
    """A write that dies after its first file leaves no manifest for any
    pending step, so the re-run recomputes them all, and its output equals a
    single-shot computation with no duplicate rows."""
    import ray.data

    import raywin.pipelines.backfill as bf

    exchange_block_rows(1024)
    out_dir = str(tmp_path / "killed")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    class DyingSink(bf._StepSink):
        def _write_file(self, table, path):
            super()._write_file(table, path)
            raise RuntimeError("killed mid-write")

    step_sink = bf._StepSink
    monkeypatch.setattr(bf, "_StepSink", DyingSink)
    with pytest.raises(Exception, match="killed mid-write"):
        backfill_temporal(_gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2)
    labels = [label for label, _, _ in bf.day_partitions("2024-02-01", "2024-02-06", 2)]
    assert all(mf.read_manifest(out_dir, label) is None for label in labels)
    assert any(os.listdir(mf.data_dir(out_dir, label)) for label in labels), "a file was written"

    monkeypatch.setattr(bf, "_StepSink", step_sink)
    done = backfill_temporal(_gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2)
    assert [d[0] for d in done] == labels
    assert all(_data_rows(out_dir, label) == m["rows"] for label, m in done)
    _assert_same(mf.load_output(out_dir).to_pandas(), _single(_gb(ev_table), left_fn),
                 ["v_sum_2d", "v_count"])


def test_worker_death_mid_write_rewrites_its_own_files(
    ray_session, exchange_block_rows, ev_table, tmp_path, monkeypatch
):
    """A write task whose worker dies after its first file is retried by
    Ray; the retry overwrites that file instead of adding a second copy, so
    each step's files hold exactly its manifest's rows, none twice."""
    import ray.data

    import raywin.pipelines.backfill as bf

    exchange_block_rows(1024)
    out_dir = str(tmp_path / "died")
    marker = str(tmp_path / "die_once")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])

    class DieOnceSink(bf._StepSink):
        def _write_file(self, table, path):
            super()._write_file(table, path)
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                os._exit(1)  # first file only: the marker now exists for the retry
            except FileExistsError:
                pass

    monkeypatch.setattr(bf, "_StepSink", DieOnceSink)
    done = backfill_temporal(_gb(ev_table), left_fn, out_dir, "2024-02-01", "2024-02-06", step_days=2)
    assert os.path.exists(marker), "the worker was never killed"
    assert len(done) == 3
    assert all(_data_rows(out_dir, label) == m["rows"] for label, m in done)
    _assert_same(mf.load_output(out_dir).to_pandas(), _single(_gb(ev_table), left_fn),
                 ["v_sum_2d", "v_count"])


def test_bounded_group_by_scans_only_its_window(
    ray_session, exchange_block_rows, ev_table, tmp_path, monkeypatch
):
    """With no right_ds_fn and only windowed parts, the GroupBy's own
    sources are read only in [first_step_start - lookback, last_step_end):
    the right side handed to features_for_queries holds no other event, and
    the output still equals a single-shot computation."""
    import ray.data

    import raywin.pipelines.backfill as bf
    from raywin.aggregator.windowing import FiveMinuteResolution

    exchange_block_rows(2048)
    windows = [Window(2, TimeUnit.DAYS)]
    gb = GroupBy(
        sources=[EventSource(table=ev_table, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=windows),
            Aggregation(Operation.COUNT, "v", windows=[Window(1, TimeUnit.DAYS)]),
        ],
        accuracy=Accuracy.TEMPORAL,
        name="bf_bounded",
    )
    rights = []
    features_for_queries = bf.features_for_queries

    def capture(group_by, left, **kwargs):
        rights.append(kwargs["right_ds"])
        return features_for_queries(group_by, left, **kwargs)

    monkeypatch.setattr(bf, "features_for_queries", capture)
    out_dir = str(tmp_path / "bounded")
    left_fn = lambda: ray.data.read_parquet(ev_table, columns=["k", "ts"])
    done = backfill_temporal(gb, left_fn, out_dir, "2024-02-05", "2024-02-06", step_days=1)
    assert [d[0] for d in done] == ["ds=2024-02-05", "ds=2024-02-06"]

    lo, hi = done[0][1]["inputs"]["ts_range"][0], done[-1][1]["inputs"]["ts_range"][1]
    lookback = 2 * DAY + FiveMinuteResolution.tail_hop(windows[0])
    assert done[0][1]["inputs"]["scan_lookback_ms"] == lookback
    assert len(rights) == 1 and rights[0] is not None
    ts = rights[0].to_pandas()["ts"]
    events = pd.read_parquet(ev_table)["ts"]
    assert len(ts) == ((events >= lo - lookback) & (events < hi)).sum() < len(events)

    single = _single(gb, left_fn)
    single = single[(single["ts"] >= lo) & (single["ts"] < hi)]
    _assert_same(mf.load_output(out_dir).to_pandas(), single, ["v_sum_2d", "v_count_1d"])
