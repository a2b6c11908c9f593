"""Each pipeline runs once: raywin declares the schemas it knows in Ray's
own plan (``stages.shuffle.declare_schema``), so neither ``to_arrow_refs()``
nor raywin's own schema lookups execute a limit-1 copy of a pipeline whose
sort makes that copy run the whole exchange again.  A declared schema must
be the schema the blocks really have: each is checked against the executed
table, which also pins the private ``_plan.cache_schema`` call."""

import json
import os
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from raywin.api import (
    Accuracy, Aggregation, Derivation, EntitySource, EventSource, GroupBy, Join, JoinPart, Operation,
    Query, TimeUnit, Window,
)
from raywin.stages.shuffle import known_schema

DAY = 86_400_000
BASE = (1_700_000_000_000 // DAY) * DAY
SF = "/root/testdata/sf0.001"


def _events_table(tmp_path, n=3000, seed=4):
    rng = np.random.default_rng(seed)
    t = pa.table({
        "k": pa.array(rng.integers(0, 30, n).astype(str)),
        "ts": pa.array(BASE + np.sort(rng.integers(0, 4 * DAY, n)), pa.int64()),
        "v": pa.array(rng.normal(10, 3, n)),
    })
    path = str(tmp_path / "events.parquet")
    pq.write_table(t, path)
    return path


def _gb(path, name="se_gb", derivations=None):
    return GroupBy(
        sources=[EventSource(table=path, query=Query())],
        key_columns=["k"],
        aggregations=[
            Aggregation(Operation.SUM, "v", windows=[Window(1, TimeUnit.DAYS)]),
            Aggregation(Operation.COUNT, "v"),
            Aggregation(Operation.LAST_K, "v", windows=[Window(2, TimeUnit.DAYS)], arg_map={"k": 2}),
        ],
        accuracy=Accuracy.TEMPORAL,
        name=name,
        derivations=derivations,
    )


def _executed(ds) -> pa.Table:
    """ds's blocks as one table, in their own schema (zero-row blocks
    carry none)."""
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables)


def _probes(runs):
    return [r for r in runs if any(n.startswith("limit=") for n in r)]


def test_image_backfill_runs_once(ray_session, count_executions, tmp_path):
    """to_arrow_refs() on the flagship streams its result and then asks for
    the schema: one execution, no limit-1 probe (the probe would re-run
    read, decode, exchange and kernel)."""
    from raywin.pipelines.images import image_feature_backfill
    from raywin.stages.images import generate_image_events

    path = str(tmp_path / "img")
    generate_image_events(path, 600, 60, files=2)
    ds = image_feature_backfill(path)
    refs = ds.to_arrow_refs()
    assert len(count_executions) == 1, count_executions
    assert not _probes(count_executions)
    out = pa.concat_tables([t for t in ray.get(refs) if t.num_rows])
    assert out.schema == known_schema(ds)


def test_backfill_run_is_one_execution(ray_session, count_executions, tmp_path):
    """backfill_temporal over a parquet-read left computes all of its
    pending steps in one plan: its ts filters declare the reads' schemas,
    and the per-step routing happens in the write, so the 3-step run is one
    execution (the write), with no probe of the filtered left."""
    import ray.data

    from raywin.pipelines.backfill import backfill_temporal

    path = _events_table(tmp_path)
    done = backfill_temporal(
        _gb(path), lambda: ray.data.read_parquet(path, columns=["k", "ts"]),
        str(tmp_path / "out"), "2023-11-15", "2023-11-17", step_days=1,
    )
    assert len(done) == 3 and sum(m["rows"] for _, m in done) > 0
    assert len(count_executions) == 1, count_executions
    assert not _probes(count_executions)


def test_load_upload_runs_once(ray_session, count_executions, tmp_path):
    """load_upload gates on block metadata and fetches the same blocks:
    one execution of the upload pipeline, whose stats stay on the Dataset."""
    from raywin.online import group_by_upload, load_upload

    path = _events_table(tmp_path)
    upload = group_by_upload(_gb(path), BASE + 3 * DAY)
    blobs = load_upload(upload, ["k"])
    assert len(count_executions) == 1, count_executions
    assert len(blobs) == 30
    assert "UploadKernel" in upload.stats()


def test_run_cli_join_backfill_runs_once(ray_session, count_executions, tmp_path, monkeypatch, capsys):
    """--mode join-backfill counts the rows it wrote from the files instead
    of executing the Join a second time."""
    from raywin.run import main

    (tmp_path / "confs_once.py").write_text(
        "from raywin.api import *\n"
        f"gb = GroupBy(sources=[EventSource(table='{SF}/events.parquet', query=Query(\n"
        "    selects={'user_id': 'user_id', 'value': 'value'}, time_column='epoch_ms(ts)'))],\n"
        "    key_columns=['user_id'], aggregations=[Aggregation(Operation.SUM, 'value')],\n"
        "    accuracy=Accuracy.TEMPORAL, name='once_gb')\n"
        f"the_join = Join(left=EventSource(table='{SF}/events.parquet', query=Query(\n"
        "    selects={'event_id': 'event_id', 'user_id': 'user_id'}, time_column='epoch_ms(ts)')),\n"
        "    join_parts=[JoinPart(group_by=gb)], name='once_join')\n"
    )
    monkeypatch.chdir(tmp_path)
    sys.path.insert(0, str(tmp_path))
    try:
        out_dir = str(tmp_path / "out")
        assert main(["--mode", "join-backfill", "--conf", "confs_once:the_join", "--output", out_dir]) == 0
    finally:
        sys.path.remove(str(tmp_path))
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["rows"] == pq.read_table(out_dir).num_rows == 1000
    # the left's count and the write: the Join's kernel pipeline runs once
    kernel_runs = [r for r in count_executions if any("PartitionKernel" in n for n in r)]
    assert len(kernel_runs) == 1, count_executions


def test_expression_selects_run_once(ray_session, count_executions, tmp_path):
    """A scan whose Query selects are expressions declares its SqlBatch
    output's schema (DuckDB binds the statement over an empty table of the
    read's schema), so features_for_queries over it is one execution, with
    no limit-1 probe of the read -> SqlBatch pipeline."""
    from raywin.pipelines.group_by import features_for_queries

    path = _events_table(tmp_path)
    gb = GroupBy(
        sources=[EventSource(table=path, query=Query(
            selects={"k": "k", "v2": "v * 2 + 1"}, wheres=["v > 0"], time_column="ts"))],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "v2", windows=[Window(1, TimeUnit.DAYS)])],
        accuracy=Accuracy.TEMPORAL,
        name="expr_gb",
    )
    left = ray.data.read_parquet(path, columns=["k", "ts"])
    out = pa.concat_tables([t for t in ray.get(features_for_queries(gb, left).to_arrow_refs())
                            if t.num_rows])
    assert len(count_executions) == 1, count_executions
    assert not _probes(count_executions)
    assert out.num_rows == 3000 and "v2_sum_1d" in out.column_names


def test_declared_schemas_match_executed(ray_session, tmp_path):
    """Every declared output schema equals the executed table's: the point-
    in-time kernel (plain and with DuckDB derivations), the upload table,
    the distributed serving lambda, temporal entities and a two-part
    chained join."""
    import ray.data

    from raywin.online import group_by_upload
    from raywin.online.serving import online_enrich_distributed
    from raywin.pipelines.entities import temporal_entity_features
    from raywin.pipelines.group_by import features_for_queries
    from raywin.pipelines.join import backfill_join

    path = _events_table(tmp_path)
    gb = _gb(path)
    rng = np.random.default_rng(8)
    queries = pd.DataFrame({
        "k": rng.integers(0, 30, 200).astype(str),
        "ts": BASE + 3 * DAY + rng.integers(0, DAY, 200),
        "tag": rng.integers(0, 5, 200).astype(np.int32),
    })
    left = ray.data.from_pandas(queries)
    upload = group_by_upload(gb, BASE + 3 * DAY)
    stream = ray.data.read_parquet(path)

    snaps = pa.table({"k": ["1", "2"], "rating": [3.0, 4.0], "ts": pa.array([BASE, BASE], pa.int64()),
                      "ds": ["2023-11-13", "2023-11-13"]})
    muts = pa.table({"k": ["1"], "rating": [5.0], "ts": pa.array([BASE], pa.int64()),
                     "mutation_ts": pa.array([BASE + DAY + 7], pa.int64()), "is_before": [False]})
    pq.write_table(snaps, str(tmp_path / "snaps.parquet"))
    pq.write_table(muts, str(tmp_path / "muts.parquet"))
    ent_gb = GroupBy(
        sources=[EntitySource(snapshot_table=str(tmp_path / "snaps.parquet"),
                              mutation_table=str(tmp_path / "muts.parquet"), query=Query())],
        key_columns=["k"],
        aggregations=[Aggregation(Operation.SUM, "rating"), Aggregation(Operation.HISTOGRAM, "rating")],
        accuracy=Accuracy.TEMPORAL,
        name="se_ent",
    )
    ent_left = ray.data.from_arrow(pa.table({"k": ["1", "2", "3"], "ts": pa.array([BASE + DAY + 9] * 3)}))

    chained = Join(
        left=EventSource(table=path, query=Query(selects={"k": "k"}, time_column="ts")),
        join_parts=[JoinPart(group_by=gb), JoinPart(group_by=_gb(path, "se_gb2"), prefix="p2")],
        name="se_join",
    )
    cases = {
        "features_for_queries": features_for_queries(gb, left),
        "derivations": features_for_queries(_gb(path, "se_der", [
            Derivation("*", "*"), Derivation("v_mean", "v_sum_1d / v_count"),
            Derivation("last_v", "v_last2_2d[1]"), Derivation("n", "CAST(v_count AS INTEGER)"),
        ]), left),
        "group_by_upload": upload,
        "online_enrich_distributed": online_enrich_distributed(left, gb, BASE + 3 * DAY, upload, stream),
        "temporal_entity_features": temporal_entity_features(ent_gb, ent_left),
        "chained_join": backfill_join(chained),
    }
    for name, ds in cases.items():
        declared = known_schema(ds)
        assert declared is not None, name
        assert _executed(ds).schema == declared, name
