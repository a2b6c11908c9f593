"""Driver CLI: conf loading, analyze/validate modes, join-backfill to parquet."""

import json
import os
import sys
import textwrap


def _write_conf(tmp_path, sf_dir):
    conf = tmp_path / "confs_cli.py"
    conf.write_text(textwrap.dedent(f"""
        from raywin.api import (Accuracy, Aggregation, EventSource, GroupBy,
                                Join, JoinPart, Operation, Query, TimeUnit, Window)

        user_gb = GroupBy(
            sources=[EventSource(
                table="{sf_dir}/events.parquet",
                query=Query(selects={{"user_id": "user_id", "value": "value"}},
                            time_column="epoch_ms(ts)"),
            )],
            key_columns=["user_id"],
            aggregations=[Aggregation(Operation.SUM, "value",
                                      windows=[Window(7, TimeUnit.DAYS)])],
            accuracy=Accuracy.TEMPORAL,
            name="cli_user_gb",
        )
        the_join = Join(
            left=EventSource(
                table="{sf_dir}/events.parquet",
                query=Query(selects={{"event_id": "event_id", "user_id": "user_id"}},
                            time_column="epoch_ms(ts)"),
            ),
            join_parts=[JoinPart(group_by=user_gb)],
            name="cli_join",
        )
    """))
    return conf


def test_run_cli_join_backfill(ray_session, tmp_path, monkeypatch, capsys):
    from raywin.run import main

    sf_dir = "/root/testdata/sf0.001"
    _write_conf(tmp_path, sf_dir)
    monkeypatch.chdir(tmp_path)
    sys.path.insert(0, str(tmp_path))
    try:
        out_dir = str(tmp_path / "out")
        rc = main(["--mode", "join-backfill", "--conf", "confs_cli:the_join",
                   "--output", out_dir])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["rows"] == 1000
        assert any(f.endswith(".parquet") for f in os.listdir(out_dir))

        rc = main(["--mode", "validate", "--conf", "confs_cli:the_join"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == []

        rc = main(["--mode", "analyze", "--conf", "confs_cli:user_gb"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert "value_sum_7d" in report["output_schema"]
    finally:
        sys.path.remove(str(tmp_path))


def test_run_cli_flow_backfill(ray_session, tmp_path, monkeypatch, capsys):
    from raywin.run import main

    sf_dir = "/root/testdata/sf0.001"
    _write_conf(tmp_path, sf_dir)
    monkeypatch.chdir(tmp_path)
    sys.path.insert(0, str(tmp_path))
    try:
        out_dir = str(tmp_path / "flow_out")
        rc = main([
            "--mode", "flow-backfill", "--conf", "confs_cli:user_gb",
            "--output", out_dir, "--start", "2024-01-05", "--end", "2024-01-08",
            "--step-days", "2", "--max-parallel", "2",
            "--state-dir", str(tmp_path / "state"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        steps = payload["steps"]
        assert steps["validate"]["status"] == "ok"
        parts = [s for s in steps if s.startswith("partition_")]
        assert len(parts) == 2
        assert all(steps[s]["status"] == "ok" for s in parts)

        # second run resumes from the orchestrator's own step markers
        rc = main([
            "--mode", "flow-backfill", "--conf", "confs_cli:user_gb",
            "--output", out_dir, "--start", "2024-01-05", "--end", "2024-01-08",
            "--step-days", "2",
            "--state-dir", str(tmp_path / "state"),
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert all(s["status"] == "resumed" for s in payload["steps"].values())
    finally:
        sys.path.remove(str(tmp_path))


def test_run_cli_load_local(ray_session, tmp_path, capsys):
    from raywin.run import main

    f = tmp_path / "purchases.csv"
    f.write_text("user,amount,ds\na,1,2023-01-01\nb,2,2023-01-02\n")
    out = str(tmp_path / "wh")
    rc = main(["--mode", "load-local", "--conf", str(f), "--output", out])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    (name, path), = payload["tables"].items()
    assert name == "purchases" and os.path.isdir(path)
