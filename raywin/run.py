"""Driver CLI — the `ray job submit` entry point for backfills.

Mirrors the reference's run.py / Driver.scala modes (reference
api/py/ai/chronon/repo/run.py; spark/.../Driver.scala:343-405) with Python
configs instead of compiled Thrift JSON: ``--conf module:attr`` imports a
module (cwd on sys.path) and picks the named GroupBy / Join / StagingQuery
object.

    ray job submit -- python -m raywin.run --mode join-backfill \
        --conf teams.ads.joins:ctr_join --output /lake/ctr_join
    python -m raywin.run --mode groupby-backfill --conf confs:user_gb \
        --start 2023-01-01 --end 2023-02-01 --output /lake/user_gb
    python -m raywin.run --mode analyze --conf confs:ctr_join

Output is partitioned parquet (one directory per day / run) or a Lance
dataset when --output ends in ``.lance`` and the `lance` wheel is present —
resumable: groupby-backfill skips day partitions whose manifest is complete.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys


def load_conf(spec: str):
    """'pkg.module:attr' or a compiled '*.json' artifact -> the conf object
    (GroupBy / Join / StagingQuery)."""
    if spec.endswith(".json"):
        from .repo import load_compiled

        return load_compiled(spec)
    if ":" not in spec:
        raise SystemExit(f"--conf must be module:attr or a compiled .json, got {spec!r}")
    mod_name, attr = spec.split(":", 1)
    sys.path.insert(0, os.getcwd())
    mod = importlib.import_module(mod_name)
    try:
        return getattr(mod, attr)
    except AttributeError as e:
        raise SystemExit(f"{mod_name} has no attribute {attr!r}") from e


def write_output(ds, path: str) -> int:
    """Partitioned parquet by default; Lance when the path asks for it.
    Returns the rows the write added, counted from the written files:
    ``ds.count()`` would execute the whole pipeline a second time."""
    if path.rstrip("/").endswith(".lance"):
        try:
            import lance
        except ImportError as e:
            raise SystemExit(
                f"{path} requests a Lance dataset but the `lance` wheel is "
                "not installed; use a parquet path or install pylance"
            ) from e
        ds.write_lance(path)
        return lance.dataset(path).count_rows()
    import pyarrow.dataset as pads

    from .sources.io import _parquet_files

    before = set(_parquet_files(path)) if os.path.isdir(path) else set()
    ds.write_parquet(path)
    added = [f for f in _parquet_files(path) if f not in before] if os.path.isdir(path) else []
    return pads.dataset(added, format="parquet").count_rows() if added else 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="raywin.run", description=__doc__)
    p.add_argument("--mode", required=True, choices=[
        "join-backfill", "groupby-backfill", "analyze", "validate",
        "staging-query", "compile", "flow-backfill", "load-local",
    ])
    p.add_argument("--conf", required=True,
                   help="module:attr or compiled .json of the config object; "
                        "for --mode compile, the conf DIRECTORY to walk; for "
                        "--mode load-local, the csv/json file or directory")
    p.add_argument("--output", help="output table path (parquet dir or *.lance)")
    p.add_argument("--start", help="start ds (YYYY-MM-DD), groupby-backfill/staging")
    p.add_argument("--end", help="end ds (YYYY-MM-DD), groupby-backfill/staging")
    p.add_argument("--step-days", type=int, default=1)
    p.add_argument("--max-parallel", type=int, default=1,
                   help="flow-backfill: concurrent independent flow steps")
    p.add_argument("--state-dir", help="flow-backfill: step resume-marker dir")
    args = p.parse_args(argv)

    if args.mode == "compile":  # pure driver-side, no Ray session needed
        if not args.output:
            raise SystemExit("--output required for compile")
        from .repo import compile_repo

        report = compile_repo(args.conf, args.output)
        print(json.dumps(report, indent=2))
        return 1 if report["errors"] else 0

    import ray

    if not ray.is_initialized():  # the job driver owns the session
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"))

    if args.mode == "load-local":  # --conf is a data file/dir, not a config
        if not args.output:
            raise SystemExit("--output required for load-local")
        from .sources.local import load_directory, load_local_table

        if os.path.isdir(args.conf):
            tables = load_directory(args.conf, args.output)
        else:
            path = load_local_table(args.conf, args.output)
            tables = {os.path.basename(path): path}
        print(json.dumps({"mode": args.mode, "tables": tables}))
        return 0

    conf = load_conf(args.conf)
    from .api import GroupBy, Join

    if args.mode in ("analyze", "validate"):
        from . import analyzer

        if isinstance(conf, Join):
            report = (
                {"errors": analyzer.validate_join(conf)}
                if args.mode == "validate"
                else analyzer.analyze_join(conf)
            )
        else:
            report = (
                {"errors": analyzer.validate_group_by(conf)}
                if args.mode == "validate"
                else analyzer.analyze_group_by(conf)
            )
        if args.mode == "analyze" and not report.get("errors"):
            report["plan"] = analyzer.explain_plan(conf)
        print(json.dumps(report, indent=2, default=str))
        return 1 if report.get("errors") else 0

    if args.mode == "join-backfill":
        if not args.output:
            raise SystemExit("--output required for join-backfill")
        from .pipelines.join import backfill_join

        rows = write_output(backfill_join(conf), args.output)
        print(json.dumps({"mode": args.mode, "output": args.output, "rows": rows}))
        return 0

    if args.mode == "groupby-backfill":
        if not (args.output and args.start and args.end):
            raise SystemExit("--output/--start/--end required")
        from .pipelines.backfill import backfill_temporal
        from .pipelines.group_by import events_dataset

        def left_fn():
            keys = conf.key_columns
            return events_dataset(conf).select_columns(keys + ["ts"])

        done = backfill_temporal(
            conf, left_fn, args.output, args.start, args.end,
            step_days=args.step_days,
        )
        print(json.dumps({"mode": args.mode, "output": args.output,
                          "partitions_computed": len(done)}))
        return 0

    if args.mode == "flow-backfill":
        if not (args.output and args.start and args.end):
            raise SystemExit("--output/--start/--end required")
        from .api import semantic_hash
        from .pipelines.group_by import events_dataset
        from .scheduler import LocalOrchestrator, flow_from_backfill

        def left_fn():
            return events_dataset(conf).select_columns(conf.key_columns + ["ts"])

        flow = flow_from_backfill(
            conf, left_fn, args.output, args.start, args.end,
            step_days=args.step_days,
        )
        orch = LocalOrchestrator(state_dir=args.state_dir,
                                 max_parallel=args.max_parallel)
        res = orch.run(flow, lineage=semantic_hash(conf))
        report = {name: {"status": r.status, "sec": round(r.seconds, 3)}
                  for name, r in res.items()}
        print(json.dumps({"mode": args.mode, "flow": flow.name, "steps": report}))
        return 0 if all(
            r.status in ("ok", "resumed") for r in res.values()
        ) else 1

    if args.mode == "staging-query":
        if not (args.output and args.start and args.end):
            raise SystemExit("--output/--start/--end required")
        from .pipelines.staging import run_staging_query

        out = run_staging_query(conf, args.start, args.end, conf.tables or {})
        write_output(out, args.output)
        print(json.dumps({"mode": args.mode, "output": args.output}))
        return 0
    raise SystemExit(f"unhandled mode {args.mode}")


if __name__ == "__main__":
    sys.exit(main())
