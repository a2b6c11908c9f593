"""raywin's benchmark: three workloads through the public entry points, an
oracle check on every output, and a traced per-layer ledger.

Run it from the repository root::

    python3 perfbench/run.py --workload img_backfill --seed 1 --seconds 10 --trace 0

See perfbench/README.md for the workloads and the metric definitions.
"""
